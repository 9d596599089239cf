package cg

import (
	"math"
	"testing"

	"mmwave/internal/lp"
	"mmwave/internal/schedule"
)

func TestTheoremBound(t *testing.T) {
	cases := []struct {
		name  string
		upper float64
		pr    PriceResult
		want  float64
	}{
		{
			// Exact pricing with Ψ = 2 → Φ = −1 → LB = UB/2.
			name:  "exact negative phi",
			upper: 10,
			pr:    PriceResult{Value: 2, Exact: true, RelaxValue: 5},
			want:  5,
		},
		{
			// Truncated pricing must use the relaxation: Ψ̄ = 3 → Φ′ = −2.
			name:  "truncated uses relaxation",
			upper: 9,
			pr:    PriceResult{Value: 2, Exact: false, RelaxValue: 3},
			want:  3,
		},
		{
			// No improving column (Ψ ≤ 1 → Φ ≥ 0): the optimum is proven
			// and the bound collapses to the upper bound.
			name:  "converged collapses to upper",
			upper: 7,
			pr:    PriceResult{Value: 0.5, Exact: true},
			want:  7,
		},
		{
			name:  "relaxed converged collapses to upper",
			upper: 4,
			pr:    PriceResult{RelaxValue: 1},
			want:  4,
		},
	}
	for _, tc := range cases {
		if got := TheoremBound(tc.upper, &tc.pr); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: TheoremBound = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// twoLinkSchedules builds n distinct single-assignment schedules.
func twoLinkSchedules(n int) []*schedule.Schedule {
	out := make([]*schedule.Schedule, n)
	for i := range out {
		out[i] = &schedule.Schedule{Assignments: []schedule.Assignment{{
			Link: i % 4, Channel: i / 4, Level: i % 3, Layer: schedule.Layer(i % 2),
		}}}
	}
	return out
}

func TestStateSeedPinsColumns(t *testing.T) {
	st := NewState(false)
	st.Seed(twoLinkSchedules(4))
	if st.Pool().Len() != 4 || st.seedLen != 4 {
		t.Fatalf("seed: pool %d seedLen %d, want 4/4", st.Pool().Len(), st.seedLen)
	}
	// Age the non-seed columns far past any MinAge.
	extra := twoLinkSchedules(12)[4:]
	for _, sc := range extra {
		st.pool.Add(sc)
	}
	st.syncBookkeeping()
	st.runs = 100

	model := &stubModel{}
	evicted := st.gc(GCPolicy{MaxColumns: 4, MinAge: 1}, model)
	if evicted != 8 {
		t.Fatalf("evicted %d columns, want 8", evicted)
	}
	if st.Pool().Len() != 4 {
		t.Fatalf("pool %d after GC, want the 4 pinned seeds", st.Pool().Len())
	}
	if st.prob != nil || st.cols != 0 {
		t.Error("GC did not schedule a master rebuild")
	}
}

func TestStateGCKeepsBasicColumns(t *testing.T) {
	st := NewState(false)
	st.Seed(twoLinkSchedules(2))
	for _, sc := range twoLinkSchedules(10)[2:] {
		st.pool.Add(sc)
	}
	st.syncBookkeeping()
	st.runs = 50
	// Column 7 sits in the warm basis (offset 3 fixed variables before
	// the schedule columns); it must survive even though it is ancient.
	st.warmBasis = []lp.BasisVar{
		{Kind: lp.BasisAux, Index: 0},
		{Kind: lp.BasisStructural, Index: 1},     // fixed var, below offset
		{Kind: lp.BasisStructural, Index: 3 + 7}, // pool column 7
	}
	model := &stubModel{offset: 3}
	if evicted := st.gc(GCPolicy{MaxColumns: 2, MinAge: 1}, model); evicted != 7 {
		t.Fatalf("evicted %d, want 7 (8 non-seed minus the basic one)", evicted)
	}
	if st.Pool().Len() != 3 {
		t.Fatalf("pool %d, want 3 (2 seeds + 1 basic)", st.Pool().Len())
	}
	if st.warmBasis == nil {
		t.Fatal("warm basis dropped although every basic column survived")
	}
	// The basic column moved from pool index 7 to 2 (after the 2 seeds).
	want := lp.BasisVar{Kind: lp.BasisStructural, Index: 3 + 2}
	if st.warmBasis[2] != want {
		t.Errorf("basis entry remapped to %+v, want %+v", st.warmBasis[2], want)
	}
	if st.warmBasis[0] != (lp.BasisVar{Kind: lp.BasisAux, Index: 0}) ||
		st.warmBasis[1] != (lp.BasisVar{Kind: lp.BasisStructural, Index: 1}) {
		t.Error("aux/fixed basis entries must pass through unchanged")
	}
}

func TestStateGCDisabled(t *testing.T) {
	st := NewState(false)
	st.Seed(twoLinkSchedules(8))
	st.runs = 99
	if evicted := st.gc(GCPolicy{}, &stubModel{}); evicted != 0 {
		t.Fatalf("zero policy evicted %d columns", evicted)
	}
}

// stubModel satisfies MasterModel for state-level tests; only
// ColumnOffset is consulted by the GC.
type stubModel struct{ offset int }

func (m *stubModel) NewMaster() *lp.Problem                             { return lp.NewProblem(nil) }
func (m *stubModel) AppendColumn(*lp.Problem, *schedule.Schedule) error { return nil }
func (m *stubModel) RefreshRHS(*lp.Problem)                             {}
func (m *stubModel) Duals(*lp.Solution) [][]float64                     { return nil }
func (m *stubModel) Upper(sol *lp.Solution) float64                     { return sol.Objective }
func (m *stubModel) Bound(float64, *PriceResult) (float64, bool)        { return 0, false }
func (m *stubModel) ColumnOffset() int                                  { return m.offset }
func (m *stubModel) SpanName() string                                   { return "stub" }

// TestStateRebase: a rebase replaces the seeds, carries exactly the
// non-seed columns the GC's age rule would keep and the carry function
// accepts (in pool order, with their run stamps), drops duplicates of
// the new seeds, and resets everything priced on the old gains while
// the run and work counters carry on.
func TestStateRebase(t *testing.T) {
	all := twoLinkSchedules(12)
	st := NewState(true)
	st.Seed(all[:2])
	for _, sc := range all[2:] {
		st.pool.Add(sc)
	}
	st.syncBookkeeping()
	st.runs = 10
	// Last-in-basis stamps per pool column: at run 10 the default
	// MinAge=2 rule keeps the non-seed columns stamped 8 or later.
	stamps := []int{0, 0, 9, 5, 8, 10, 7, 9, 10, 2, 8, 9}
	copy(st.lastBasic, stamps)
	st.warmBasis = []lp.BasisVar{{Kind: lp.BasisStructural, Index: 5}}
	st.prob, st.cols = lp.NewProblem(nil), 12
	st.lastDuals = [][]float64{{1}}
	st.stabCenter = [][]float64{{1}}
	st.stats.Rounds = 42
	cache := st.probeCache

	// New seeds: a fresh column plus a copy of old column 4, so the
	// carried column 4 is a duplicate. Column 7 fails the carry.
	seeds := []*schedule.Schedule{
		{Assignments: []schedule.Assignment{{Link: 3, Channel: 5, Level: 1}}},
		all[4].Clone(),
	}
	var offered []string
	carried, dropped := st.Rebase(GCPolicy{}, seeds, func(sc *schedule.Schedule) *schedule.Schedule {
		offered = append(offered, sc.Key())
		if sc.Key() == all[7].Key() {
			return nil
		}
		c := sc.Clone()
		c.Assignments[0].Power = 0.5
		return c
	})

	// Recent (age ≤ 2): columns 2 (9), 4 (8), 5 (10), 7 (9), 8 (10),
	// 10 (8), 11 (9). Column 4 duplicates a seed, column 7 fails.
	if len(offered) != 7 {
		t.Errorf("carry saw %d columns, want the 7 recent ones", len(offered))
	}
	if carried != 5 || dropped != 5 {
		t.Errorf("carried %d, dropped %d; want 5 and 5", carried, dropped)
	}
	want := []*schedule.Schedule{seeds[0], seeds[1], all[2], all[5], all[8], all[10], all[11]}
	wantStamps := []int{10, 10, 9, 10, 10, 8, 9}
	if st.Pool().Len() != len(want) || st.seedLen != 2 {
		t.Fatalf("pool %d (seedLen %d), want %d (2)", st.Pool().Len(), st.seedLen, len(want))
	}
	for j, sc := range want {
		if st.Pool().At(j).Key() != sc.Key() {
			t.Errorf("pool column %d is %v, want %v", j, st.Pool().At(j), sc)
		}
		if j >= 2 && st.Pool().At(j).Assignments[0].Power != 0.5 {
			t.Errorf("pool column %d was not replaced by its carried form", j)
		}
	}
	for j, w := range wantStamps {
		if st.lastBasic[j] != w {
			t.Errorf("stamp of column %d is %d, want %d", j, st.lastBasic[j], w)
		}
	}
	if st.warmBasis != nil || st.prob != nil || st.solver != nil || st.cols != 0 {
		t.Error("master or warm basis survived the rebase")
	}
	if st.lastDuals != nil || st.stabCenter != nil {
		t.Error("duals or stabilization center survived the rebase")
	}
	if st.probeCache == nil || st.probeCache == cache {
		t.Error("probe cache not replaced")
	}
	if st.runs != 10 || st.stats.Rounds != 42 {
		t.Errorf("runs %d, rounds %d: the counters must carry on", st.runs, st.stats.Rounds)
	}
}

// TestStateRebaseMoreSeeds: the re-derived seed set may outgrow the old
// pool (a link that was unservable when the state was seeded recovers).
func TestStateRebaseMoreSeeds(t *testing.T) {
	all := twoLinkSchedules(6)
	st := NewState(false)
	st.Seed(all[:2])
	carried, dropped := st.Rebase(GCPolicy{}, all, func(sc *schedule.Schedule) *schedule.Schedule { return sc })
	if carried != 0 || dropped != 0 || st.Pool().Len() != 6 || st.seedLen != 6 || len(st.lastBasic) != 6 {
		t.Fatalf("carried %d, dropped %d, pool %d, seedLen %d, stamps %d; want 0, 0, 6, 6, 6",
			carried, dropped, st.Pool().Len(), st.seedLen, len(st.lastBasic))
	}
}
