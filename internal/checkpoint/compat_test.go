package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"mmwave/internal/cg"
	"mmwave/internal/core"
	"mmwave/internal/faults"
	"mmwave/internal/pnc"
	"mmwave/internal/video"
)

// legacyDuals is the engine dual-vector payload the pre-v6 reference
// writers emit: one made-up price vector per class. Current decoders
// read and discard these slots, so any values do.
var legacyDuals = [][]float64{{0.25, 0.5, 0.75, 1}, {0.125, 0.375, 0.625, 0.875}}

// encodeV3 serializes a two-class snapshot in the version-3 layout:
// fixed HP/LP demand pairs and exactly two engine dual vectors (duals
// must hold zero or two). It is the reference writer for the decoder's
// backward-compatibility path (and the fuzz corpus's v3 seed); a
// snapshot that is not two-class cannot be expressed in it.
func encodeV3(t testing.TB, s *Snapshot, duals [][]float64) []byte {
	t.Helper()
	w := &writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, magic...)
	w.u16(3)
	w.u64(s.Fingerprint)
	encodeCoordV3(t, w, s.Coord, duals)
	if s.Injector != nil {
		w.u8(1)
		encodeInjector(w, s.InjectorCfg, s.Injector)
	} else {
		w.u8(0)
	}
	if s.Plan != nil {
		w.u8(1)
		encodeSchedules(w, s.Plan.Schedules)
		encodeFloats(w, s.Plan.Tau)
		w.f64(s.Plan.Objective)
		w.i64(s.PlanEpoch)
	} else {
		w.u8(0)
	}
	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

func encodeDemandsV3(t testing.TB, w *writer, ds []video.Demand) {
	t.Helper()
	w.u32(uint32(len(ds)))
	for _, d := range ds {
		if d.NumClasses() > 2 {
			t.Fatalf("v3 cannot encode a %d-class demand", d.NumClasses())
		}
		w.f64(d.At(0))
		w.f64(d.At(1))
	}
}

func encodeCoordV3(t testing.TB, w *writer, st *pnc.CoordState, duals [][]float64) {
	t.Helper()
	w.i64(st.Epoch)
	encodeDemandsV3(t, w, st.Demands)
	w.u32(uint32(len(st.Seen)))
	for _, s := range st.Seen {
		w.boolean(s)
	}
	encodeDemandsV3(t, w, st.LastGood)
	w.u32(uint32(len(st.LastAge)))
	for _, a := range st.LastAge {
		w.i64(int64(a))
	}
	w.u32(uint32(len(st.Delayed)))
	for _, f := range st.Delayed {
		w.bytes(f)
	}
	w.i64(st.Retries)
	w.i64(st.LostFrames)
	w.f64(st.BackoffSec)
	w.i64(st.Control.BitsSent)
	w.i64(st.Control.MsgsSent)
	w.f64(st.Control.Airtime)
	w.f64(st.EpochAirStart)
	w.i64(st.EpochMsgStart)
	w.u64(st.SolverFP)
	if st.Solver == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	encodeEngineV3(t, w, st.Solver, duals)
	encodeDemandsV3(t, w, st.SolverDemands)
}

func encodeEngineV3(t testing.TB, w *writer, s *cg.StateSnapshot, duals [][]float64) {
	t.Helper()
	encodeSchedules(w, s.Schedules)
	w.i64(int64(s.SeedLen))
	w.u32(uint32(len(s.WarmBasis)))
	for _, b := range s.WarmBasis {
		w.u8(uint8(b.Kind))
		w.i64(int64(b.Index))
	}
	w.u32(uint32(len(s.LastBasic)))
	for _, v := range s.LastBasic {
		w.i64(int64(v))
	}
	w.i64(int64(s.Runs))
	// v3 wrote exactly two dual vectors, HP then LP (both empty when no
	// run had happened yet).
	var hp, lpd []float64
	switch len(duals) {
	case 0:
	case 2:
		hp, lpd = duals[0], duals[1]
	default:
		t.Fatalf("v3 cannot encode %d dual vectors", len(duals))
	}
	encodeFloats(w, hp)
	encodeFloats(w, lpd)
	for _, v := range []int{
		s.Stats.Rounds, s.Stats.Probes, s.Stats.MasterSolves,
		s.Stats.CacheHits, s.Stats.CacheMisses, s.Stats.PricerNodes,
		s.Stats.LPPivots, s.Stats.LPRefactorizations, s.Stats.LPEtaUpdates,
		s.Stats.WarmMasters, s.Stats.EvictedColumns,
	} {
		w.i64(int64(v))
	}
}

// v3Snapshot builds a realistic two-class snapshot (with solver state,
// injector, and last-known-good plan) plus its v3 image.
func v3Snapshot(t testing.TB) (*Snapshot, []byte) {
	t.Helper()
	nw := testNetwork(t, 31, 4, 2)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, video.TwoClass(2e6, 4e6))
	res, err := coord.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{CtrlLoss: 0.1, CellPanic: 0.05, Seed: 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := Capture(coord, inj)
	s.Plan = &res.Plan
	s.PlanEpoch = 1
	return s, encodeV3(t, s, legacyDuals)
}

// clearAccelState strips the engine state the pre-v5 formats cannot
// express: legacy images decode with zero acceleration counters.
func clearAccelState(s *Snapshot) {
	e := s.Coord.Solver
	if e == nil {
		return
	}
	e.Stats.StabRounds = 0
	e.Stats.HeuristicHits = 0
	e.Stats.ExactFallbacks = 0
	e.Stats.ColumnsAdded = 0
}

// TestDecodeV3Image: a version-3 image must decode to exactly the
// snapshot a current-format round trip of the same state produces —
// the two-class demand pairs land in the class-indexed fields
// unchanged and the HP/LP dual vectors are dropped — modulo the
// acceleration counters v3 never carried.
func TestDecodeV3Image(t *testing.T) {
	s, v3 := v3Snapshot(t)

	cur, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(cur)
	if err != nil {
		t.Fatal(err)
	}
	clearAccelState(want)
	got, err := Decode(v3)
	if err != nil {
		t.Fatalf("v3 image rejected: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v3 decode differs from current round trip:\nv3: %+v\ncur: %+v", got.Coord, want.Coord)
	}

	// Re-encoding the decoded v3 snapshot upgrades it to the current
	// format: byte-identical to the canonical image of the same
	// (zero-counter) state.
	up, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(up, canon) {
		t.Fatal("re-encoded v3 snapshot is not the canonical current-format image")
	}
}

// TestDecodeV3EmptyDuals: a v3 engine block whose dual pair is empty
// (the writer's "no previous run" case) and one carrying real vectors
// must decode to the same snapshot — both pairs are read and dropped.
func TestDecodeV3EmptyDuals(t *testing.T) {
	s, full := v3Snapshot(t)
	if s.Coord.Solver == nil {
		t.Fatal("solved coordinator exported no solver state")
	}
	want, err := Decode(full)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(encodeV3(t, s, nil))
	if err != nil {
		t.Fatalf("v3 image with an empty dual pair rejected: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("empty and full v3 dual pairs decode to different snapshots")
	}
}

// encodeV4 serializes a snapshot in the version-4 layout:
// class-count-aware demands and engine duals (legacyDuals), and only
// the eleven pre-acceleration work counters. It is the reference
// writer for the v4 backward-compatibility path (and the fuzz corpus's
// v4 seed).
func encodeV4(t testing.TB, s *Snapshot) []byte {
	t.Helper()
	w := &writer{buf: make([]byte, 0, 4096)}
	w.buf = append(w.buf, magic...)
	w.u16(4)
	w.u64(s.Fingerprint)
	encodeCoordV4(t, w, s.Coord)
	if s.Injector != nil {
		w.u8(1)
		encodeInjector(w, s.InjectorCfg, s.Injector)
	} else {
		w.u8(0)
	}
	if s.Plan != nil {
		w.u8(1)
		encodeSchedules(w, s.Plan.Schedules)
		encodeFloats(w, s.Plan.Tau)
		w.f64(s.Plan.Objective)
		w.i64(s.PlanEpoch)
	} else {
		w.u8(0)
	}
	w.u32(crc32.ChecksumIEEE(w.buf))
	return w.buf
}

func encodeCoordV4(t testing.TB, w *writer, st *pnc.CoordState) {
	t.Helper()
	w.i64(st.Epoch)
	encodeDemands(w, st.Demands)
	w.u32(uint32(len(st.Seen)))
	for _, s := range st.Seen {
		w.boolean(s)
	}
	encodeDemands(w, st.LastGood)
	w.u32(uint32(len(st.LastAge)))
	for _, a := range st.LastAge {
		w.i64(int64(a))
	}
	w.u32(uint32(len(st.Delayed)))
	for _, f := range st.Delayed {
		w.bytes(f)
	}
	w.i64(st.Retries)
	w.i64(st.LostFrames)
	w.f64(st.BackoffSec)
	w.i64(st.Control.BitsSent)
	w.i64(st.Control.MsgsSent)
	w.f64(st.Control.Airtime)
	w.f64(st.EpochAirStart)
	w.i64(st.EpochMsgStart)
	w.u64(st.SolverFP)
	if st.Solver == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	encodeEngineV4(w, st.Solver)
	encodeDemands(w, st.SolverDemands)
}

func encodeEngineV4(w *writer, s *cg.StateSnapshot) {
	encodeSchedules(w, s.Schedules)
	w.i64(int64(s.SeedLen))
	w.u32(uint32(len(s.WarmBasis)))
	for _, b := range s.WarmBasis {
		w.u8(uint8(b.Kind))
		w.i64(int64(b.Index))
	}
	w.u32(uint32(len(s.LastBasic)))
	for _, v := range s.LastBasic {
		w.i64(int64(v))
	}
	w.i64(int64(s.Runs))
	w.u16(uint16(len(legacyDuals)))
	for _, d := range legacyDuals {
		encodeFloats(w, d)
	}
	for _, v := range []int{
		s.Stats.Rounds, s.Stats.Probes, s.Stats.MasterSolves,
		s.Stats.CacheHits, s.Stats.CacheMisses, s.Stats.PricerNodes,
		s.Stats.LPPivots, s.Stats.LPRefactorizations, s.Stats.LPEtaUpdates,
		s.Stats.WarmMasters, s.Stats.EvictedColumns,
	} {
		w.i64(int64(v))
	}
}

// v4Snapshot builds a realistic snapshot (with solver state, injector,
// and last-known-good plan) plus its v4 image.
func v4Snapshot(t testing.TB) (*Snapshot, []byte) {
	t.Helper()
	nw := testNetwork(t, 41, 4, 2)
	coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	reportAll(t, coord, 4, video.TwoClass(3e6, 5e6))
	res, err := coord.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(faults.Config{CtrlLoss: 0.1, CellPanic: 0.05, Seed: 11}, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := Capture(coord, inj)
	s.Plan = &res.Plan
	s.PlanEpoch = 1
	return s, encodeV4(t, s)
}

// TestDecodeV4Image: a version-4 image must decode to exactly the
// snapshot a current-format round trip produces, modulo the
// acceleration state v4 never carried, and re-encode canonically.
func TestDecodeV4Image(t *testing.T) {
	s, v4 := v4Snapshot(t)

	cur, err := s.Encode()
	if err != nil {
		t.Fatal(err)
	}
	want, err := Decode(cur)
	if err != nil {
		t.Fatal(err)
	}
	clearAccelState(want)
	got, err := Decode(v4)
	if err != nil {
		t.Fatalf("v4 image rejected: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v4 decode differs from current round trip:\nv4: %+v\ncur: %+v", got.Coord, want.Coord)
	}

	up, err := got.Encode()
	if err != nil {
		t.Fatal(err)
	}
	canon, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(up, canon) {
		t.Fatal("re-encoded v4 snapshot is not the canonical current-format image")
	}
}

// v5Fixture is a version-5 image written by the last build whose engine
// kept dual vectors: testNetwork(t, 51, 4, 2) after two epochs (demands
// TwoClass(2e6, 4e6), then TwoClass(2.5e6, 3.5e6)), with a fault
// injector and the second epoch's plan. Its engine block carries
// non-empty last duals and a non-empty stabilization center.
const v5Fixture = "testdata/v5.ckpt"

// TestDecodeV5Fixture: the recorded v5 image decodes (its dual slots
// read and dropped), restores onto its network, and re-solves byte-
// identically to a coordinator restored from the same image upgraded
// to the current format.
func TestDecodeV5Fixture(t *testing.T) {
	data, err := os.ReadFile(v5Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != 5 {
		t.Fatalf("fixture is format version %d, want 5", v)
	}
	old, err := Decode(data)
	if err != nil {
		t.Fatalf("v5 image rejected: %v", err)
	}
	if old.Coord.Solver == nil || old.Plan == nil || old.Injector == nil {
		t.Fatal("v5 image lost its solver state, plan or injector")
	}
	cur, err := old.Encode()
	if err != nil {
		t.Fatal(err)
	}
	up, err := Decode(cur)
	if err != nil {
		t.Fatalf("upgraded image rejected: %v", err)
	}
	if !reflect.DeepEqual(up, old) {
		t.Fatal("upgraded v5 image decodes to a different snapshot")
	}

	nw := testNetwork(t, 51, 4, 2)
	var res [2]*pnc.EpochResult
	var after [2]*pnc.CoordState
	for i, snap := range []*Snapshot{old, up} {
		coord, err := pnc.NewCoordinator(nw, nil, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := snap.Restore(coord); err != nil {
			t.Fatalf("restore %d: %v", i, err)
		}
		reportAll(t, coord, 4, video.TwoClass(3e6, 3e6))
		if res[i], err = coord.RunEpoch(); err != nil {
			t.Fatalf("re-solve %d: %v", i, err)
		}
		after[i] = coord.ExportState()
	}
	a, b := res[0], res[1]
	if !a.WarmSolve || !b.WarmSolve {
		t.Fatal("restored epoch did not warm-start")
	}
	if len(a.Grants) != len(b.Grants) {
		t.Fatalf("%d grants != %d", len(a.Grants), len(b.Grants))
	}
	for i := range a.Grants {
		if !bytes.Equal(a.Grants[i], b.Grants[i]) {
			t.Fatalf("grant %d bytes differ", i)
		}
	}
	if a.Plan.Objective != b.Plan.Objective || len(a.Solver.Iterations) != len(b.Solver.Iterations) ||
		a.Solver.LPPivots != b.Solver.LPPivots {
		t.Fatalf("re-solves differ: objective %v/%v, rounds %d/%d, pivots %d/%d",
			a.Plan.Objective, b.Plan.Objective, len(a.Solver.Iterations), len(b.Solver.Iterations),
			a.Solver.LPPivots, b.Solver.LPPivots)
	}
	if !reflect.DeepEqual(after[0], after[1]) {
		t.Fatal("coordinator state after the re-solve differs")
	}
}
