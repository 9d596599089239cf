package pncd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mmwave/internal/api"
	"mmwave/internal/core"
	"mmwave/internal/experiment"
	"mmwave/internal/faults"
	"mmwave/internal/host"
	"mmwave/internal/netmodel"
	"mmwave/internal/stats"
)

// testNetwork draws a small deterministic instance; calling it twice
// with the same seed yields two structurally identical networks that
// share no memory.
func testNetwork(t *testing.T, seed int64) *netmodel.Network {
	t.Helper()
	cfg := experiment.DefaultConfig()
	cfg.NumLinks = 5
	cfg.NumChannels = 2
	inst, err := experiment.NewInstance(cfg, stats.Fork(seed, 0))
	if err != nil {
		t.Fatal(err)
	}
	return inst.Network
}

func testLoad(t *testing.T, links int, seed int64) *faults.LoadGen {
	t.Helper()
	gen, err := faults.NewLoadGen(faults.LoadConfig{
		Links:      links,
		MeanHPBits: 2e6,
		MeanLPBits: 6e6,
		Jitter:     0.3,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

func newTestServer(t *testing.T, cfg Config) (*Server, *api.Client) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	return srv, api.NewClient(hs.URL, hs.Client())
}

func demandsFor(gen *faults.LoadGen, cell int, epoch int64) []api.Demand {
	var out []api.Demand
	for l, d := range gen.Demands(cell, epoch) {
		out = append(out, api.DemandFromModel(l, d))
	}
	return out
}

func framesFor(t *testing.T, demands []api.Demand) [][]byte {
	t.Helper()
	frames := make([][]byte, len(demands))
	for i, d := range demands {
		f, err := d.Frame()
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = f
	}
	return frames
}

func planJSON(t *testing.T, p api.Plan) []byte {
	t.Helper()
	b, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestByteIdentityVsInProcess proves the tentpole property: a
// submit→step→fetch-plan cycle over HTTP produces byte-identical
// plans to the same epochs run in-process against internal/host,
// including across a mid-run CSI update.
func TestByteIdentityVsInProcess(t *testing.T) {
	const seed, epochs = 11, 6
	ctx := context.Background()

	// Over-HTTP cell: explicit wire network.
	nwWire := testNetwork(t, seed)
	_, client := newTestServer(t, Config{})
	wire := api.NetworkFromModel(nwWire)
	st, err := client.CreateCell(ctx, api.CellSpec{Network: &wire})
	if err != nil {
		t.Fatal(err)
	}

	// In-process reference: an independent but identical draw.
	nwRef := testNetwork(t, seed)
	ref := host.New()
	refCell, err := ref.Admit(host.NewSpec(nwRef))
	if err != nil {
		t.Fatal(err)
	}

	gen := testLoad(t, nwRef.NumLinks(), 99)
	// A genuine CSI change at epoch 3: bump link 2's direct gains.
	csiEpoch := int64(3)
	newGains := append([]float64(nil), nwRef.Gains.Direct[2]...)
	for k := range newGains {
		newGains[k] *= 1.25
	}

	for ep := int64(0); ep < epochs; ep++ {
		demands := demandsFor(gen, 0, ep)
		frames := framesFor(t, demands)
		if _, err := client.SubmitDemands(ctx, st.Cell, demands); err != nil {
			t.Fatal(err)
		}
		if ep == csiEpoch {
			csi := []api.CSI{{Link: 2, Gains: newGains}}
			if _, err := client.SubmitCSI(ctx, st.Cell, csi); err != nil {
				t.Fatal(err)
			}
			f, err := csi[0].Frame()
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, f)
		}
		httpRep, err := client.StepCell(ctx, st.Cell)
		if err != nil {
			t.Fatal(err)
		}
		refRep := ref.Step(ctx, refCell, func(*host.Cell, int64) [][]byte { return frames })
		if refRep.Outcome != host.OutcomeOK {
			t.Fatalf("epoch %d: reference outcome %v (%v)", ep, refRep.Outcome, refRep.Err)
		}
		if httpRep.Outcome != "ok" {
			t.Fatalf("epoch %d: http outcome %q (%s)", ep, httpRep.Outcome, httpRep.Error)
		}
		want := planJSON(t, api.PlanFromModel(refRep.Plan))
		got := planJSON(t, httpRep.Plan)
		if !bytes.Equal(want, got) {
			t.Fatalf("epoch %d: plan diverged over HTTP\nref:  %s\nhttp: %s", ep, want, got)
		}
		// The fetch-plan path must serve the same bytes the step
		// reported, fresh (age 0).
		pr, err := client.Plan(ctx, st.Cell)
		if err != nil {
			t.Fatal(err)
		}
		if pr.PlanAge != 0 {
			t.Fatalf("epoch %d: fresh plan has age %d", ep, pr.PlanAge)
		}
		if fetched := planJSON(t, pr.Plan); !bytes.Equal(want, fetched) {
			t.Fatalf("epoch %d: fetched plan diverged\nref:     %s\nfetched: %s", ep, want, fetched)
		}
	}
}

// TestKillRestore proves the acceptance criterion: a restarted pncd
// recovers every cell from its checkpoints byte-identically — the
// post-restart epochs match an uninterrupted reference server exactly.
func TestKillRestore(t *testing.T) {
	const cells, preEpochs, postEpochs = 3, 3, 3
	ctx := context.Background()
	stateDir := t.TempDir()

	createAll := func(client *api.Client) []int {
		t.Helper()
		ids := make([]int, cells)
		for i := 0; i < cells; i++ {
			nw := api.NetworkFromModel(testNetwork(t, int64(20+i)))
			st, err := client.CreateCell(ctx, api.CellSpec{Network: &nw})
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = st.Cell
		}
		return ids
	}
	gen := testLoad(t, 5, 7)
	stepAll := func(client *api.Client, ids []int, ep int64) []api.EpochReport {
		t.Helper()
		for _, id := range ids {
			if _, err := client.SubmitDemands(ctx, id, demandsFor(gen, id, ep)); err != nil {
				t.Fatal(err)
			}
		}
		reps, err := client.StepAll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return reps
	}

	// Reference: never restarted, in-memory.
	_, refClient := newTestServer(t, Config{})
	refIDs := createAll(refClient)

	// System under test: persistent, killed after preEpochs.
	srvA, err := New(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	hsA := httptest.NewServer(srvA.Handler())
	clientA := api.NewClient(hsA.URL, hsA.Client())
	idsA := createAll(clientA)

	for ep := int64(0); ep < preEpochs; ep++ {
		stepAll(refClient, refIDs, ep)
		stepAll(clientA, idsA, ep)
	}
	// Kill: no drain, no goodbye — the process is gone. Only the
	// state directory survives.
	hsA.Close()
	srvA.Close()

	// Restart against the same state directory.
	srvB, err := New(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	hsB := httptest.NewServer(srvB.Handler())
	defer func() { hsB.Close(); srvB.Close() }()
	clientB := api.NewClient(hsB.URL, hsB.Client())

	status, err := clientB.Cells(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(status) != cells {
		t.Fatalf("recovered %d cells, want %d", len(status), cells)
	}
	for _, st := range status {
		if !st.Restored {
			t.Fatalf("cell %d not restored from checkpoint", st.Cell)
		}
		if st.Epoch != preEpochs {
			t.Fatalf("cell %d resumed at epoch %d, want %d", st.Cell, st.Epoch, preEpochs)
		}
	}
	// The recovered last-known-good plan must match the reference's.
	for i, id := range idsA {
		got, err := clientB.Plan(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refClient.Plan(ctx, refIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(planJSON(t, got.Plan), planJSON(t, want.Plan)) {
			t.Fatalf("cell %d: recovered plan differs from uninterrupted reference", id)
		}
	}
	// Post-restart epochs stay byte-identical: warm state (demands,
	// last-known-good, control accounting) survived the kill.
	for ep := int64(preEpochs); ep < preEpochs+postEpochs; ep++ {
		wantReps := stepAll(refClient, refIDs, ep)
		gotReps := stepAll(clientB, idsA, ep)
		if len(wantReps) != len(gotReps) {
			t.Fatalf("epoch %d: %d reports vs %d", ep, len(gotReps), len(wantReps))
		}
		for i := range wantReps {
			want := planJSON(t, wantReps[i].Plan)
			got := planJSON(t, gotReps[i].Plan)
			if !bytes.Equal(want, got) {
				t.Fatalf("epoch %d cell %d: post-restore plan diverged", ep, gotReps[i].Cell)
			}
		}
	}

	// The multi-cell workload must expose all three metric families.
	text, err := clientB.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"host_epochs_total", "host_restores_total", "pnc_", "cg_"} {
		if !strings.Contains(text, series) {
			t.Errorf("/metrics missing %q", series)
		}
	}
}

// TestErrorMapping checks the wire error contract: stable codes,
// statuses, and errors.Is across the HTTP boundary.
func TestErrorMapping(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, Config{MaxCells: 1})

	// Unknown cell → not-found.
	_, err := client.Plan(ctx, 404)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("unknown cell: got %v, want not-found", err)
	}

	// Malformed spec → bad-request.
	_, err = client.CreateCell(ctx, api.CellSpec{})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
		t.Fatalf("empty spec: got %v, want bad-request", err)
	}

	// Admission limit → admission-refused, errors.Is-able against the
	// host sentinel even though the error crossed the wire.
	nw := api.NetworkFromModel(testNetwork(t, 31))
	if _, err := client.CreateCell(ctx, api.CellSpec{Network: &nw}); err != nil {
		t.Fatal(err)
	}
	nw2 := api.NetworkFromModel(testNetwork(t, 32))
	_, err = client.CreateCell(ctx, api.CellSpec{Network: &nw2})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeAdmission {
		t.Fatalf("over-capacity: got %v, want admission-refused", err)
	}
	if !errors.Is(err, host.ErrAdmission) {
		t.Fatalf("wire error does not unwrap to host.ErrAdmission: %v", err)
	}

	// No plan yet → not-found on the plan endpoint.
	cellsList, err := client.Cells(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Plan(ctx, cellsList[0].Cell)
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("plan before first step: got %v, want not-found", err)
	}
}

// TestCodeTaxonomyRoundTrip pins the code↔sentinel↔status mapping.
func TestCodeTaxonomyRoundTrip(t *testing.T) {
	cases := []struct {
		sentinel error
		code     api.Code
		status   int
	}{
		{host.ErrAdmission, api.CodeAdmission, 429},
		{core.ErrUnservable, api.CodeUnservable, 422},
		{core.ErrInfeasible, api.CodeInfeasible, 422},
		{core.ErrBudgetExceeded, api.CodeBudgetExceeded, 504},
	}
	for _, tc := range cases {
		if got := api.CodeForError(tc.sentinel); got != tc.code {
			t.Errorf("CodeForError(%v) = %q, want %q", tc.sentinel, got, tc.code)
		}
		if got := tc.code.HTTPStatus(); got != tc.status {
			t.Errorf("%q status = %d, want %d", tc.code, got, tc.status)
		}
		wireErr := &api.Error{Code: tc.code, Message: "x"}
		if !errors.Is(wireErr, tc.sentinel) {
			t.Errorf("wire %q does not errors.Is(%v)", tc.code, tc.sentinel)
		}
	}
}

// TestDrain checks drain semantics: health flips, mutating endpoints
// refuse with the draining code, reads keep working.
func TestDrain(t *testing.T) {
	ctx := context.Background()
	srv, client := newTestServer(t, Config{})
	nw := api.NetworkFromModel(testNetwork(t, 41))
	st, err := client.CreateCell(ctx, api.CellSpec{Network: &nw})
	if err != nil {
		t.Fatal(err)
	}
	gen := testLoad(t, 5, 1)
	if _, err := client.SubmitDemands(ctx, st.Cell, demandsFor(gen, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.StepCell(ctx, st.Cell); err != nil {
		t.Fatal(err)
	}

	dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		t.Fatal(err)
	}

	h, err := client.Health(ctx)
	if err != nil || h.Status != "draining" {
		t.Fatalf("health during drain: %+v, %v", h, err)
	}
	var apiErr *api.Error
	_, err = client.StepCell(ctx, st.Cell)
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeDraining {
		t.Fatalf("step during drain: got %v, want draining", err)
	}
	_, err = client.CreateCell(ctx, api.CellSpec{Network: &nw})
	if !errors.As(err, &apiErr) || apiErr.Code != api.CodeDraining {
		t.Fatalf("create during drain: got %v, want draining", err)
	}
	// Reads still serve: the plan survives the drain.
	if _, err := client.Plan(ctx, st.Cell); err != nil {
		t.Fatalf("plan during drain: %v", err)
	}
}

// TestReportsAndStream covers retention queries and the JSONL follow
// stream.
func TestReportsAndStream(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, Config{})
	nw := api.NetworkFromModel(testNetwork(t, 51))
	st, err := client.CreateCell(ctx, api.CellSpec{Network: &nw})
	if err != nil {
		t.Fatal(err)
	}
	gen := testLoad(t, 5, 2)
	const epochs = 4
	for ep := int64(0); ep < epochs; ep++ {
		if _, err := client.SubmitDemands(ctx, st.Cell, demandsFor(gen, 0, ep)); err != nil {
			t.Fatal(err)
		}
		if _, err := client.StepCell(ctx, st.Cell); err != nil {
			t.Fatal(err)
		}
	}
	reps, err := client.Reports(ctx, st.Cell, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != epochs {
		t.Fatalf("retained %d reports, want %d", len(reps), epochs)
	}
	// The first epoch runs a cold P1 solve, so its report must surface
	// the column-generation telemetry over the wire.
	if r := reps[0].Result; r == nil {
		t.Fatal("epoch 0 report carries no result")
	} else if r.CGIterations == 0 || r.CGColumnsAdded == 0 {
		t.Fatalf("epoch 0 report missing CG telemetry: %+v", r)
	}
	reps, err = client.Reports(ctx, st.Cell, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != epochs-2 {
		t.Fatalf("since=1 returned %d reports, want %d", len(reps), epochs-2)
	}

	// Follow: backlog arrives, then cancel ends the stream cleanly.
	sctx, cancel := context.WithCancel(ctx)
	var streamed []int64
	err = client.StreamReports(sctx, st.Cell, -1, func(rep api.EpochReport) error {
		streamed = append(streamed, rep.Epoch)
		if len(streamed) == epochs {
			cancel()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(streamed) != epochs {
		t.Fatalf("streamed %d reports, want %d", len(streamed), epochs)
	}
	for i, ep := range streamed {
		if ep != int64(i) {
			t.Fatalf("stream out of order: %v", streamed)
		}
	}
}

// TestInstanceDraw covers server-side instance creation: the drawn
// cell is steppable immediately (the draw's demands are queued) and
// identical seeds draw identical cells.
func TestInstanceDraw(t *testing.T) {
	ctx := context.Background()
	_, client := newTestServer(t, Config{})
	mk := func() api.EpochReport {
		t.Helper()
		st, err := client.CreateCell(ctx, api.CellSpec{
			Instance: &api.Instance{Links: 4, Channels: 2, Seed: 9},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := client.StepCell(ctx, st.Cell)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := mk(), mk()
	if a.Outcome != "ok" || b.Outcome != "ok" {
		t.Fatalf("instance cells failed: %q %q", a.Outcome, b.Outcome)
	}
	if !bytes.Equal(planJSON(t, a.Plan), planJSON(t, b.Plan)) {
		t.Fatal("identical seeds drew different cells")
	}
	if a.Plan.Objective <= 0 {
		t.Fatal("drawn instance produced an empty plan")
	}
}

// TestEvict covers deletion: the slot tombstones, the ID is not
// reused, and state files disappear.
func TestEvict(t *testing.T) {
	ctx := context.Background()
	stateDir := t.TempDir()
	srv, client := newTestServer(t, Config{StateDir: stateDir})
	nw := api.NetworkFromModel(testNetwork(t, 61))
	st1, err := client.CreateCell(ctx, api.CellSpec{Network: &nw})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.DeleteCell(ctx, st1.Cell); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Cell(ctx, st1.Cell); err == nil {
		t.Fatal("deleted cell still resolves")
	}
	nw2 := api.NetworkFromModel(testNetwork(t, 62))
	st2, err := client.CreateCell(ctx, api.CellSpec{Network: &nw2})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Cell == st1.Cell {
		t.Fatalf("cell ID %d was reused after eviction", st1.Cell)
	}
	// Restart must recover only the live cell.
	srv.Close()
	srvB, err := New(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	hsB := httptest.NewServer(srvB.Handler())
	defer hsB.Close()
	cellsList, err := api.NewClient(hsB.URL, hsB.Client()).Cells(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(cellsList) != 1 || cellsList[0].Cell != st2.Cell {
		t.Fatalf("recovered %+v, want only cell %d", cellsList, st2.Cell)
	}
}

// TestCreatePersistFailureLeavesNoTemp: when the spec record cannot be
// renamed into place (here cell0.spec.json is a non-empty directory),
// create fails and the state directory holds nothing it did not hold
// before — no stray temp file.
func TestCreatePersistFailureLeavesNoTemp(t *testing.T) {
	ctx := context.Background()
	stateDir := t.TempDir()
	_, client := newTestServer(t, Config{StateDir: stateDir})
	blocker := filepath.Join(stateDir, "cell0.spec.json")
	if err := os.MkdirAll(filepath.Join(blocker, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	nw := api.NetworkFromModel(testNetwork(t, 63))
	if _, err := client.CreateCell(ctx, api.CellSpec{Network: &nw}); err == nil {
		t.Fatal("create succeeded although its spec record could not be written")
	}
	entries, err := os.ReadDir(stateDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "cell0.spec.json" {
			t.Errorf("state directory holds %s after the failed create", e.Name())
		}
	}
}
