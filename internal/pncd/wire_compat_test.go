package pncd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mmwave/internal/api"
)

// postJSON POSTs a raw body and decodes a non-2xx reply into its wire
// error.
func postJSON(t *testing.T, url string, body []byte) error {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return api.DecodeError(resp)
	}
	return nil
}

// TestOversizedBodyBadRequest sends otherwise valid create, demand and
// CSI bodies padded with leading whitespace. Padding that keeps the
// body under maxBodyBytes is accepted; padding past it is refused with
// a typed bad-request error, and the refused create admits no cell.
func TestOversizedBodyBadRequest(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { hs.Close(); srv.Close() })
	client := api.NewClient(hs.URL, hs.Client())

	nwModel := testNetwork(t, 51)
	nw := api.NetworkFromModel(nwModel)
	spec, err := json.Marshal(api.CellSpec{Network: &nw})
	if err != nil {
		t.Fatal(err)
	}
	demands, err := json.Marshal(demandsFor(testLoad(t, nwModel.NumLinks(), 3), 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	csi, err := json.Marshal([]api.CSI{{Link: 1, Gains: nwModel.Gains.Direct[1]}})
	if err != nil {
		t.Fatal(err)
	}

	routes := []struct {
		path string
		body []byte
	}{
		{"/v1/cells", spec},
		{"/v1/cells/0/demands", demands},
		{"/v1/cells/0/csi", csi},
	}
	for _, rt := range routes {
		small := append([]byte(strings.Repeat(" ", 1024)), rt.body...)
		if err := postJSON(t, hs.URL+rt.path, small); err != nil {
			t.Fatalf("%s: padded body under the cap refused: %v", rt.path, err)
		}
		big := append([]byte(strings.Repeat(" ", maxBodyBytes)), rt.body...)
		err := postJSON(t, hs.URL+rt.path, big)
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
			t.Fatalf("%s: oversized body: got %v, want bad-request", rt.path, err)
		}
		if !strings.Contains(apiErr.Message, "too large") {
			t.Errorf("%s: oversized body message %q does not name the cause", rt.path, apiErr.Message)
		}
	}
	cells, err := client.Cells(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 {
		t.Fatalf("%d cells live, want 1 (the oversized create must admit nothing)", len(cells))
	}
}

// TestLegacyPricerWorkersSpec pins wire back-compat for the retired
// solve.pricer_workers field: a v1 CellSpec that still carries it is
// admitted, stepped, persisted and recovered exactly like the same
// spec without it — same plans before and after a kill-restore, the
// same persisted spec file. The legacy run also recovers from a spec
// file that carries the field, as an older server wrote it.
func TestLegacyPricerWorkersSpec(t *testing.T) {
	const preEpochs, postEpochs = 3, 2
	ctx := context.Background()
	nw, err := json.Marshal(api.NetworkFromModel(testNetwork(t, 41)))
	if err != nil {
		t.Fatal(err)
	}

	type trace struct {
		plans [][]byte
		spec  []byte
	}
	run := func(solve string, rewriteSpec bool) trace {
		t.Helper()
		dir := t.TempDir()
		gen := testLoad(t, 5, 13)
		var tr trace
		step := func(client *api.Client, ep int64) {
			t.Helper()
			if _, err := client.SubmitDemands(ctx, 0, demandsFor(gen, 0, ep)); err != nil {
				t.Fatal(err)
			}
			rep, err := client.StepCell(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Outcome != "ok" {
				t.Fatalf("epoch %d: outcome %q (%s)", ep, rep.Outcome, rep.Error)
			}
			tr.plans = append(tr.plans, planJSON(t, rep.Plan))
		}

		srvA, err := New(Config{StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		hsA := httptest.NewServer(srvA.Handler())
		body := []byte(`{"network":` + string(nw) + `,"solve":` + solve + `}`)
		if err := postJSON(t, hsA.URL+"/v1/cells", body); err != nil {
			t.Fatalf("create with solve %s: %v", solve, err)
		}
		clientA := api.NewClient(hsA.URL, hsA.Client())
		for ep := int64(0); ep < preEpochs; ep++ {
			step(clientA, ep)
		}
		hsA.Close()
		srvA.Close()

		specPath := filepath.Join(dir, "cell0.spec.json")
		if tr.spec, err = os.ReadFile(specPath); err != nil {
			t.Fatal(err)
		}
		if rewriteSpec {
			old := tr.spec
			legacy := bytes.Replace(old, []byte(`"solve":{`), []byte(`"solve":{"pricer_workers":4,`), 1)
			if bytes.Equal(legacy, old) {
				t.Fatalf("persisted spec has no solve object to rewrite: %s", old)
			}
			if err := os.WriteFile(specPath, legacy, 0o644); err != nil {
				t.Fatal(err)
			}
		}

		srvB, err := New(Config{StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		hsB := httptest.NewServer(srvB.Handler())
		defer func() { hsB.Close(); srvB.Close() }()
		clientB := api.NewClient(hsB.URL, hsB.Client())
		st, err := clientB.Cell(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Restored || st.Epoch != preEpochs {
			t.Fatalf("recovered cell: restored=%v epoch=%d, want restored at epoch %d", st.Restored, st.Epoch, preEpochs)
		}
		for ep := int64(preEpochs); ep < preEpochs+postEpochs; ep++ {
			step(clientB, ep)
		}
		return tr
	}

	want := run(`{"max_iterations":200}`, false)
	got := run(`{"max_iterations":200,"pricer_workers":4}`, true)
	if !bytes.Equal(got.spec, want.spec) {
		t.Errorf("persisted spec differs:\nlegacy:  %s\ncurrent: %s", got.spec, want.spec)
	}
	for i := range want.plans {
		if !bytes.Equal(got.plans[i], want.plans[i]) {
			t.Fatalf("epoch %d: legacy spec's plan diverged\nlegacy:  %s\ncurrent: %s", i, got.plans[i], want.plans[i])
		}
	}
}
