package api

import (
	"context"
	"encoding/json"
	"testing"

	"mmwave/internal/core"
	"mmwave/internal/experiment"
	"mmwave/internal/host"
	"mmwave/internal/pnc"
	"mmwave/internal/stats"
	"mmwave/internal/video"
)

// shedEpochJSON runs one pnc epoch whose budget forces shedding into
// class 0 and returns the v1 wire form of its result, field by field.
func shedEpochJSON(t *testing.T, demands []video.Demand) map[string]json.RawMessage {
	t.Helper()
	cfg := experiment.DefaultConfig()
	cfg.NumLinks = len(demands)
	cfg.NumChannels = 2
	inst, err := experiment.NewInstance(cfg, stats.Fork(11, 0))
	if err != nil {
		t.Fatal(err)
	}
	nw := inst.Network
	nw.NumTrafficClasses = demands[0].NumClasses()

	s, err := core.NewSolver(nw, demands, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	c, err := pnc.NewCoordinator(nw, nil, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.Policy = pnc.DegradePolicy{EpochBudget: full.Plan.Objective / 4}
	for l, d := range demands {
		frame, err := pnc.DemandReport{Link: uint16(l), Demand: d}.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ingest(frame); err != nil {
			t.Fatal(err)
		}
	}
	res, err := c.RunEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Fatal("quarter-budget epoch did not shed")
	}
	rep := ReportFromHost(&host.EpochReport{Result: res, Plan: res.Plan})
	data, err := json.Marshal(rep.Result)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	return fields
}

// TestShedWireFields pins the v1 JSON of a shed epoch: shed_hp_bits is
// class 0's shed, shed_lp_bits the sum over every lower class, and
// shed_by_class appears only for cells wider than two classes.
func TestShedWireFields(t *testing.T) {
	cases := []struct {
		name    string
		demands []video.Demand
		want    map[string]string
	}{
		{
			name:    "two-class",
			demands: []video.Demand{{4e6, 2e6}, {3e6, 1e6}, {5e6, 2e6}, {2e6, 1e6}},
			want: map[string]string{
				"shed_hp_bits": "9099999.999999998",
				"shed_lp_bits": "6000000",
			},
		},
		{
			name:    "three-class",
			demands: []video.Demand{{2e6, 2e6, 1e6}, {1e6, 2e6, 1e6}, {2e6, 3e6, 1e6}, {1e6, 1e6, 1e6}},
			want: map[string]string{
				"shed_hp_bits":  "1500000",
				"shed_lp_bits":  "12000000",
				"shed_by_class": "[1500000,8000000,4000000]",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fields := shedEpochJSON(t, tc.demands)
			for _, key := range []string{"shed_hp_bits", "shed_lp_bits", "shed_by_class"} {
				got, ok := fields[key]
				want, wantOK := tc.want[key]
				if ok != wantOK || string(got) != want {
					t.Errorf("%s = %s (present %v), want %s (present %v)", key, got, ok, want, wantOK)
				}
			}
		})
	}
}
