package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mmwave/internal/cg"
	"mmwave/internal/netmodel"
)

// pricingDuals draws a random positive dual vector pair, scaled so
// that single-link schedules already price above the improvement
// threshold of 1 — the search must then actually explore multi-link
// combinations instead of pruning at the root.
func pricingDuals(rng *rand.Rand, n int) (hp, lp []float64) {
	hp = make([]float64, n)
	lp = make([]float64, n)
	for i := range hp {
		hp[i] = (0.5 + rng.Float64()) * 1e-7
		lp[i] = (0.5 + rng.Float64()) * 1e-7
	}
	return hp, lp
}

// TestPricerWithCacheIdenticalSearch runs the same pricing problem
// twice through one probe cache: the second pass must hit the cache,
// report the SAME probe count (hits still count against the budget, so
// the explored tree is identical) and the same optimal value. Small
// random instances often prune at the root without probing, so the
// test scans seeds and asserts over the instances that searched.
func TestPricerWithCacheIdenticalSearch(t *testing.T) {
	searched := 0
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nw := servableNetwork(rng, 6, 2)
		hp := make([]float64, 6)
		lp := make([]float64, 6)
		for i := range hp {
			hp[i] = rng.Float64() * 2e-8
			lp[i] = rng.Float64() * 2e-8
		}

		plain := NewBranchBoundPricer(200000)
		want, err := plain.Price(nw, [][]float64{hp, lp})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		cached := NewBranchBoundPricer(200000)
		cache := netmodel.NewProbeCache()
		first, err := cached.PriceWithCache(context.Background(), nw, [][]float64{hp, lp}, cache)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		second, err := cached.PriceWithCache(context.Background(), nw, [][]float64{hp, lp}, cache)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		if first.Value != want.Value || second.Value != want.Value {
			t.Errorf("seed %d: values %g/%g with cache, want %g", seed, first.Value, second.Value, want.Value)
		}
		if first.Probes != want.Probes || second.Probes != first.Probes {
			t.Errorf("seed %d: probes %d (plain) / %d (cold) / %d (warm) — must be identical",
				seed, want.Probes, first.Probes, second.Probes)
		}
		if second.CacheHits > second.Probes {
			t.Errorf("seed %d: CacheHits %d > Probes %d", seed, second.CacheHits, second.Probes)
		}
		if first.Probes > 0 && second.CacheHits > 0 {
			searched++
		}
	}
	if searched < 2 {
		t.Fatalf("only %d/12 instances exercised the cache — test lost its teeth", searched)
	}
}

// TestPooledPricerConcurrentRace hammers one shared BranchBoundPricer
// from many goroutines, so the sync.Pool of pricer states (and their
// probe solvers and leaf pools) is churned under maximum contention.
// Run under `go test -race` this is the pooled solver's race test; in
// any mode every concurrent result must equal the result of a fresh
// pricer.
func TestPooledPricerConcurrentRace(t *testing.T) {
	const goroutines = 8
	type instance struct {
		nw     *netmodel.Network
		hp, lp []float64
		want   *cg.PriceResult
	}
	rng := rand.New(rand.NewSource(37))
	insts := make([]instance, goroutines)
	pooled := 0
	for i := range insts {
		nw := servableNetwork(rng, 7, 2)
		nw.MultiChannel = i%2 == 1
		hp, lp := pricingDuals(rng, 7)
		ref := NewBranchBoundPricer(500000)
		ref.PoolLeaves = 8
		want, err := ref.Price(nw, [][]float64{hp, lp})
		if err != nil {
			t.Fatal(err)
		}
		insts[i] = instance{nw: nw, hp: hp, lp: lp, want: want}
		pooled += len(want.Extras)
	}
	// The leaf pools are part of the recycled state; with no pooled
	// leaves the comparison would not exercise them.
	if pooled == 0 {
		t.Fatal("no instance pooled extra leaves — regenerate the test seeds")
	}

	shared := NewBranchBoundPricer(500000)
	shared.PoolLeaves = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := insts[g]
			for rep := 0; rep < 5; rep++ {
				got, err := shared.Price(in.nw, [][]float64{in.hp, in.lp})
				if err != nil {
					errs[g] = err
					return
				}
				if !reflect.DeepEqual(got, in.want) {
					errs[g] = fmt.Errorf("goroutine %d rep %d: result diverged from the fresh-pricer reference", g, rep)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
