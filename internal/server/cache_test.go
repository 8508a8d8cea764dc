package server

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"perseus/internal/client"
	"perseus/internal/grid"
)

// TestPlanCacheHitMissInvalidation walks the cache through its
// lifecycle at the server layer: identical requests hit, parameter
// changes miss, and both a signal re-install and a forecast revision
// advance the epoch and drop every cached plan. The frontier-hash
// dimension is covered by two jobs with different tables sharing the
// same request parameters.
func TestPlanCacheHitMissInvalidation(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	// Two jobs with different workloads → different frontier tables.
	a := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	b := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 6, GPU: "A100-PCIe", Unit: 5e-3,
	}, 2)
	if _, err := cl.UploadGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}

	fetch := func(id string, iters float64) grid.Plan {
		t.Helper()
		p, err := cl.FetchGridPlan(id, iters, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	expect := func(hits, misses int64) {
		t.Helper()
		st := srv.CacheStats()
		if st.Hits != hits || st.Misses != misses {
			t.Fatalf("cache stats %+v, want hits %d misses %d", st, hits, misses)
		}
	}

	p1 := fetch(a, 50)
	expect(0, 1)
	p2 := fetch(a, 50) // identical request: hit
	expect(1, 1)
	if math.Abs(p1.CarbonG-p2.CarbonG) > 1e-12 || p1.Iterations != p2.Iterations {
		t.Fatalf("cached plan differs: %v vs %v", p1.CarbonG, p2.CarbonG)
	}
	fetch(a, 60) // different target: miss
	expect(1, 2)
	fetch(b, 50) // same params, different frontier hash: miss
	expect(1, 3)
	fetch(b, 50) // and hits thereafter
	expect(2, 3)

	// A forecast revision advances the epoch: everything re-solves.
	if _, err := cl.InstallForecast("persistence", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if st := srv.CacheStats(); st.Entries != 0 {
		t.Fatalf("forecast revision left %d cache entries", st.Entries)
	}
	fetch(a, 50)
	expect(2, 4)
	fetch(a, 50)
	expect(3, 4)

	// A signal re-install advances the epoch again.
	if _, err := cl.UploadGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}
	if st := srv.CacheStats(); st.Entries != 0 {
		t.Fatalf("signal re-install left %d cache entries", st.Entries)
	}
	fetch(a, 50)
	expect(3, 5)
}

// TestPlanCacheSingleFlight pins the de-duplication contract: any
// number of identical concurrent plan requests solve exactly once.
func TestPlanCacheSingleFlight(t *testing.T) {
	srv := New()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := client.NewServerClient(ts.URL)

	id := registerCharacterized(t, srv, JobRequest{
		Schedule: "1f1b", Stages: 2, Microbatches: 4, GPU: "A100-PCIe", Unit: 5e-3,
	}, 4)
	if _, err := cl.UploadGridSignal(testSignal(), ""); err != nil {
		t.Fatal(err)
	}

	const workers = 16
	var wg sync.WaitGroup
	var carbon [workers]float64
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p, err := cl.FetchGridPlan(id, 80, 0, "")
			if err != nil {
				failed.Store(true)
				return
			}
			carbon[w] = p.CarbonG
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		t.Fatal("concurrent plan fetch failed")
	}
	st := srv.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("identical concurrent requests solved %d times, want 1", st.Misses)
	}
	if st.Hits != workers-1 {
		t.Fatalf("hits %d, want %d", st.Hits, workers-1)
	}
	for w := 1; w < workers; w++ {
		if carbon[w] != carbon[0] {
			t.Fatalf("worker %d saw a different plan: %v vs %v", w, carbon[w], carbon[0])
		}
	}
}

// TestPlanCacheErrorNotCached pins the retry rule: a failed solve is
// not memoized — the next identical request runs the solver again.
func TestPlanCacheErrorNotCached(t *testing.T) {
	c := newPlanCache(nil)
	ctx := context.Background()
	key := PlanKey{Epoch: 1, Table: 42, Target: 10}
	calls := 0
	solve := func(context.Context) (*grid.Plan, error) {
		calls++
		if calls == 1 {
			return nil, fmt.Errorf("transient")
		}
		return &grid.Plan{Target: 10}, nil
	}
	if _, err := c.do(ctx, key, solve); err == nil {
		t.Fatal("first solve should fail")
	}
	p, err := c.do(ctx, key, solve)
	if err != nil || p == nil || p.Target != 10 {
		t.Fatalf("retry after error: %v, %v", p, err)
	}
	if calls != 2 {
		t.Fatalf("solver ran %d times, want 2", calls)
	}
	if _, err := c.do(ctx, key, solve); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("success was not cached: %d calls", calls)
	}
}

// TestPlanKeyCanonicalDistinct pins the ETag input: distinct problems
// must canonicalize distinctly.
func TestPlanKeyCanonicalDistinct(t *testing.T) {
	a := PlanKey{Epoch: 1, Table: 42, Target: 10, Objective: grid.ObjectiveCarbon, Scale: 1}
	b := a
	b.Target = 20
	if a.Canonical() == b.Canonical() {
		t.Fatalf("distinct keys share canonical form %q", a.Canonical())
	}
}
