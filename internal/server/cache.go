package server

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"perseus/internal/grid"
	"perseus/internal/obs"
)

// PlanKey identifies one cacheable planning problem: the plan-input
// generation (Epoch — bumped on signal re-install and forecast
// revision), the content hash of the frontier the plan is solved over
// (re-characterization changes it), and the request parameters. Every
// field is value-typed, so keys compare and hash as map keys.
type PlanKey struct {
	Epoch     int
	Table     uint64
	Target    float64
	Deadline  float64
	Objective grid.Objective
	Scale     int
}

// Canonical renders the key as a stable string — the input the plan
// ETag is hashed from. Not used on the cache's hot path, which keys
// its maps by the struct directly.
func (k PlanKey) Canonical() string {
	return fmt.Sprintf("e%d.t%016x.i%s.d%s.o%s.s%d",
		k.Epoch, k.Table,
		strconv.FormatFloat(k.Target, 'g', -1, 64),
		strconv.FormatFloat(k.Deadline, 'g', -1, 64),
		k.Objective, k.Scale)
}

// cacheEntry is one in-flight solve. done closes when the plan (or
// error) is ready; followers wait on it instead of solving —
// single-flight de-duplication.
type cacheEntry struct {
	done chan struct{}
	plan *grid.Plan
	err  error
}

// maxPlanCacheEntries bounds the plan store between epochs: a client
// sweeping distinct parameters would otherwise grow it without limit
// until the next signal or forecast install. At the cap the whole
// store is flushed (epoch-style) rather than tracking per-entry
// recency — the hot pattern the cache exists for is many identical
// requests, and a rare flush only costs those one re-solve each.
const maxPlanCacheEntries = 1024

// planCache memoizes plan solves: a single-flight layer (the inflight
// map) in front of the plans map holding completed plans, both under
// mu. Entries never expire by time: a key embeds the epoch and
// frontier hash, so every input change makes a fresh key, clear()
// drops the dead generation wholesale, and the size cap flushes
// parameter sweeps.
type planCache struct {
	mu       sync.Mutex
	inflight map[PlanKey]*cacheEntry
	plans    map[PlanKey]*grid.Plan
	// gen counts clear() calls; a flight that started before a clear
	// must not store its (now stale-generation) plan.
	gen       int64
	hits      int64
	misses    int64
	coalesced int64 // hits that waited on an in-flight solve
	evictions int64 // entries dropped by cap flushes and clear()
	obs       *serverObs
}

// newPlanCache returns an empty cache, mirroring its counters into o
// (nil skips the mirroring — direct unit tests construct bare caches).
func newPlanCache(o *serverObs) *planCache {
	return &planCache{
		inflight: map[PlanKey]*cacheEntry{},
		plans:    map[PlanKey]*grid.Plan{},
		obs:      o,
	}
}

// entriesLocked counts resident entries: completed plans plus
// in-flight solves. Callers hold c.mu.
func (c *planCache) entriesLocked() int {
	return len(c.plans) + len(c.inflight)
}

// syncObsLocked pushes the counter state into the metric registry.
// Callers hold c.mu.
func (c *planCache) syncObsLocked() {
	if c.obs == nil {
		return
	}
	c.obs.cacheEntries.Set(float64(c.entriesLocked()))
}

// do returns the cached plan for key, or runs solve exactly once per
// key no matter how many callers arrive concurrently. Errors are not
// cached: the failed flight leaves no entry, so a later identical
// request retries. When ctx carries an active trace span, the lookup
// records a "cache.lookup" child span with hit/coalesced attrs; a
// miss's solve runs under that span's context, so the planner's own
// span nests below the lookup. Untraced callers pay a nil check.
func (c *planCache) do(ctx context.Context, key PlanKey, solve func(context.Context) (*grid.Plan, error)) (*grid.Plan, error) {
	ctx, sp := obs.Child(ctx, spanCacheLookup)
	c.mu.Lock()
	if e, ok := c.inflight[key]; ok {
		// A coalesced follower: it parks on done instead of solving —
		// the single-flight half of the cache's value, counted
		// separately from plain hits.
		c.hits++
		c.coalesced++
		if c.obs != nil {
			c.obs.cacheHits.Inc()
			c.obs.cacheCoalesced.Inc()
		}
		c.mu.Unlock()
		sp.SetAttr("hit", "true")
		sp.SetAttr("coalesced", "true")
		<-e.done
		sp.Fail(e.err)
		sp.End()
		return e.plan, e.err
	}
	if p, ok := c.plans[key]; ok {
		c.hits++
		if c.obs != nil {
			c.obs.cacheHits.Inc()
		}
		c.mu.Unlock()
		sp.SetAttr("hit", "true")
		sp.SetAttr("coalesced", "false")
		sp.End()
		return p, nil
	}
	if n := len(c.plans); n >= maxPlanCacheEntries {
		c.evictions += int64(n)
		if c.obs != nil {
			c.obs.cacheEvictions.Add(float64(n))
		}
		c.plans = map[PlanKey]*grid.Plan{}
	}
	e := &cacheEntry{done: make(chan struct{})}
	c.inflight[key] = e
	gen := c.gen
	c.misses++
	if c.obs != nil {
		c.obs.cacheMisses.Inc()
	}
	c.syncObsLocked()
	c.mu.Unlock()
	sp.SetAttr("hit", "false")
	sp.SetAttr("coalesced", "false")
	defer sp.End()

	e.plan, e.err = solve(ctx)
	sp.Fail(e.err)
	c.mu.Lock()
	// Only this flight owns the key (clear() may have dropped the
	// whole inflight map already — leave a fresh flight's entry alone).
	if c.inflight[key] == e {
		delete(c.inflight, key)
	}
	// A plan solved against inputs that were cleared mid-flight stays
	// out of plans: its followers still get it, but the store only
	// ever holds plans of a live generation.
	if e.err == nil && gen == c.gen {
		c.plans[key] = e.plan
	}
	c.syncObsLocked()
	c.mu.Unlock()
	close(e.done)
	return e.plan, e.err
}

// clear drops every entry (the plan inputs changed). The drop counts
// as eviction: an epoch bump invalidates the whole resident
// generation. In-flight solves are orphaned — they resolve their
// followers but are never stored.
func (c *planCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := c.entriesLocked()
	c.evictions += int64(dropped)
	if c.obs != nil {
		c.obs.cacheEvictions.Add(float64(dropped))
	}
	c.plans = map[PlanKey]*grid.Plan{}
	c.inflight = map[PlanKey]*cacheEntry{}
	c.gen++
	c.syncObsLocked()
}

// CacheStats reports the plan cache's cumulative counters and current
// size. Coalesced counts the subset of hits that waited on an
// in-flight solve; evictions counts entries dropped by epoch
// invalidation and size-cap flushes; entries counts stored plans plus
// in-flight solves.
type CacheStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
}

// CacheStats returns the plan cache counters (test and ops hook; also
// reported by GET /controller).
func (s *Server) CacheStats() CacheStats {
	c := s.cache
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses,
		Coalesced: c.coalesced, Evictions: c.evictions,
		Entries: c.entriesLocked(),
	}
}
