package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"perseus/internal/dag"
	"perseus/internal/fleet"
	"perseus/internal/frontier"
	"perseus/internal/grid"
	"perseus/internal/profile"
	"perseus/internal/region"
	"perseus/internal/sched"
)

// lookupsPerTable is how many T' lookups frontier.lookup_ns averages
// over per table.
const lookupsPerTable = 20000

// allocateCalls is how many fleet.Allocate calls fleet.allocate_s
// averages over.
const allocateCalls = 20

// regionJobs is how many of a workload's distinct shapes, those with
// the fewest frontier points, the region.Optimize replay places;
// regionReplays is how many of the placement workload's requests for
// the run's seed it asks.
const (
	regionJobs    = 3
	regionReplays = 5
)

// plannerReplay is what a traced run's replay asks grid.Optimize of
// every distinct shape: the signal, the deadline, and the target as a
// share of the iterations the shape's Tmin fits by the deadline.
type plannerReplay struct {
	signal     *grid.Signal
	deadlineS  float64
	targetFrac float64
}

// lookupSink keeps the compiler from discarding the timed lookups.
var lookupSink int

// replayLayers runs the traced run's layer replay, so that every
// workload measures every replayed layer: each distinct shape goes
// through the server's characterization path (profile.Assemble →
// dag.Build → frontier.Characterize → Frontier.Table) called directly,
// each table answers T' lookups, fleet.Allocate divides capW
// (0 = uncapped) across the tables, grid.Optimize plans each table as
// pr asks, and region.Optimize places the regionJobs smallest tables
// for the placement workload's first requests. Every call is a span.
func replayLayers(b *bench, shapes []shape, capW float64, pr plannerReplay) error {
	tables := map[shape]*frontier.LookupTable{}
	var distinct []shape
	var charS, lookupNs float64
	var points int
	for _, s := range shapes {
		if tables[s] != nil {
			continue
		}
		distinct = append(distinct, s)
		prof, err := b.in.profile(s)
		if err != nil {
			return err
		}
		sc, err := sched.OneFOneB(s.Stages, s.Micro)
		if err != nil {
			return err
		}
		root := b.tr.root("replay")
		sp := root.child("profile.assemble")
		p, err := profile.Assemble(b.in.g, prof.PBlocking, prof.Ms)
		sp.end()
		if err != nil {
			return err
		}
		sp = root.child("dag.build")
		g, err := dag.Build(sc, func(sched.Op) int64 { return 1 })
		sp.end()
		if err != nil {
			return err
		}
		sp = root.child("frontier.characterize")
		t0 := time.Now()
		f, err := frontier.Characterize(g, p, frontier.Options{Unit: s.Unit})
		charS += time.Since(t0).Seconds()
		sp.end()
		if err != nil {
			return err
		}
		points += len(f.Points())
		sp = root.child("frontier.table")
		lt := f.Table()
		sp.end()
		tables[s] = lt

		sp = root.child("frontier.lookup")
		lo, hi := lt.Tmin(), lt.TStar()
		t0 = time.Now()
		for i := 0; i < lookupsPerTable; i++ {
			lookupSink += lt.LookupIndex(lo + (hi-lo)*float64(i)/lookupsPerTable)
		}
		lookupNs += float64(time.Since(t0).Nanoseconds()) / lookupsPerTable
		sp.end()
		root.end()
	}
	n := float64(len(tables))
	b.layers["frontier.points"] = float64(points) / n
	b.layers["frontier.step_us"] = 1e6 * charS / float64(points)
	b.layers["frontier.lookup_ns"] = lookupNs / n

	jobs := make([]fleet.Job, len(distinct))
	for i, s := range distinct {
		jobs[i] = fleet.Job{ID: s.String(), Table: tables[s]}
	}
	root := b.tr.root("replay")
	for i := 0; i < allocateCalls; i++ {
		sp := root.child("fleet.allocate")
		fleet.Allocate(jobs, capW)
		sp.end()
	}
	for _, s := range distinct {
		lt := tables[s]
		sp := root.child("grid.optimize")
		_, err := grid.Optimize(lt, pr.signal, grid.Options{
			Target: math.Floor(pr.targetFrac * pr.deadlineS / lt.Tmin()), DeadlineS: pr.deadlineS})
		sp.end()
		if err != nil {
			return fmt.Errorf("grid.Optimize replay of %s: %w", s, err)
		}
	}
	root.end()
	return replayRegions(b, distinct, tables)
}

// replayRegions places the regionJobs distinct shapes with the fewest
// frontier points on the phase-shifted region pair, once per placement
// request of the run's seed.
func replayRegions(b *bench, distinct []shape, tables map[shape]*frontier.LookupTable) error {
	placed := append([]shape(nil), distinct...)
	sort.SliceStable(placed, func(i, j int) bool {
		return len(tables[placed[i]].Points) < len(tables[placed[j]].Points)
	})
	placed = placed[:min(regionJobs, len(placed))]
	gpus := 0
	var tmin float64
	for _, s := range placed {
		gpus += s.Stages
		tmin = max(tmin, tables[s].Tmin())
	}
	regs := region.PhaseShiftedPair(gpus)
	_, reqs := placementPlan(b.seed, regionReplays)
	root := b.tr.root("replay")
	defer root.end()
	for _, rq := range reqs {
		target := math.Floor(rq.TargetFrac * rq.DeadlineS / tmin)
		jobs := make([]region.Job, len(placed))
		for i, s := range placed {
			jobs[i] = region.Job{ID: fmt.Sprint("job-", i+1), Table: tables[s], GPUs: s.Stages,
				Target: target, DeadlineS: rq.DeadlineS}
		}
		sp := root.child("region.optimize")
		_, err := region.Optimize(regs, jobs, region.Options{
			Migration: region.MigrationCost{DowntimeS: rq.DowntimeS, EnergyJ: rq.MigrationJ}})
		sp.end()
		if err != nil {
			return fmt.Errorf("region.Optimize replay: %w", err)
		}
	}
	return nil
}
