package region

import (
	"math"
	"runtime"
	"testing"
)

// TestOptimizeDeterministicAcrossWorkers pins the planner's core
// parallelism contract: fanning candidate evaluations across a worker
// pool (one worker per GOMAXPROCS) must be bit-identical to sequential
// evaluation — same objective totals, same placements, same migration
// bookkeeping — for any pool size. The reduction happens in a fixed
// candidate order regardless of completion order, so this holds
// exactly, not within a tolerance. Run under -race this also exercises
// the pool for data races.
func TestOptimizeDeterministicAcrossWorkers(t *testing.T) {
	regions := PhaseShiftedPair(16)
	ltA := convexTable(0.01, 80, 110, 3000, 120)
	ltB := convexTable(0.012, 70, 100, 3200, 140)
	jobs := []Job{
		{ID: "a", Table: ltA, GPUs: 8, Target: math.Floor(0.5 * 86400 / ltA.TStar())},
		{ID: "b", Table: ltB, GPUs: 8, Target: math.Floor(0.4 * 86400 / ltB.TStar())},
	}
	opts := Options{Migration: MigrationCost{DowntimeS: 600, EnergyJ: 5e6}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	runtime.GOMAXPROCS(1)
	seq, err := Optimize(regions, jobs, opts)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 7} {
		runtime.GOMAXPROCS(workers)
		par, err := Optimize(regions, jobs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if par.CarbonG != seq.CarbonG || par.CostUSD != seq.CostUSD ||
			par.EnergyJ != seq.EnergyJ || par.Feasible != seq.Feasible {
			t.Fatalf("workers=%d totals diverge: %+v vs sequential %+v",
				workers, par.Account, seq.Account)
		}
		for i := range seq.Jobs {
			sj, pj := seq.Jobs[i], par.Jobs[i]
			if len(sj.Assignments) != len(pj.Assignments) {
				t.Fatalf("workers=%d job %s assignment count %d != %d",
					workers, sj.JobID, len(pj.Assignments), len(sj.Assignments))
			}
			for k := range sj.Assignments {
				if sj.Assignments[k] != pj.Assignments[k] {
					t.Fatalf("workers=%d job %s assignment %d diverges: %+v vs %+v",
						workers, sj.JobID, k, pj.Assignments[k], sj.Assignments[k])
				}
			}
			if sj.Temporal.Iterations != pj.Temporal.Iterations ||
				sj.Migrations != pj.Migrations ||
				sj.MigrationCarbonG != pj.MigrationCarbonG {
				t.Fatalf("workers=%d job %s plan diverges: %+v vs %+v",
					workers, sj.JobID, pj, sj)
			}
		}
	}
}
