package region

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perseus/internal/grid"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenInstances are the small planning instances TestGoldenPlan pins:
// migration friction on the phase-shifted pair, capacity contention
// among three jobs, shared facility power caps, a random three-region
// instance, and an unreachable target (descent from an infeasible
// incumbent).
func goldenInstances() []struct {
	name    string
	regions []Region
	jobs    []Job
	opts    Options
} {
	ltA := convexTable(0.01, 80, 110, 3000, 120)
	ltB := convexTable(0.012, 70, 100, 3200, 140)
	friction := MigrationCost{DowntimeS: 600, EnergyJ: 5e6}

	contended := randomBruteInstance(rand.New(rand.NewSource(7)), 3, 3, 4, 1)
	wide := randomBruteInstance(rand.New(rand.NewSource(23)), 3, 2, 6, 0)

	capped := PhaseShiftedPair(16)
	capped[0].CapW = 1.2 * ltA.AvgPower(len(ltA.Points)-1)
	capped[1].CapW = 1.5 * ltA.AvgPower(0)

	return []struct {
		name    string
		regions []Region
		jobs    []Job
		opts    Options
	}{
		{"pair-jobs-2-friction", PhaseShiftedPair(16), []Job{
			{ID: "a", Table: ltA, GPUs: 8, Target: math.Floor(0.5 * 86400 / ltA.TStar())},
			{ID: "b", Table: ltB, GPUs: 8, Target: math.Floor(0.4 * 86400 / ltB.TStar())},
		}, Options{Migration: friction}},
		{"contended-capacity-1-jobs-3", contended.regions, contended.jobs, contended.opts},
		{"pair-capw", capped, []Job{
			{ID: "a", Table: ltA, Target: math.Floor(0.5 * 86400 / ltA.TStar())},
			{ID: "b", Table: ltB, Target: math.Floor(0.5 * 86400 / ltB.TStar()), DeadlineS: 18 * 3600},
		}, Options{Objective: grid.ObjectiveCost, Migration: friction}},
		{"random-3x2x6", wide.regions, wide.jobs, wide.opts},
		{"pair-infeasible-target", PhaseShiftedPair(8), []Job{
			{ID: "a", Table: ltA, GPUs: 8, Target: math.Floor(0.9 * 86400 / ltA.Tmin()), DeadlineS: 20 * 3600},
			{ID: "b", Table: ltB, GPUs: 8, Target: math.Floor(0.6 * 86400 / ltB.Tmin())},
		}, Options{Migration: friction}},
	}
}

// writePlan renders a plan for the golden file: per job the placement
// (region index per cell, "*" marking a migration arrival), the
// migration count and feasibility, and the float64 bits of every total.
func writePlan(b *strings.Builder, label string, p *Plan) {
	bits := func(a, c, e float64) string {
		return fmt.Sprintf("carbon=%016x cost=%016x energy=%016x",
			math.Float64bits(a), math.Float64bits(c), math.Float64bits(e))
	}
	fmt.Fprintf(b, "%s feasible=%v cells=%d %s\n", label, p.Feasible, len(p.Cells),
		bits(p.CarbonG, p.CostUSD, p.EnergyJ))
	for _, jp := range p.Jobs {
		fmt.Fprintf(b, "  job %s feasible=%v migrations=%d %s\n   ", jp.JobID, jp.Feasible,
			jp.Migrations, bits(jp.CarbonG, jp.CostUSD, jp.EnergyJ))
		for _, a := range jp.Assignments {
			mark := ""
			if a.Migrate {
				mark = "*"
			}
			fmt.Fprintf(b, " %d%s", a.Region, mark)
		}
		b.WriteByte('\n')
	}
}

// TestGoldenPlan pins Optimize (and the baselines) bit for bit against
// testdata/plan.golden on a handful of small instances. Any change to
// the planner's search that is meant to preserve behaviour must leave
// this file untouched; regenerate it with -update only when a change is
// meant to alter plans.
func TestGoldenPlan(t *testing.T) {
	var b strings.Builder
	for _, in := range goldenInstances() {
		p, err := Optimize(in.regions, in.jobs, in.opts)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		writePlan(&b, in.name+" optimize", p)
		if p, err = BestFixed(in.regions, in.jobs, in.opts); err != nil {
			t.Fatalf("%s best-fixed: %v", in.name, err)
		}
		writePlan(&b, in.name+" best-fixed", p)
		if p, err = NoMigration(in.regions, in.jobs, in.opts); err != nil {
			t.Fatalf("%s no-migration: %v", in.name, err)
		}
		writePlan(&b, in.name+" no-migration", p)
	}
	got := b.String()
	path := filepath.Join("testdata", "plan.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("plan drifted from golden at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plan drifted from golden: %d lines, want %d", len(gl), len(wl))
	}
}
