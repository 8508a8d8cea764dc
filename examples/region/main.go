// Region: chase clean power across datacenters.
//
// The temporal planner runs a flexible job in the day's clean hours and
// idles through the dirty ones — inside a single grid region. But two
// datacenters whose carbon curves are hours out of phase offer more
// clean hours than either has alone: with a characterized frontier and
// deadline slack, the multi-region planner works the west coast's
// midday solar valley, checkpoints, migrates, and works the east's —
// paying a fixed pause-cost per move only when the phase offset earns
// it back. The program prints the planner's hour-by-hour placement and
// compares it with pinning the job to its best single region (fixed
// placement) and with choosing one region without ever migrating.
package main

import (
	"fmt"
	"log"
	"os"

	"perseus/internal/experiments"
	"perseus/internal/gpu"
	"perseus/internal/grid"
	"perseus/internal/region"
)

func main() {
	cfg := experiments.WorkloadConfig{
		Display: "GPT-3 1.3B", Model: "gpt3-1.3b", Stages: 4,
		MicrobatchSize: 4, Microbatches: 16,
	}
	g := gpu.A100PCIe
	fmt.Printf("characterizing %s on %s...\n", cfg.Display, g.Name)
	sys, err := experiments.BuildSystem(cfg, g, experiments.Quick)
	if err != nil {
		log.Fatal(err)
	}
	lt := sys.Frontier.Table()

	// Finish 60% of one region's daily T* capacity by midnight; a
	// migration costs a 10-minute checkpoint transfer plus its energy.
	const util = 0.6
	regions := region.PhaseShiftedPair(8)
	mig := region.MigrationCost{DowntimeS: 600, EnergyJ: 1e6}
	target := util * 86400 / lt.TStar()
	fmt.Printf("regions: %s and %s (solar valleys 12 h out of phase); target %.0f iterations (%.0f%% of one region's T* capacity)\n",
		regions[0].Name, regions[1].Name, target, 100*util)
	fmt.Printf("migration cost: %.0f s downtime + %.2f kWh transfer energy\n\n",
		mig.DowntimeS, mig.EnergyJ/grid.JoulesPerKWh)

	strategies, err := experiments.RegionComparison(lt, regions, target, 0, mig)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := region.Optimize(regions, []region.Job{
		{ID: "train", Table: lt, Target: target},
	}, region.Options{Migration: mig})
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range []*experiments.Table{
		experiments.RegionPlanTable(regions, plan, 0),
		experiments.RegionComparisonTable(strategies),
	} {
		if err := t.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
