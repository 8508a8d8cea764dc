// Grid: shift a training job's work into the day's clean hours.
//
// A characterized frontier gives the marginal energy cost of running at
// any speed between T_min and T*. When the grid's carbon intensity
// swings over the day, that frontier becomes a temporal control
// surface: with deadline slack, the planner runs during the midday
// solar valley, sprints when it must, and idles through the evening
// ramp peak — at provably minimal total carbon for the iterations
// completed. The program replays the bundled 24-hour diurnal trace,
// prints the carbon-optimal plan hour by hour, and compares it with
// the two signal-blind baselines — always-T_min (sprint, then stop)
// and static min-energy (every iteration at T*).
package main

import (
	"fmt"
	"log"
	"os"

	"perseus/internal/experiments"
	"perseus/internal/gpu"
	"perseus/internal/grid"
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

	// Finish 55% of a full day's T* capacity by midnight.
	const util = 0.55
	sig := grid.Diurnal24h()
	target := util * sig.Horizon() / lt.TStar()
	fmt.Printf("trace %s: %d intervals over %.0f h; target %.0f iterations (%.0f%% of T* capacity)\n\n",
		sig.Name, len(sig.Intervals), sig.Horizon()/3600, target, 100*util)

	strategies, err := experiments.GridComparison(lt, sig, target, 0)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := grid.Optimize(lt, sig, grid.Options{Target: target})
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range []*experiments.Table{
		experiments.GridPlanTable(lt, plan),
		experiments.GridComparisonTable(sig, strategies),
	} {
		if err := t.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
