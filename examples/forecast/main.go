// Forecast: schedule against a predicted grid, not a known one.
//
// The grid example plans with perfect foresight of the day's carbon
// curve. Real operators only see forecasts that revise hourly. This
// program characterizes a training job's frontier, replays the bundled
// diurnal day through a seeded noisy-revision forecast stream, and
// compares the perfect-foresight oracle, plan-once-on-the-first-
// forecast, MPC re-planning (point and robust-quantile), and a
// seasonal-naive model forecasting from revealed history alone. It
// then shows the MPC run's predicted-vs-realized drift hour by hour,
// and the multi-region analogue over the phase-shifted pair, where
// every re-plan pays to migrate away from the job's current region.
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"perseus/internal/experiments"
	"perseus/internal/forecast"
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

	// Finish 55% of the day's T* capacity by midnight, planning against
	// a revision stream with 12% relative innovation per hour.
	const util, seed, sigma = 0.55, 1, 0.12
	truth := grid.Diurnal24h()
	scenario := experiments.ForecastScenario{
		Truth:  truth,
		Seed:   seed,
		Sigma:  sigma,
		Target: math.Floor(util * truth.Horizon() / lt.TStar()),
	}
	fmt.Printf("trace %s: %d intervals over %.0f h; target %.0f iterations; revisions seed %d, sigma %.0f%%/step\n\n",
		truth.Name, len(truth.Intervals), truth.Horizon()/3600, scenario.Target, seed, 100*sigma)

	strategies, err := experiments.ForecastComparison(lt, scenario)
	if err != nil {
		log.Fatal(err)
	}

	// The multi-region comparison runs on the pair coarsened to six
	// steps, with a 10-minute checkpoint transfer per migration.
	pair := region.PhaseShiftedPair(0)
	for i := range pair {
		pair[i].Signal = forecast.Coarsen(pair[i].Signal, 6)
	}
	target := math.Floor(0.5 * pair[0].Signal.Horizon() / lt.TStar())
	mig := region.MigrationCost{DowntimeS: 600, EnergyJ: 5e6}
	rs, err := experiments.RegionForecastComparison(lt, pair, target, mig, seed, sigma)
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range []*experiments.Table{
		experiments.ForecastComparisonTable(scenario, strategies),
		experiments.ForecastDriftTable(strategies[2].Outcome),
		experiments.RegionForecastComparisonTable(rs),
	} {
		if err := t.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
}
