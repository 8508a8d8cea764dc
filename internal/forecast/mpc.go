package forecast

import (
	"fmt"
	"math"

	"perseus/internal/frontier"
	"perseus/internal/grid"
	"perseus/internal/plan"
)

// Options parameterizes a rolling-horizon controller run. It is the
// shared planning request: Target iterations by DeadlineS (0 = the
// provider's forecast horizon, which it may not exceed) minimizing
// Objective at PowerScale, with Quantile selecting the forecast
// quantile the planner sees — 0 or 0.5 plans on the point forecast,
// higher values plan robustly against the pessimistic band (distant
// hours that merely look clean are discounted by their uncertainty).
type Options = plan.Request

// ExecutedInterval is one decision-grid interval the controller
// actually ran: the slices it executed, what the forecast in force
// predicted they would emit, and what they really did under the truth.
type ExecutedInterval struct {
	// StartS and EndS bound the interval in absolute signal seconds.
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`

	// Slices are the executed frontier-point runs, back-to-back from
	// the interval start; IdleS is the remaining pause time.
	Slices []grid.Slice `json:"slices,omitempty"`
	IdleS  float64      `json:"idle_s"`

	// Iterations are exact (they do not depend on rates), as is the
	// account's EnergyJ; CarbonG and CostUSD are realized at the truth
	// signal's rates.
	Iterations float64 `json:"iterations"`
	plan.Account

	// The embedded plan.Predicted is what the forecast in force at
	// planning time predicted for the same slices; the gap between it
	// and the account is the per-interval reconciliation drift.
	plan.Predicted

	// Replanned marks the first interval executed after a fresh plan.
	Replanned bool `json:"replanned,omitempty"`
}

// Outcome is a controller run's realized result, accrued against the
// truth trace (never the forecast).
type Outcome struct {
	// Strategy names the run (provider + mode) for tables.
	Strategy string `json:"strategy"`

	// Target and DeadlineS echo the inputs (deadline resolved).
	Target    float64 `json:"target_iterations"`
	DeadlineS float64 `json:"deadline_s"`

	// Plans counts planner invocations (plan-once runs have exactly 1).
	Plans int `json:"plans"`

	// Feasible reports whether the target was actually completed by the
	// deadline under the truth.
	Feasible bool `json:"feasible"`

	// FinishS is the time the target was reached (-1 when it never was).
	FinishS float64 `json:"finish_s"`

	// Iterations and the embedded plan.Account total the realized run;
	// the embedded plan.Predicted totals what the forecasts in force
	// predicted for the executed slices.
	Iterations float64 `json:"iterations"`
	plan.Account
	plan.Predicted

	// Intervals holds the executed intervals in time order.
	Intervals []ExecutedInterval `json:"intervals"`
}

// Summarize implements plan.Result.
func (o *Outcome) Summarize() plan.Summary {
	return plan.Summary{
		Account:    o.Account,
		Iterations: o.Iterations,
		Plans:      o.Plans,
		Feasible:   o.Feasible,
	}
}

// PlanOnce plans on the provider's first forecast (issued at t = 0) and
// executes that plan to the end, come what may — the baseline every
// operational deployment starts from, and the one MPC must beat.
func PlanOnce(lt *frontier.LookupTable, prov Provider, truth *grid.Signal, opts Options) (*Outcome, error) {
	return run(lt, prov, truth, opts, false)
}

// Replan is the rolling-horizon MPC controller: at every interval
// boundary of the forecast grid it fetches the latest forecast,
// freezes everything already executed, and re-runs grid.Optimize over
// the remaining window with the remaining target — so the schedule
// continuously absorbs forecast revisions instead of compounding the
// first forecast's error. With PlanQuantile > 0.5 every re-plan is
// robust: it plans against the pessimistic quantile band.
func Replan(lt *frontier.LookupTable, prov Provider, truth *grid.Signal, opts Options) (*Outcome, error) {
	return run(lt, prov, truth, opts, true)
}

// Oracle runs the perfect-foresight baseline through the same
// executor: plan once on the truth itself. Its realized objective is
// the regret reference for every forecast-driven run.
func Oracle(lt *frontier.LookupTable, truth *grid.Signal, opts Options) (*Outcome, error) {
	out, err := run(lt, &Perfect{Truth: truth, HorizonS: opts.DeadlineS}, truth, opts, false)
	if err != nil {
		return nil, err
	}
	out.Strategy = "oracle"
	return out, nil
}

// run is the shared executor: a Rolling schedule frozen and re-planned
// at every decision time, then frozen to the deadline. Forecast
// intervals must align with the truth's cyclic interval grid (all
// bundled providers guarantee this); execution clips slices at
// decision boundaries regardless, so a misaligned provider degrades
// accounting resolution, not correctness.
func run(lt *frontier.LookupTable, prov Provider, truth *grid.Signal, opts Options, replanEvery bool) (*Outcome, error) {
	if prov == nil {
		return nil, fmt.Errorf("forecast: controller needs a provider")
	}
	if truth == nil || truth.Horizon() <= 0 {
		return nil, fmt.Errorf("forecast: controller needs a truth signal")
	}
	if err := truth.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	scale := opts.Scale()
	q := opts.PlanQuantile()

	fc, err := prov.At(0)
	if err != nil {
		return nil, err
	}
	if err := fc.Validate(); err != nil {
		return nil, err
	}
	deadline, err := opts.ResolveDeadline(fc.Signal.Horizon())
	if err != nil {
		return nil, err
	}
	if deadline <= 0 {
		return nil, fmt.Errorf("forecast: deadline must be positive, got %v", opts.DeadlineS)
	}

	// Decision times: t = 0, then (under re-planning) every forecast-
	// grid interval boundary before the deadline.
	decisions := []float64{0}
	if replanEvery {
		for _, iv := range fc.Signal.Intervals {
			if iv.EndS < deadline {
				decisions = append(decisions, iv.EndS)
			}
		}
	}

	mode := "plan-once"
	if replanEvery {
		mode = "mpc"
		if q > 0.5 {
			mode = fmt.Sprintf("mpc@q%.2f", q)
		}
	}
	r := &Rolling{Target: opts.Target, DeadlineS: deadline, Objective: opts.Objective, Quantile: q}
	for _, d := range decisions {
		r.Freeze(lt, truth, scale, d)
		if r.Complete() {
			break
		}
		if d > 0 {
			if fc, err = prov.At(d); err != nil {
				return nil, err
			}
			if err := fc.Validate(); err != nil {
				return nil, err
			}
		}
		plan, err := grid.Optimize(lt, r.Window(fc), grid.Options{
			Target:     r.Left(),
			Objective:  opts.Objective,
			PowerScale: scale,
		})
		if err != nil {
			return nil, err
		}
		r.Install(plan, fc.Signal)
	}
	r.Freeze(lt, truth, scale, deadline)

	out := &Outcome{
		Strategy:   prov.Name() + "/" + mode,
		Target:     opts.Target,
		DeadlineS:  deadline,
		Plans:      r.Plans,
		FinishS:    finishS(lt, r.Frozen, opts.Target),
		Iterations: r.DoneIterations,
		Intervals:  r.Frozen,
	}
	for _, ei := range r.Frozen {
		out.EnergyJ += ei.EnergyJ
		out.CarbonG += ei.CarbonG
		out.CostUSD += ei.CostUSD
		out.PredCarbonG += ei.PredCarbonG
		out.PredCostUSD += ei.PredCostUSD
	}
	out.Feasible = out.Iterations >= opts.Target-1e-6*(1+opts.Target)
	return out, nil
}

// finishS returns the time the executed spans reached target
// iterations, or -1 when they never did.
func finishS(lt *frontier.LookupTable, spans []ExecutedInterval, target float64) float64 {
	var done float64
	for _, ei := range spans {
		if done+ei.Iterations < target-1e-9 {
			done += ei.Iterations
			continue
		}
		need := target - done
		at := ei.StartS
		for _, sl := range ei.Slices {
			rate := 1 / lt.PointTime(sl.Point)
			if got := sl.Seconds * rate; got < need {
				need -= got
				at += sl.Seconds
			} else {
				return at + need/rate
			}
		}
		return at
	}
	return -1
}

// Rolling is one job's rolling-horizon schedule: the request it
// serves, the spans executed so far, and the plan in force for the
// rest of the window. The offline controllers (Replan, PlanOnce,
// Oracle) and the server's GET /grid/replan roll the same state
// forward — Freeze commits what ran up to a time, Install puts a
// fresh plan in force from there — so both freeze spans identically.
type Rolling struct {
	// Target, DeadlineS (absolute signal seconds), Objective and
	// Quantile are the request; Quantile 0 plans on the point forecast.
	Target    float64
	DeadlineS float64
	Objective grid.Objective
	Quantile  float64

	// OffsetS is the time the schedule is frozen up to, and Plan's
	// t = 0. Frozen holds the executed spans in time order;
	// DoneIterations totals them.
	OffsetS        float64
	DoneIterations float64
	Frozen         []ExecutedInterval

	// Plan is the plan in force from OffsetS (nil when none is), and
	// Forecast the point forecast it was built on — the rates its spans'
	// predicted accrual is settled at.
	Plan     *grid.Plan
	Forecast *grid.Signal

	// Plans counts installed plans.
	Plans int

	fresh bool // no span of Plan has been frozen yet
}

// Left returns the iterations the frozen spans still owe the target.
func (r *Rolling) Left() float64 { return r.Target - r.DoneIterations }

// Complete reports whether the frozen spans reached the target.
func (r *Rolling) Complete() bool { return r.Left() <= 1e-9*(1+r.Target) }

// Window returns the planning problem at the offset: fc's quantile
// view over [OffsetS, DeadlineS), shifted to start at 0.
func (r *Rolling) Window(fc *Forecast) *grid.Signal {
	q := r.Quantile
	if q == 0 {
		q = 0.5
	}
	return Window(fc.At(q), r.OffsetS, r.DeadlineS)
}

// Freeze executes the plan in force from OffsetS up to t — realized
// against truth, predicted against the plan's forecast, at power
// scale — appends the spans to Frozen, and moves OffsetS to t. The
// plan is then spent: none is in force until the next Install. The
// first span a plan executes is marked Replanned.
func (r *Rolling) Freeze(lt *frontier.LookupTable, truth *grid.Signal, scale, t float64) {
	if r.Plan != nil {
		for _, ip := range r.Plan.Intervals {
			start, end := r.OffsetS+ip.StartS, r.OffsetS+ip.EndS
			if start >= t-1e-9 {
				break
			}
			if end > t {
				end = t
			}
			ei := executeSlices(lt, truth, r.Forecast, scale, start, end, ip.Slices)
			ei.Replanned = r.fresh
			r.fresh = false
			r.Frozen = append(r.Frozen, ei)
			r.DoneIterations += ei.Iterations
		}
	}
	r.Plan, r.Forecast = nil, nil
	r.OffsetS = t
}

// Install puts plan — interval times relative to OffsetS, built on the
// point forecast pred — in force.
func (r *Rolling) Install(plan *grid.Plan, pred *grid.Signal) {
	r.Plan, r.Forecast = plan, pred
	r.Plans++
	r.fresh = true
}

// Planner adapts the forecast-driven controllers to the shared
// plan.Planner contract: one job's table executed against a truth
// trace under a forecast provider, with Replan selecting rolling-
// horizon MPC (true) or plan-once (false). The request's Quantile
// flows through as the robust planning quantile.
type Planner struct {
	Table    *frontier.LookupTable
	Provider Provider
	Truth    *grid.Signal
	Replan   bool
}

// Name implements plan.Planner.
func (p *Planner) Name() string {
	if p.Replan {
		return "forecast-mpc"
	}
	return "forecast-plan-once"
}

// Plan implements plan.Planner.
func (p *Planner) Plan(req plan.Request) (plan.Result, error) {
	if p.Replan {
		return Replan(p.Table, p.Provider, p.Truth, req)
	}
	return PlanOnce(p.Table, p.Provider, p.Truth, req)
}

// executeSlices runs a planned interval's slices (back-to-back from
// the interval start, clipped at the interval end) against the truth,
// accounting realized emissions at the truth's rates and predicted
// ones at the planning forecast's. It is the accounting primitive
// behind Rolling.Freeze and the multi-region controller's execution.
func executeSlices(lt *frontier.LookupTable, truth, predicted *grid.Signal, scale, startS, endS float64, slices []grid.Slice) ExecutedInterval {
	ei := ExecutedInterval{StartS: startS, EndS: endS}
	at := startS
	for _, sl := range slices {
		sec := math.Min(sl.Seconds, endS-at)
		if sec <= 0 {
			break
		}
		power := scale * lt.AvgPower(sl.Point)
		_, carbon, cost := grid.Accrue(truth, at, at+sec, power)
		_, pCarbon, pCost := grid.Accrue(predicted, at, at+sec, power)
		ei.Slices = append(ei.Slices, grid.Slice{Point: sl.Point, Seconds: sec})
		ei.Iterations += sec / lt.PointTime(sl.Point)
		ei.EnergyJ += sec * power
		ei.CarbonG += carbon
		ei.CostUSD += cost
		ei.PredCarbonG += pCarbon
		ei.PredCostUSD += pCost
		at += sec
	}
	ei.IdleS = endS - at
	return ei
}
