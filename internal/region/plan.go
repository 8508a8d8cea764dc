package region

import (
	"fmt"
	"math"

	"perseus/internal/grid"
	pln "perseus/internal/plan"
)

// Options parameterizes the multi-region planner.
type Options struct {
	// Objective selects what to minimize; "" means carbon.
	Objective grid.Objective

	// Migration is the fixed pause-cost of moving a job between
	// regions; the zero value makes moves free.
	Migration MigrationCost
}

// gaussSeidelRounds is the number of improvement rounds after the first
// sequential pass: each round re-plans every job against the others'
// committed placements.
const gaussSeidelRounds = 2

// Assignment is one cell of a job's placement sequence.
type Assignment struct {
	// Cell indexes Plan.Cells.
	Cell int `json:"cell"`

	// StartS and EndS bound the cell.
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`

	// Region indexes Plan.Regions; -1 means the job is paused.
	Region int `json:"region"`

	// Migrate marks the cell at whose start the job arrives from a
	// different region (checkpoint transfer downtime and energy are
	// charged here).
	Migrate bool `json:"migrate,omitempty"`
}

// JobPlan is one job's spatio-temporal schedule.
type JobPlan struct {
	// JobID names the job.
	JobID string `json:"job_id"`

	// Assignments is the per-cell placement in time order.
	Assignments []Assignment `json:"assignments"`

	// Temporal is the job's inner temporal plan over the composite
	// signal its placement induces (grid.Optimize output; slices index
	// the job's lookup table).
	Temporal *grid.Plan `json:"temporal"`

	// Migrations counts region changes; the downtime and transfer
	// energy totals follow, with the energy priced at each arrival
	// cell's rates.
	Migrations         int     `json:"migrations"`
	MigrationDowntimeS float64 `json:"migration_downtime_s"`
	MigrationEnergyJ   float64 `json:"migration_energy_j"`
	MigrationCarbonG   float64 `json:"migration_carbon_g"`
	MigrationCostUSD   float64 `json:"migration_cost_usd"`

	// The embedded plan.Account totals the job including migration.
	pln.Account

	// Feasible reports whether the job completes its target by its
	// deadline under the placement.
	Feasible bool `json:"feasible"`
}

// Plan is a joint multi-region schedule for a set of jobs.
type Plan struct {
	// Objective is what the plan minimizes.
	Objective grid.Objective `json:"objective"`

	// HorizonS is the planning horizon in seconds.
	HorizonS float64 `json:"horizon_s"`

	// Regions lists the region names; Assignment.Region indexes it.
	Regions []string `json:"regions"`

	// Cells is the common planning grid (union of all regions' signal
	// boundaries).
	Cells []Cell `json:"cells"`

	// Jobs holds the per-job schedules in input order.
	Jobs []JobPlan `json:"jobs"`

	// The embedded plan.Account totals the plan including migration.
	pln.Account

	// Feasible reports whether every job meets its target and deadline.
	Feasible bool `json:"feasible"`
}

// Total reads the plan total matching its objective.
func (p *Plan) Total() float64 { return p.Account.Total(p.Objective) }

// Summarize implements plan.Result.
func (p *Plan) Summarize() pln.Summary {
	s := pln.Summary{Account: p.Account, Plans: 1, Feasible: p.Feasible}
	for i := range p.Jobs {
		if p.Jobs[i].Temporal != nil {
			s.Iterations += p.Jobs[i].Temporal.Iterations
		}
	}
	return s
}

// Planner adapts the joint spatio-temporal planner to the shared
// plan.Planner contract: a fixed fleet of regions and jobs, with the
// request supplying the objective and per-job target/deadline defaults
// (jobs carrying their own keep them).
type Planner struct {
	Regions   []Region
	Jobs      []Job
	Migration MigrationCost
}

// Name implements plan.Planner.
func (p *Planner) Name() string { return "region" }

// Plan implements plan.Planner.
func (p *Planner) Plan(req pln.Request) (pln.Result, error) {
	jobs := append([]Job(nil), p.Jobs...)
	for i := range jobs {
		if jobs[i].Target <= 0 {
			jobs[i].Target = req.Target
		}
		if jobs[i].DeadlineS <= 0 {
			jobs[i].DeadlineS = req.DeadlineS
		}
		if jobs[i].PowerScale <= 0 && req.PowerScale > 0 {
			jobs[i].PowerScale = req.PowerScale
		}
	}
	return Optimize(p.Regions, jobs, Options{
		Objective: req.Objective,
		Migration: p.Migration,
	})
}

// eval is one evaluated placement candidate for one job.
type eval struct {
	placement []int
	plan      *grid.Plan
	mig       migSummary
	cellOf    []int
	cost      float64 // objective incl. migration; only valid when feasible
	coverage  float64
	feasible  bool
}

// better reports whether a strictly improves on b: feasibility first,
// then objective cost, then (both infeasible) coverage.
func (a *eval) better(b *eval) bool {
	if b == nil || b.placement == nil {
		return true
	}
	if a.feasible != b.feasible {
		return a.feasible
	}
	if a.feasible {
		return a.cost < b.cost-1e-9*(1+math.Abs(b.cost))
	}
	if math.Abs(a.coverage-b.coverage) > 1e-9*(1+b.coverage) {
		return a.coverage > b.coverage
	}
	return a.cost < b.cost-1e-9*(1+math.Abs(b.cost))
}

// usage tracks the capacity and power other jobs consume per
// (region, cell), so sequential planning respects shared limits.
type usage struct {
	gpus  [][]int     // [region][cell]
	peakW [][]float64 // [region][cell] peak planned power
}

func newUsage(nRegions, nCells int) *usage {
	u := &usage{gpus: make([][]int, nRegions), peakW: make([][]float64, nRegions)}
	for r := range u.gpus {
		u.gpus[r] = make([]int, nCells)
		u.peakW[r] = make([]float64, nCells)
	}
	return u
}

// apply commits (sign +1) or releases (sign -1) a job's evaluated
// placement.
func (u *usage) apply(j *Job, ev *eval, sign int) {
	if ev == nil || ev.placement == nil {
		return
	}
	for k, r := range ev.placement {
		if r >= 0 {
			u.gpus[r][k] += sign * j.gpus()
		}
	}
	if ev.plan == nil {
		return
	}
	// Peak slice power per cell, via the composite-interval → cell map.
	for i, ip := range ev.plan.Intervals {
		k := ev.cellOf[i]
		r := ev.placement[k]
		if r < 0 {
			continue
		}
		var peak float64
		for _, sl := range ip.Slices {
			if p := j.scale() * j.Table.AvgPower(sl.Point); p > peak {
				peak = p
			}
		}
		u.peakW[r][k] += float64(sign) * peak
	}
}

// planner bundles the planning context: the immutable instance
// (regions, cells, options, precomputed rates, worker count) plus the
// mutable solve state — committed usage, one evaluation scratch per
// worker, and the descent's candidate buffers. newPlanner and fork are
// the only constructors.
type planner struct {
	regions []Region
	cells   []Cell
	horizon float64
	opts    Options
	rates   [][]cellRates
	workers int
	usage   *usage

	scratch []evalScratch // one per worker
	batch   []int         // descent candidates, len(cells) cells each
	outs    []outcome     // the batch's light outcomes, in batch order
	errs    []error       // and their evaluation errors
	curPl   []int         // descent incumbent placement
}

// newPlanner validates the instance and builds a ready planner:
// normalized objective, common cell grid, rate table, and worker
// scratch. The shared front half of every planning entry point
// (Optimize, Fixed, BestFixed, NoMigration), hoisted so BestFixed pays
// it once rather than once per region.
func newPlanner(regions []Region, jobs []Job, opts Options) (*planner, error) {
	if err := validate(regions, jobs, opts); err != nil {
		return nil, err
	}
	obj, err := grid.ParseObjective(string(opts.Objective))
	if err != nil {
		return nil, err
	}
	opts.Objective = obj

	horizon := 0.0
	maxSig := 0.0
	for i := range regions {
		if h := regions[i].Signal.Horizon(); h > maxSig {
			maxSig = h
		}
	}
	for i := range jobs {
		d := jobs[i].DeadlineS
		if d <= 0 {
			d = maxSig
		}
		if d > horizon {
			horizon = d
		}
	}
	cells := commonGrid(regions, horizon)
	p := &planner{
		regions: regions,
		cells:   cells,
		horizon: horizon,
		opts:    opts,
		workers: DefaultWorkers(),
		rates:   rateTable(regions, cells),
	}
	p.scratch = make([]evalScratch, p.workers)
	return p, nil
}

// fork clones the planner's immutable context for an independent solve
// (BestFixed runs one per region concurrently): shared regions, cells,
// and rates; private usage and scratch. Forks run their inner
// evaluations sequentially — the fan-out is across forks.
func (p *planner) fork() *planner {
	return &planner{
		regions: p.regions,
		cells:   p.cells,
		horizon: p.horizon,
		opts:    p.opts,
		workers: 1,
		rates:   p.rates,
		scratch: make([]evalScratch, 1),
	}
}

// allowed reports whether the job fits region r's GPU capacity in cell
// k given the other jobs' committed placements.
func (p *planner) allowed(j *Job, r, k int) bool {
	if p.regions[r].GPUs > 0 && p.usage.gpus[r][k]+j.gpus() > p.regions[r].GPUs {
		return false
	}
	return true
}

// capOverride returns the cap left for one more job in (r, k): the
// region's effective cap minus the power other jobs' plans already
// draw there (0 = uncapped).
func (p *planner) capOverride(r, k int) float64 {
	capW := p.rates[r][k].capW
	if capW <= 0 {
		return 0
	}
	rem := capW - p.usage.peakW[r][k]
	if rem < forceIdleCapW {
		rem = forceIdleCapW
	}
	return rem
}

// cellRate reads region r's (carbon, price) over cell k.
func (p *planner) cellRate(r, k int) (carbon, price float64) {
	rc := p.rates[r][k]
	return rc.carbon, rc.price
}

// origin resolves the job's Origin region name to an index (Paused
// when unset; validate guarantees a set name resolves).
func (p *planner) origin(j *Job) int {
	if j.Origin == "" {
		return Paused
	}
	for i := range p.regions {
		if p.regions[i].Name == j.Origin {
			return i
		}
	}
	return Paused
}

// gridOptions maps a job to its inner temporal-planner options.
func (p *planner) gridOptions(j *Job) grid.Options {
	return grid.Options{
		Target:     j.Target,
		DeadlineS:  j.DeadlineS,
		Objective:  p.opts.Objective,
		PowerScale: j.scale(),
	}
}

// evaluateFull compiles a placement into a composite signal, solves the
// inner temporal subproblem exactly, and materializes the full eval —
// temporal plan and cell map included — for commit paths (usage
// accounting, assembly). Compile runs in the scratch's buffers; the
// returned eval retains only fresh state (the plan and a copied cell
// map), never the scratch.
func (p *planner) evaluateFull(s *evalScratch, j *Job, placement []int) (*eval, error) {
	sig, mig, cellOf := compile(&s.compileScratch, p.cells, p.rates, placement, p.origin(j), p.opts.Migration, p.capOverride)
	plan, err := s.solver.Optimize(j.Table, sig, p.gridOptions(j))
	if err != nil {
		return nil, err
	}
	return &eval{
		placement: placement,
		plan:      plan,
		mig:       mig,
		cellOf:    append([]int(nil), cellOf...),
		coverage:  plan.Iterations,
		feasible:  plan.Feasible,
		cost:      objectiveTotal(plan) + mig.objective(plan.Objective),
	}, nil
}

// evaluateLight evaluates a placement to its comparison outcome only —
// no plan, no allocations in steady state. grid.Solver.Evaluate totals
// with arithmetic bit-identical to Optimize's, so light and full
// evaluations of the same placement always agree; descent compares
// candidates light and re-solves only committed winners full.
func (p *planner) evaluateLight(s *evalScratch, j *Job, placement []int) (outcome, error) {
	sig, mig, _ := compile(&s.compileScratch, p.cells, p.rates, placement, p.origin(j), p.opts.Migration, p.capOverride)
	ev, err := s.solver.Evaluate(j.Table, sig, p.gridOptions(j))
	if err != nil {
		return outcome{}, err
	}
	return outcome{
		cost:     ev.Total(p.opts.Objective) + mig.objective(p.opts.Objective),
		coverage: ev.Iterations,
		feasible: ev.Feasible,
	}, nil
}

// runBatch evaluates every candidate in p.batch light, fanned across
// the worker pool. Each outcome slot is written by exactly one worker
// and read back only after the pool joins, in batch order, so the
// reduction — and therefore the whole planner — is bit-identical for
// any worker count.
func (p *planner) runBatch(j *Job) ([]outcome, error) {
	K := len(p.cells)
	n := len(p.batch) / K
	p.outs = append(p.outs[:0], make([]outcome, n)...)
	p.errs = append(p.errs[:0], make([]error, n)...)
	parallelFor(p.workers, n, func(w, c int) {
		p.outs[c], p.errs[c] = p.evaluateLight(&p.scratch[w], j, p.batch[c*K:(c+1)*K])
	})
	for _, err := range p.errs {
		if err != nil {
			return nil, err
		}
	}
	return p.outs, nil
}

// regionIndex resolves a region name to its index, -1 when unknown.
func (p *planner) regionIndex(name string) int {
	for i := range p.regions {
		if p.regions[i].Name == name {
			return i
		}
	}
	return -1
}

// kEnd returns the first cell index at or beyond the job's deadline;
// cells from there on are forced to Paused (they cannot contribute).
func (p *planner) kEnd(j *Job) int {
	d := j.DeadlineS
	if d <= 0 {
		d = p.horizon
	}
	for k, c := range p.cells {
		if c.StartS >= d {
			return k
		}
	}
	return len(p.cells)
}

// starts builds the candidate starting placements: each single region
// (capacity permitting, Paused where blocked) and the per-cell
// rate-envelope placement (the allowed region with the lowest
// objective rate — optimal when migration is free).
func (p *planner) starts(j *Job) [][]int {
	kEnd := p.kEnd(j)
	K := len(p.cells)
	var out [][]int
	for r := range p.regions {
		pl := make([]int, K)
		for k := range pl {
			pl[k] = Paused
			if k < kEnd && p.allowed(j, r, k) {
				pl[k] = r
			}
		}
		out = append(out, pl)
	}
	env := make([]int, K)
	for k := range env {
		env[k] = Paused
		if k >= kEnd {
			continue
		}
		best, bestRate := Paused, math.Inf(1)
		for r := range p.regions {
			if !p.allowed(j, r, k) {
				continue
			}
			carbon, price := p.cellRate(r, k)
			rate := carbon
			if p.opts.Objective == grid.ObjectiveCost {
				rate = price
			}
			if rate < bestRate {
				best, bestRate = r, rate
			}
		}
		env[k] = best
	}
	out = append(out, env)
	return out
}

// planJob finds one job's placement by steepest descent over
// contiguous segment moves, starting from the best candidate start:
// every move re-assigns one cell range [i, k] to one region (or to
// Paused) and is evaluated exactly via the inner temporal planner, so
// the descent only accepts moves whose full spatio-temporal cost —
// migration pause-costs included — strictly improves.
//
// Each sweep lists its candidates in (i, k, t) order, evaluates them
// light across the worker pool, and reduces them sequentially in that
// order with strict comparisons, so the chosen move — and hence the
// whole descent — is bit-identical for any worker count. A placement
// is listed once, at the first (i, k, t) that builds it: t differs from
// the incumbent at k, and i is 0 or t differs at i-1. While the
// incumbent is feasible, a range covering every cell the last accepted
// move changed is not listed either: it rebuilds a candidate of the
// previous sweep, which lost to the incumbent, and with a feasible
// incumbent losing is transitive under betterOutcome's tolerance (with
// an infeasible one, coverage ties are not).
func (p *planner) planJob(j *Job) (*eval, error) {
	kEnd := p.kEnd(j)
	K := len(p.cells)

	p.batch = p.batch[:0]
	for _, pl := range p.starts(j) {
		p.batch = append(p.batch, pl...)
	}
	outs, err := p.runBatch(j)
	if err != nil {
		return nil, err
	}
	var cur outcome
	for c, out := range outs {
		if betterOutcome(out, cur, c > 0) {
			cur = out
			p.curPl = append(p.curPl[:0], p.batch[c*K:(c+1)*K]...)
		}
	}

	// Each accepted move strictly improves, so this bound only cuts off
	// pathological slow convergence; observed descents take well under
	// a tenth of it.
	const maxMoves = 64
	lastI, lastK := -1, -1 // cells the last accepted move changed; none yet
	for move := 0; move < maxMoves; move++ {
		p.batch = p.batch[:0]
		for i := 0; i < kEnd; i++ {
			for k := i; k < kEnd; k++ {
				if cur.feasible && i <= lastI && k >= lastK {
					continue
				}
				for t := Paused; t < len(p.regions); t++ {
					if p.curPl[k] == t || (i > 0 && p.curPl[i-1] == t) {
						continue
					}
					ok := true
					for c := i; c <= k; c++ {
						if t >= 0 && !p.allowed(j, t, c) {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					off := len(p.batch)
					p.batch = append(p.batch, p.curPl...)
					for c := off + i; c <= off+k; c++ {
						p.batch[c] = t
					}
				}
			}
		}
		outs, err := p.runBatch(j)
		if err != nil {
			return nil, err
		}
		best := -1
		var bestOut outcome
		for c, out := range outs {
			if betterOutcome(out, cur, true) && betterOutcome(out, bestOut, best >= 0) {
				best, bestOut = c, out
			}
		}
		if best < 0 {
			break
		}
		next := p.batch[best*K : (best+1)*K]
		lastI = -1
		for c := range next {
			if next[c] != p.curPl[c] {
				if lastI < 0 {
					lastI = c
				}
				lastK = c
			}
		}
		copy(p.curPl, next)
		cur = bestOut
	}
	// Materialize the winner once, full: the descent itself never
	// builds a temporal plan.
	return p.evaluateFull(&p.scratch[0], j, append([]int(nil), p.curPl...))
}

// Optimize plans the joint spatio-temporal schedule: for every job a
// per-cell (region | pause) placement with migration pause-costs, and
// within it the exact optimal temporal frequency plan, minimizing the
// total objective subject to each job's target and deadline, each
// region's GPU capacity, and each region's facility and interval power
// caps (shared across the jobs placed there).
//
// Jobs are planned sequentially in input order against the committed
// usage of earlier jobs, then refined with gaussSeidelRounds Gauss-Seidel
// rounds (each job re-planned against all others). Per job the search
// is steepest descent over contiguous segment moves from the best of
// the single-region and rate-envelope starts; every candidate is
// evaluated exactly by the inner temporal solver on the placement's
// composite signal, so temporal shifting, pausing, and migration trade
// off in one objective. Candidate evaluations fan out across one
// worker per GOMAXPROCS with a deterministic sequential reduction, so
// the plan is identical for any worker count. brute_test.go
// cross-checks the result against exhaustive placement enumeration on
// small instances.
func Optimize(regions []Region, jobs []Job, opts Options) (*Plan, error) {
	return plan(regions, jobs, opts, nil, true)
}

// Fixed plans the single-datacenter baseline: every job runs in the
// named region for the whole horizon (pausing only via its temporal
// plan), with the same capacity and cap accounting as Optimize, so the
// two are directly comparable at equal iterations completed.
func Fixed(regions []Region, jobs []Job, name string, opts Options) (*Plan, error) {
	p, err := newPlanner(regions, jobs, opts)
	if err != nil {
		return nil, err
	}
	idx := p.regionIndex(name)
	if idx < 0 {
		return nil, fmt.Errorf("region: unknown region %q", name)
	}
	return p.solveAll(jobs, fixedCandidates(idx), false)
}

// fixedCandidates restricts a solve to the single-region start idx.
func fixedCandidates(idx int) func(*planner, *Job) ([][]int, error) {
	return func(p *planner, j *Job) ([][]int, error) {
		return [][]int{p.starts(j)[idx]}, nil
	}
}

// BestFixed plans Fixed for every region and returns the best plan
// (feasible first, then lowest objective) — the strongest baseline
// that never moves a job after choosing one datacenter for the fleet.
// Validation and the common cell grid are built once and shared; the
// per-region solves are independent, so they run concurrently on
// planner forks and reduce in region order.
func BestFixed(regions []Region, jobs []Job, opts Options) (*Plan, error) {
	p, err := newPlanner(regions, jobs, opts)
	if err != nil {
		return nil, err
	}
	plans := make([]*Plan, len(regions))
	errs := make([]error, len(regions))
	parallelFor(p.workers, len(regions), func(_, i int) {
		plans[i], errs[i] = p.fork().solveAll(jobs, fixedCandidates(i), false)
	})
	var best *Plan
	for i := range plans {
		if errs[i] != nil {
			return nil, errs[i]
		}
		pl := plans[i]
		if best == nil || (pl.Feasible && !best.Feasible) ||
			(pl.Feasible == best.Feasible && pl.Total() < best.Total()) {
			best = pl
		}
	}
	return best, nil
}

// NoMigration plans the placement-without-moves baseline: each job
// independently picks its single best region (sequentially, capacity
// respected) and stays there — spatial choice without the temporal
// freedom to chase another region's clean hours.
func NoMigration(regions []Region, jobs []Job, opts Options) (*Plan, error) {
	return plan(regions, jobs, opts, func(p *planner, j *Job) ([][]int, error) {
		return p.starts(j)[:len(p.regions)], nil
	}, false)
}

// plan is the shared orchestration: build the planner, then solve.
func plan(regions []Region, jobs []Job, opts Options, candidates func(*planner, *Job) ([][]int, error), descend bool) (*Plan, error) {
	p, err := newPlanner(regions, jobs, opts)
	if err != nil {
		return nil, err
	}
	return p.solveAll(jobs, candidates, descend)
}

// solveAll plans the jobs sequentially with committed usage, optional
// candidate restriction (baselines), and optional descent +
// improvement rounds (the full planner).
func (p *planner) solveAll(jobs []Job, candidates func(*planner, *Job) ([][]int, error), descend bool) (*Plan, error) {
	solve := func(i int) (*eval, error) {
		j := &jobs[i]
		if descend {
			return p.planJob(j)
		}
		cands, err := candidates(p, j)
		if err != nil {
			return nil, err
		}
		var best *eval
		for _, pl := range cands {
			ev, err := p.evaluateFull(&p.scratch[0], j, pl)
			if err != nil {
				return nil, err
			}
			if ev.better(best) {
				best = ev
			}
		}
		return best, nil
	}

	// run plans the jobs sequentially in the given order (with fresh
	// usage), then refines with Gauss-Seidel rounds.
	run := func(order []int) ([]*eval, error) {
		p.usage = newUsage(len(p.regions), len(p.cells))
		evals := make([]*eval, len(jobs))
		for _, i := range order {
			ev, err := solve(i)
			if err != nil {
				return nil, err
			}
			evals[i] = ev
			p.usage.apply(&jobs[i], ev, +1)
		}
		if !descend {
			return evals, nil
		}
		gaussSeidel := func() (bool, error) {
			improved := false
			for _, i := range order {
				p.usage.apply(&jobs[i], evals[i], -1)
				// Re-evaluate the incumbent against the others' current
				// placements: its stored cost may be stale.
				cur, err := p.evaluateFull(&p.scratch[0], &jobs[i], evals[i].placement)
				if err != nil {
					return false, err
				}
				ev, err := solve(i)
				if err != nil {
					return false, err
				}
				if ev.better(cur) {
					cur = ev
					improved = true
				}
				evals[i] = cur
				p.usage.apply(&jobs[i], evals[i], +1)
			}
			return improved, nil
		}
		for round := 0; round < gaussSeidelRounds; round++ {
			gs, err := gaussSeidel()
			if err != nil {
				return nil, err
			}
			sw, err := p.swapRefine(jobs, evals)
			if err != nil {
				return nil, err
			}
			if !gs && !sw {
				break
			}
		}
		return evals, nil
	}

	// Sequential planning is order-dependent under capacity contention:
	// the full planner tries every job order on small fleets (rotations
	// on larger ones) and keeps the best joint outcome; baselines keep
	// input order, matching their "first come, first placed" story.
	var best []*eval
	for _, order := range orders(len(jobs), descend) {
		evals, err := run(order)
		if err != nil {
			return nil, err
		}
		if best == nil || jointBetter(evals, best) {
			best = evals
		}
	}
	return assemble(p, jobs, best), nil
}

// placementFits reports whether a placement fits every cell's GPU
// capacity against the usage currently committed.
func (p *planner) placementFits(j *Job, placement []int) bool {
	for k, r := range placement {
		if r >= 0 && !p.allowed(j, r, k) {
			return false
		}
	}
	return true
}

// swapRefine runs pairwise segment-swap descent: for every job pair
// and every contiguous cell range, exchange the two jobs' placements
// over the range and keep the swap when the joint outcome improves.
// This is the move capacity contention demands — two jobs wanting the
// same region's clean hours must trade them, which no single-job
// re-plan can express — and it returns whether anything improved.
func (p *planner) swapRefine(jobs []Job, evals []*eval) (bool, error) {
	if len(jobs) < 2 {
		return false, nil
	}
	K := len(p.cells)
	improved := false
	for a := 0; a < len(jobs); a++ {
		for b := a + 1; b < len(jobs); b++ {
			for i := 0; i < K; i++ {
				for k := i; k < K; k++ {
					pa := append([]int(nil), evals[a].placement...)
					pb := append([]int(nil), evals[b].placement...)
					changed := false
					for c := i; c <= k; c++ {
						if pa[c] != pb[c] {
							changed = true
						}
						pa[c], pb[c] = pb[c], pa[c]
					}
					if !changed {
						continue
					}
					p.usage.apply(&jobs[a], evals[a], -1)
					p.usage.apply(&jobs[b], evals[b], -1)
					var evA, evB *eval
					var err error
					if p.placementFits(&jobs[b], pb) {
						evB, err = p.evaluateFull(&p.scratch[0], &jobs[b], pb)
						if err == nil {
							p.usage.apply(&jobs[b], evB, +1)
							if p.placementFits(&jobs[a], pa) {
								evA, err = p.evaluateFull(&p.scratch[0], &jobs[a], pa)
							}
							p.usage.apply(&jobs[b], evB, -1)
						}
					}
					p.usage.apply(&jobs[a], evals[a], +1)
					p.usage.apply(&jobs[b], evals[b], +1)
					if err != nil {
						return false, err
					}
					if evA == nil || evB == nil {
						continue
					}
					if jointBetter([]*eval{evA, evB}, []*eval{evals[a], evals[b]}) {
						p.usage.apply(&jobs[a], evals[a], -1)
						p.usage.apply(&jobs[b], evals[b], -1)
						evals[a], evals[b] = evA, evB
						p.usage.apply(&jobs[a], evals[a], +1)
						p.usage.apply(&jobs[b], evals[b], +1)
						improved = true
					}
				}
			}
		}
	}
	return improved, nil
}

// orders lists the job orders to try: input order for baselines, all
// permutations up to 3 jobs (rotations beyond, so the order count
// stays linear in fleet size) for the planner.
func orders(n int, descend bool) [][]int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	if !descend || n == 1 {
		return [][]int{id}
	}
	if n <= 3 {
		var out [][]int
		var permute func(rest, acc []int)
		permute = func(rest, acc []int) {
			if len(rest) == 0 {
				out = append(out, append([]int(nil), acc...))
				return
			}
			for i := range rest {
				next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
				permute(next, append(acc, rest[i]))
			}
		}
		permute(id, nil)
		return out
	}
	out := make([][]int, n)
	for s := 0; s < n; s++ {
		rot := make([]int, n)
		for i := range rot {
			rot[i] = id[(i+s)%n]
		}
		out[s] = rot
	}
	return out
}

// jointBetter compares two joint outcomes: fewer infeasible jobs wins,
// then the lower total objective (migration included).
func jointBetter(a, b []*eval) bool {
	infeas := func(evs []*eval) (n int, cost float64) {
		for _, ev := range evs {
			if !ev.feasible {
				n++
			}
			cost += ev.cost
		}
		return n, cost
	}
	an, ac := infeas(a)
	bn, bc := infeas(b)
	if an != bn {
		return an < bn
	}
	return ac < bc-1e-9*(1+math.Abs(bc))
}

// assemble turns the per-job evaluations into the public Plan.
func assemble(p *planner, jobs []Job, evals []*eval) *Plan {
	out := &Plan{
		Objective: p.opts.Objective,
		HorizonS:  p.horizon,
		Cells:     p.cells,
		Feasible:  true,
	}
	for i := range p.regions {
		out.Regions = append(out.Regions, p.regions[i].Name)
	}
	for i := range jobs {
		ev := evals[i]
		arrivals := map[int]bool{}
		for _, m := range migrations(p.origin(&jobs[i]), ev.placement) {
			arrivals[m] = true
		}
		jp := JobPlan{
			JobID:              jobs[i].ID,
			Temporal:           ev.plan,
			Migrations:         ev.mig.count,
			MigrationDowntimeS: ev.mig.downtimeS,
			MigrationEnergyJ:   ev.mig.energyJ,
			MigrationCarbonG:   ev.mig.carbonG,
			MigrationCostUSD:   ev.mig.costUSD,
			Account: pln.Account{
				EnergyJ: ev.plan.EnergyJ + ev.mig.energyJ,
				CarbonG: ev.plan.CarbonG + ev.mig.carbonG,
				CostUSD: ev.plan.CostUSD + ev.mig.costUSD,
			},
			Feasible: ev.feasible,
		}
		for k, c := range p.cells {
			jp.Assignments = append(jp.Assignments, Assignment{
				Cell: k, StartS: c.StartS, EndS: c.EndS,
				Region: ev.placement[k], Migrate: arrivals[k],
			})
		}
		if !ev.feasible {
			out.Feasible = false
		}
		out.EnergyJ += jp.EnergyJ
		out.CarbonG += jp.CarbonG
		out.CostUSD += jp.CostUSD
		out.Jobs = append(out.Jobs, jp)
	}
	return out
}
