package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"perseus/internal/client"
	"perseus/internal/grid"
)

// The control workload's fleet and traffic.
const (
	controlJobs   = 32   // characterized and managed during set-up
	pollersPerJob = 2    // trainers parked on each job's schedule
	controlTicks  = 80   // controller ticks per run, evenly spaced
	offeredRate   = 200  // offered open-loop operations per second
	writeShare    = 0.02 // share of open-loop operations that are writes
	forecastSigma = 0.2  // revising forecast's error scale
	maxReschedule = 10 * time.Second
)

// quarterHourDiurnal is the bundled diurnal trace at 15-minute
// resolution (each hour's rates held for four intervals): one day holds
// controlTicks ticks of one interval each, with the deadline past the
// last, and the run's ticks span the day's clean and dirty hours.
func quarterHourDiurnal() *grid.Signal {
	day := grid.Diurnal24h()
	sig := &grid.Signal{Name: "diurnal-24h-15min"}
	for _, iv := range day.Intervals {
		step := iv.Duration() / 4
		for q := 0; q < 4; q++ {
			sub := iv
			sub.StartS = iv.StartS + float64(q)*step
			sub.EndS = sub.StartS + step
			sig.Intervals = append(sig.Intervals, sub)
		}
	}
	return sig
}

type opKind int

const (
	opSchedule  opKind = iota // conditional schedule GET
	opPlan                    // grid-plan GET (plan cache)
	opStraggler               // straggler notice or recovery
	opCap                     // POST /fleet/cap
	opScrape                  // GET /metrics
	opLedger                  // GET /debug/ledger
)

type ctrlOp struct {
	kind    opKind
	job     int
	capFrac float64 // opCap: share of the uncapped fleet power (0 lifts the cap)
}

// controlInputs is everything the control workload sends, generated
// from the seed before set-up.
type controlInputs struct {
	shapes       []shape
	targetFrac   []float64 // each job's target as a share of what Tmin allows
	forecastSeed int64
	ops          []ctrlOp
}

// controlPlan draws the fleet and an open-loop operation sequence.
// Most operations are trainer reads, in rounds of two for one seeded
// job: a conditional schedule read, then a grid-plan read. A seeded
// writeShare of operations are writes instead, half straggler notices
// or recoveries and half fleet-cap writes (a binding cap and no cap in
// turn). Once a second, at fixed offsets, a /metrics scrape and a
// ledger read run.
func controlPlan(seed int64, nOps int) controlInputs {
	rng := rand.New(rand.NewSource(seed))
	ci := controlInputs{shapes: fleetShapes(rng, controlJobs), forecastSeed: rng.Int63()}
	for range ci.shapes {
		ci.targetFrac = append(ci.targetFrac, 0.3+0.25*rng.Float64())
	}
	capped := false
	round := ctrlOp{kind: opPlan}
	for i := 0; i < nOps; i++ {
		op := ctrlOp{job: rng.Intn(controlJobs)}
		switch {
		case i%offeredRate == 0:
			op.kind = opScrape
		case i%offeredRate == offeredRate/2:
			op.kind = opLedger
		case rng.Float64() < writeShare:
			op.kind = opStraggler
			if rng.Intn(2) == 0 {
				op.kind = opCap
				if capped = !capped; capped {
					op.capFrac = 0.75 + 0.1*rng.Float64()
				}
			}
		case round.kind == opPlan:
			op.kind = opSchedule
			round = op
		default:
			round.kind = opPlan
			op = round
		}
		ci.ops = append(ci.ops, op)
	}
	return ci
}

// receipt is a parked trainer receiving a schedule version.
type receipt struct {
	ver int
	at  time.Time
}

// poller is one trainer holding a conditional long-poll on its job's
// schedule, dispatched in-process through the server's handler.
type poller struct {
	job int
	mu  sync.Mutex
	got []receipt
}

func (p *poller) run(ctx context.Context, b *bench, h http.Handler, path string, ver int) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, path, nil)
		if err != nil {
			b.op(err)
			return
		}
		req.Header.Set("If-None-Match", fmt.Sprintf("%q", "v"+strconv.Itoa(ver)))
		rw := &pollRW{}
		h.ServeHTTP(rw, req)
		if ctx.Err() != nil {
			return
		}
		switch rw.status {
		case http.StatusOK:
			if v := etagVersion(rw.Header().Get("ETag")); v > ver {
				ver = v
				p.mu.Lock()
				p.got = append(p.got, receipt{v, time.Now()})
				p.mu.Unlock()
			}
		case http.StatusNotModified:
		default:
			b.op(fmt.Errorf("parked trainer of job %d: status %d", p.job, rw.status))
			return
		}
	}
}

// firstAtLeast is when the trainer first held version v or later.
func (p *poller) firstAtLeast(v int) (time.Time, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, r := range p.got {
		if r.ver >= v {
			return r.at, true
		}
	}
	return time.Time{}, false
}

// controlServer is one set-up of the control workload.
type controlServer struct {
	h        *harness
	clock    *fakeClock
	opc      *client.ServerClient // operator: in-process set-up and ticks
	ids      []string
	targets  []float64
	deadline float64
	interval float64
	uncapped float64 // fleet power with no cap, watts

	pollers []*poller
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

func (cs *controlServer) close() {
	cs.cancel()
	cs.wg.Wait()
	cs.h.close()
}

// setupControl builds the steady state: every job characterized, the
// diurnal signal and a revising forecast installed, every job managed,
// and every trainer parked on its schedule.
func setupControl(b *bench, ci controlInputs, trainers []trainerPlan) (*controlServer, error) {
	sig := quarterHourDiurnal()
	cs := &controlServer{
		h:        newHarness(runtime.NumCPU()),
		clock:    &fakeClock{now: time.Unix(1_700_000_000, 0)},
		interval: sig.Intervals[0].EndS - sig.Intervals[0].StartS,
	}
	ctx, cancel := context.WithCancel(context.Background())
	cs.cancel = cancel
	cs.h.srv.SetClock(cs.clock.Now)
	handler := cs.h.srv.Handler()
	cs.opc = inprocClient(handler)
	// The deadline lies past the last tick, so every tick re-plans.
	cs.deadline = float64(controlTicks+2) * cs.interval

	for _, tp := range trainers {
		id, err := cs.opc.RegisterJob(tp.Shape.request())
		if err != nil {
			return cs, err
		}
		if err := cs.opc.UploadProfile(id, tp.Profile.PBlocking, tp.Profile.Ms); err != nil {
			return cs, err
		}
		cs.ids = append(cs.ids, id)
	}
	if _, err := cs.opc.UploadGridSignal(*sig, "carbon"); err != nil {
		return cs, err
	}
	if _, err := cs.opc.InstallRevisionsForecast(ci.forecastSeed, forecastSigma, 0, 0, 0); err != nil {
		return cs, err
	}
	vers := make([]int, len(cs.ids))
	for i, id := range cs.ids {
		if err := cs.h.srv.WaitCharacterized(id); err != nil {
			return cs, err
		}
		sch, err := cs.opc.FetchSchedule(id)
		if err != nil {
			return cs, err
		}
		target := math.Floor(ci.targetFrac[i] * cs.deadline / sch.Tmin)
		cs.targets = append(cs.targets, target)
		rp, err := cs.opc.ManageJob(id, target, cs.deadline, "", 0)
		if err != nil {
			return cs, err
		}
		if !rp.Feasible {
			return cs, fmt.Errorf("%s: managed schedule infeasible", id)
		}
		if sch, err = cs.opc.FetchSchedule(id); err != nil {
			return cs, err
		}
		vers[i] = sch.Version
	}
	fs, err := cs.opc.FetchFleetStatus()
	if err != nil {
		return cs, err
	}
	cs.uncapped = fs.PowerW

	for i, id := range cs.ids {
		path := "/jobs/" + id + "/schedule?wait=30"
		for k := 0; k < pollersPerJob; k++ {
			p := &poller{job: i}
			cs.pollers = append(cs.pollers, p)
			cs.wg.Add(1)
			go func() {
				defer cs.wg.Done()
				p.run(ctx, b, handler, path, vers[i])
			}()
		}
	}
	reg := cs.h.srv.Metrics()
	parked := waitFor(time.Minute, func() bool {
		v, _ := reg.GaugeValue("perseus_longpoll_waiters")
		return int(v) == len(cs.pollers)
	})
	if !parked {
		return cs, fmt.Errorf("trainers did not all park")
	}
	return cs, nil
}

// runControl is the control workload: controlTicks controller ticks
// spread over the run, each advancing the fake clock one signal
// interval, beside an open loop of trainer reads and a few writes at
// offeredRate operations per second on at most nproc connections.
func runControl(b *bench) error {
	ci := controlPlan(b.seed, int(math.Ceil(offeredRate*b.seconds))+offeredRate)
	var trainers []trainerPlan
	for _, s := range ci.shapes {
		tp, err := b.in.trainer(s)
		if err != nil {
			return err
		}
		trainers = append(trainers, tp)
	}

	cs, err := setUp(b, func() (*controlServer, error) {
		cs, err := setupControl(b, ci, trainers)
		if err != nil {
			cs.close()
			return nil, err
		}
		return cs, nil
	})
	if err != nil {
		return err
	}
	defer cs.close()
	cl := cs.h.cl

	pre := b.tr.root("pre")
	before, _, err := scrape(cl, pre)
	pre.end()
	if err != nil {
		return err
	}
	smp := startSampler(cs.h.srv)
	start := time.Now()
	end := start.Add(time.Duration(b.seconds * float64(time.Second)))

	var reschedule, fleetReschedule []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reschedule, fleetReschedule = runTicks(b, cs, start)
	}()

	ol := openLoop{start: start, rate: offeredRate}
	var next atomic.Int64
	known := make([]atomic.Int64, controlJobs)
	var stragMu sync.Mutex
	straggling := make([]bool, controlJobs)
	workers := runtime.NumCPU()
	fetch := make([][]float64, workers)
	late := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				due := ol.due(i)
				if i >= len(ci.ops) || !due.Before(end) {
					return
				}
				waitUntil(due)
				op := ci.ops[i]
				id := cs.ids[op.job]
				root := b.tr.root("op")
				sent := time.Now()
				var err error
				switch op.kind {
				case opSchedule:
					sp := root.child("server.fetch_schedule")
					var s client.Schedule
					var changed bool
					s, changed, err = cl.FetchScheduleIfChanged(id, int(known[op.job].Load()), 0)
					sp.end()
					if changed {
						known[op.job].Store(int64(s.Version))
					}
				case opPlan:
					sp := root.child("server.grid_plan")
					var p grid.Plan
					p, err = cl.FetchGridPlan(id, cs.targets[op.job], cs.deadline, "")
					sp.end()
					if err == nil && !p.Feasible {
						err = fmt.Errorf("%s: grid plan infeasible", id)
					}
				case opStraggler:
					stragMu.Lock()
					straggling[op.job] = !straggling[op.job]
					deg := 1.0
					if straggling[op.job] {
						deg = stragglerDegree
					}
					stragMu.Unlock()
					sp := root.child("server.straggler")
					err = cl.SetStraggler(id, "pipeline-1", 0, deg)
					sp.end()
				case opCap:
					sp := root.child("server.cap")
					_, err = cl.SetFleetCap(op.capFrac * cs.uncapped)
					sp.end()
				case opScrape:
					_, _, err = scrape(cl, root)
				case opLedger:
					_, err = checkLedger(cl, root)
				}
				done := time.Now()
				root.end()
				b.op(err)
				lat, lateness := opTiming(due, sent, done)
				late[w] = append(late[w], lateness)
				if op.kind == opSchedule || op.kind == opPlan {
					fetch[w] = append(fetch[w], lat)
				}
			}
		}()
	}
	wg.Wait()
	smp.finish()
	b.heapPeak = smp.heapPeak
	b.layers["server.in_flight_max"] = smp.inFlightPeak

	var fetchAll, lateAll []float64
	for w := range fetch {
		fetchAll = append(fetchAll, fetch[w]...)
		lateAll = append(lateAll, late[w]...)
	}
	b.latency = fleetReschedule
	b.timed("fleet_reschedule_s", fleetReschedule)
	b.timed("fetch_s", fetchAll)
	b.setNamed("fetch_s.p99", quantile(fetchAll, 0.99), "s")
	b.timed("reschedule_s", reschedule)
	b.setNamed("reschedule_s.p99", quantile(reschedule, 0.99), "s")
	b.setNamed("gen.lateness_s.p99", quantile(lateAll, 0.99), "s")
	var sum float64
	for _, l := range lateAll {
		sum += l
	}
	b.layers["gen.lateness_s"] = sum / float64(len(lateAll))
	b.setNamed("offered_rate", offeredRate, "1/s")
	b.setNamed("achieved_rate", float64(len(lateAll))/b.seconds, "1/s")

	post := b.tr.root("post")
	fleetTotals, err := checkLedger(cl, post)
	b.op(err)
	b.savingPct = 100 * fleetTotals.TemporalSavedC / fleetTotals.BlindC
	b.setNamed("temporal_saved_pct", b.savingPct, "%")
	after, text, err := scrape(cl, post)
	post.end()
	if err != nil {
		return err
	}
	if err := b.serverLayers(cl, before, after, text); err != nil {
		return err
	}

	if b.tr != nil {
		// The replay plans the middle of the fleet's target range.
		return replayLayers(b, ci.shapes, 0.85*cs.uncapped, plannerReplay{quarterHourDiurnal(), cs.deadline, 0.425})
	}
	return nil
}

// runTicks drives the controller: tick k is due at (k-½)/controlTicks
// of the run. Each tick advances the fake clock one signal interval and
// ticks synchronously, then waits until every parked trainer holds its
// job's new version. For every trainer whose job the tick bumped it
// records the time from tick start until the trainer held the bumped
// schedule, and per tick the time until the last of them did.
func runTicks(b *bench, cs *controlServer, start time.Time) (perTrainer, perTick []float64) {
	index := map[string]int{}
	for i, id := range cs.ids {
		index[id] = i
	}
	for k := 1; k <= controlTicks; k++ {
		waitUntil(start.Add(time.Duration((float64(k) - 0.5) / controlTicks * b.seconds * float64(time.Second))))
		root := b.tr.root("tick")
		t0 := time.Now()
		cs.clock.Advance(time.Duration(cs.interval * float64(time.Second)))
		sp := root.child("server.tick")
		st, err := cs.opc.TickController()
		sp.end()
		if err == nil && st.LastTickError != "" {
			err = fmt.Errorf("tick %d: %s", k, st.LastTickError)
		}
		want := make([]int, len(cs.ids))
		for _, js := range st.Jobs {
			want[index[js.JobID]] = js.Version
			if err == nil && js.LastError != "" {
				err = fmt.Errorf("tick %d: %s: %s", k, js.JobID, js.LastError)
			}
		}
		sp = root.child("trainer.reschedule")
		var last float64
		for _, p := range cs.pollers {
			if err != nil {
				break
			}
			var at time.Time
			ok := waitFor(maxReschedule, func() bool {
				var held bool
				at, held = p.firstAtLeast(want[p.job])
				return held
			})
			switch {
			case !ok:
				err = fmt.Errorf("tick %d: a trainer of %s never saw version %d", k, cs.ids[p.job], want[p.job])
			case at.After(t0):
				d := at.Sub(t0).Seconds()
				perTrainer = append(perTrainer, d)
				last = max(last, d)
			}
		}
		sp.end()
		root.end()
		if b.op(err) && last > 0 {
			perTick = append(perTick, last)
		}
	}
	return perTrainer, perTick
}
