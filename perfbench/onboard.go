package main

import (
	"errors"
	"fmt"
	"math"
	"time"

	"perseus/internal/client"
	"perseus/internal/cluster"
	"perseus/internal/gpu"
)

// stragglerDegree is the slowdown the onboarding trainers announce:
// T' = 1.2 × Tmin.
const stragglerDegree = 1.2

// maxCharWait bounds how long a trainer waits for its first schedule
// before the lifecycle counts as failed.
const maxCharWait = 60 * time.Second

// trainerResult is one completed trainer lifecycle.
type trainerResult struct {
	onboardS float64
	removed  bool

	// All-max versus deployed schedule, no straggler.
	maxT, maxE, depT, depE float64
	// All-max versus the T' schedule beside a straggler pipeline.
	maxES, depES float64
}

// runOnboard is the onboarding workload: a closed loop of one trainer
// at a time over one loopback TCP connection.
func runOnboard(b *bench) error {
	// A pass takes ~2.5 s on a 2-core Xeon; two passes a second leaves
	// room for much faster machines.
	plan, err := b.in.onboardPlan(b.seed, 2*int(math.Ceil(b.seconds))+2)
	if err != nil {
		return err
	}
	warm, err := b.in.trainer(classSmall[0])
	if err != nil {
		return err
	}
	if warm.RefTmin, err = b.in.refTmin(warm.Shape); err != nil {
		return err
	}

	// Set-up: start the server and run one small trainer through the
	// whole lifecycle, so the connection is open and lazy state exists.
	h, err := setUp(b, func() (*harness, error) {
		h := newHarness(1)
		if _, err := onboardTrainer(h.cl, b.in.g, warm, span{}); err != nil {
			h.close()
			return nil, fmt.Errorf("warm-up trainer: %w", err)
		}
		return h, nil
	})
	if err != nil {
		return err
	}
	defer h.close()

	pre := b.tr.root("pre")
	before, _, err := scrape(h.cl, pre)
	pre.end()
	if err != nil {
		return err
	}
	smp := startSampler(h.srv)
	var results []trainerResult
	var uploadBytes float64
	uploads := 1 // the warm-up trainer
	end := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(end); i++ {
		if i == len(plan) {
			return fmt.Errorf("ran out of pre-generated trainers after %d", i)
		}
		res, err := onboardTrainer(h.cl, b.in.g, plan[i], b.tr.root("trainer"))
		uploads++
		uploadBytes += float64(plan[i].Profile.Bytes)
		if b.op(err) {
			results = append(results, res)
		}
	}
	smp.finish()
	b.heapPeak = smp.heapPeak
	b.layers["server.in_flight_max"] = smp.inFlightPeak

	// Removed trainers' characterizations keep running in the
	// background; wait for all of them before reading the series count,
	// so that series they leave behind are counted.
	reg := h.srv.Metrics()
	done := waitFor(2*time.Minute, func() bool {
		ok, _ := reg.CounterValue("perseus_characterizations_total")
		return int(ok) >= uploads
	})
	if !done {
		b.op(fmt.Errorf("characterizations did not all finish"))
	}
	post := b.tr.root("post")
	_, err = checkLedger(h.cl, post)
	b.op(err)
	after, text, err := scrape(h.cl, post)
	post.end()
	if err != nil {
		return err
	}
	if err := b.serverLayers(h.cl, before, after, text); err != nil {
		return err
	}
	b.setNamed("leaked_job_series", float64(countJobSeries(after)), "count")

	var onboard []float64
	var maxE, depE, maxES, depES, slow float64
	removed := 0
	for _, r := range results {
		if r.removed {
			removed++
			continue
		}
		onboard = append(onboard, r.onboardS)
		maxE += r.maxE
		depE += r.depE
		maxES += r.maxES
		depES += r.depES
		slow = max(slow, 100*(r.depT/r.maxT-1))
	}
	b.latency = onboard
	b.timed("onboard_s", onboard)
	b.savingPct = 100 * (1 - depE/maxE)
	b.setNamed("intrinsic_saving_pct", b.savingPct, "%")
	b.setNamed("straggler_saving_pct", 100*(1-depES/maxES), "%")
	b.setNamed("slowdown_pct", slow, "%")
	b.setNamed("trainers", float64(len(results)), "count")
	b.setNamed("removed_mid_characterization", float64(removed), "count")

	if b.tr != nil {
		b.layers["server.upload_bytes"] = uploadBytes / float64(max(uploads-1, 1))
		var shapes []shape
		for _, tp := range plan[:min(len(plan), len(passLayout))] {
			shapes = append(shapes, tp.Shape)
		}
		if err := replayLayers(b, shapes, 0, middleRequest()); err != nil {
			return err
		}
	}
	return nil
}

// onboardTrainer runs one trainer's lifecycle: register, upload the
// profile, long-poll until the schedule has a frontier, deploy it and
// simulate an iteration, announce a straggler, fetch and simulate the
// T' schedule, and unregister. A trainer marked for removal is
// unregistered right after its upload instead.
func onboardTrainer(cl *client.ServerClient, g *gpu.Model, tp trainerPlan, root span) (trainerResult, error) {
	defer root.end()
	var res trainerResult
	t0 := time.Now()
	sp := root.child("client.register")
	id, err := cl.RegisterJob(tp.Shape.request())
	sp.end()
	if err != nil {
		return res, err
	}
	sp = root.child("server.upload")
	err = cl.UploadProfile(id, tp.Profile.PBlocking, tp.Profile.Ms)
	sp.end()
	if err != nil {
		return res, err
	}
	if tp.Remove {
		res.removed = true
		sp = root.child("server.remove")
		defer sp.end()
		return res, cl.RemoveJob(id)
	}

	sp = root.child("server.char_wait")
	var sch client.Schedule
	for ver, giveUp := 0, time.Now().Add(maxCharWait); !sch.Ready; {
		if time.Now().After(giveUp) {
			sp.end()
			return res, fmt.Errorf("%s (%s): no schedule after %v", id, tp.Shape, maxCharWait)
		}
		s, changed, err := cl.FetchScheduleIfChanged(id, ver, 30*time.Second)
		if err != nil {
			sp.end()
			return res, err
		}
		if changed {
			sch, ver = s, s.Version
		}
	}
	sp.end()
	res.onboardS = time.Since(t0).Seconds()

	sp = root.child("cluster.iteration")
	spec := cluster.Spec{Schedule: tp.Sched, Profile: tp.Profile.Prof}
	allMax := cluster.PlanAllMax(tp.Sched, g)
	base, err1 := cluster.Simulate(spec, allMax, nil)
	dep, err2 := cluster.Simulate(spec, toPlan(sch.Freqs), nil)
	sp.end()
	if err := errors.Join(err1, err2); err != nil {
		return res, err
	}
	res.maxT, res.maxE, res.depT, res.depE = base.IterTime, base.Energy, dep.IterTime, dep.Energy
	// Characterization works in whole units of τ, so Tmin is all-max's
	// time rounded up to that grid, and a deployed schedule may be slower
	// than all-max by the rounding (slowdown_pct reports how much). The
	// allowance is the benchmark's own Tmin for the shape, never the
	// one the server reports.
	if dep.IterTime > max(base.IterTime, tp.RefTmin)*(1+1e-9) || dep.Energy >= base.Energy {
		return res, fmt.Errorf("%s (%s): deployed schedule %.6gs/%.6gJ against all-max %.6gs/%.6gJ (reference Tmin %.6gs)",
			id, tp.Shape, dep.IterTime, dep.Energy, base.IterTime, base.Energy, tp.RefTmin)
	}

	sp = root.child("server.straggler")
	err = cl.SetStraggler(id, "pipeline-1", 0, stragglerDegree)
	sp.end()
	if err != nil {
		return res, err
	}
	sp = root.child("server.fetch_schedule")
	slow, err := cl.FetchSchedule(id)
	sp.end()
	if err != nil {
		return res, err
	}
	tPrime := stragglerDegree * tp.RefTmin

	// Two data-parallel pipelines, the second a straggler at its own
	// all-max pace: the baseline runs both at all-max, Perseus moves the
	// healthy one to the T' schedule.
	sp = root.child("cluster.iteration")
	spec.DataParallel = 2
	strag := []cluster.Straggler{{Pipeline: 1, Factor: stragglerDegree}}
	baseS, err1 := cluster.Simulate(spec, allMax, strag)
	slowPlan := toPlan(slow.Freqs)
	depS, err2 := cluster.SimulateMulti(spec, func(p int) cluster.Plan {
		if p == 0 {
			return slowPlan
		}
		return allMax
	}, strag)
	sp.end()
	if err := errors.Join(err1, err2); err != nil {
		return res, err
	}
	res.maxES, res.depES = baseS.Energy, depS.Energy
	if got := depS.PerPipeline[0].Time; got > tPrime*(1+1e-9) || depS.IterTime > baseS.IterTime*(1+1e-9) {
		return res, fmt.Errorf("%s (%s): straggler schedule runs %.6gs (iteration %.6gs), T' is %.6gs (all-max iteration %.6gs)",
			id, tp.Shape, got, depS.IterTime, tPrime, baseS.IterTime)
	}

	sp = root.child("server.remove")
	err = cl.RemoveJob(id)
	sp.end()
	return res, err
}

func toPlan(freqs []int) cluster.Plan {
	p := make(cluster.Plan, len(freqs))
	for i, f := range freqs {
		p[i] = gpu.Frequency(f)
	}
	return p
}
