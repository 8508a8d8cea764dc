package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"perseus/internal/grid"
	"perseus/internal/region"
)

// placementFleet is the fleet GET /regions/plan places. The plan's
// cost grows steeply with job count and frontier size, so the fleet is
// fixed and the seed varies home regions and requests.
var placementFleet = []shape{
	{"gpt3-1.3b", 2, 4, 5e-3}, {"gpt3-1.3b", 4, 4, 5e-3}, {"gpt3-1.3b", 8, 4, 5e-3},
}

// placeReq is one GET /regions/plan request.
type placeReq struct {
	DeadlineS  float64
	TargetFrac float64 // share of the iterations the slowest job fits by the deadline at Tmin
	DowntimeS  float64
	MigrationJ float64
}

// placementBlock is how many requests one stratified block holds.
const placementBlock = 16

// Plan deadlines span [deadlineMinH, deadlineMinH+deadlineSpanH) hours.
// A plan's cost grows steeply with its deadline (~15 ms at 8 h, ~1 s at
// 24 h on a 2-core Xeon); a narrow band keeps the median and the tail
// of one run's plan times from swinging with the mix of deadlines.
const (
	deadlineMinH  = 12
	deadlineSpanH = 4
)

// placementPlan draws each job's home region and n distinct plan
// requests: deadlines of 12-16 h, targets at 30-60% of what the slowest
// job could do by then, migration downtime up to 30 min and transfer
// energy of 0.1-2 MJ. The requests come in blocks of placementBlock
// that each cover every parameter's range in equal strata (a Latin
// hypercube), so any seed's run asks for the same mix of plans.
func placementPlan(seed int64, n int) ([]int, []placeReq) {
	rng := rand.New(rand.NewSource(seed))
	homes := make([]int, len(placementFleet))
	for i := range homes {
		homes[i] = rng.Intn(2)
	}
	strata := func() []float64 {
		u := make([]float64, placementBlock)
		for i, k := range rng.Perm(placementBlock) {
			u[i] = (float64(k) + rng.Float64()) / placementBlock
		}
		return u
	}
	var reqs []placeReq
	for len(reqs) < n {
		dl, tf, dt, mj := strata(), strata(), strata(), strata()
		for i := 0; i < placementBlock; i++ {
			reqs = append(reqs, placeReq{
				DeadlineS:  3600 * (deadlineMinH + deadlineSpanH*dl[i]),
				TargetFrac: 0.3 + 0.3*tf[i],
				DowntimeS:  1800 * dt[i],
				MigrationJ: 1e5 + 1.9e6*mj[i],
			})
		}
	}
	return homes, reqs[:n]
}

// middleRequest is a grid.Optimize replay at the middle of the
// placement requests' deadline and target ranges, on the west region's
// signal; workloads without planner inputs of their own replay it too.
func middleRequest() plannerReplay {
	return plannerReplay{region.PhaseShiftedPair(1)[0].Signal, 3600 * (deadlineMinH + deadlineSpanH/2.0), 0.45}
}

// setupPlacement registers the phase-shifted region pair (each region
// can hold the whole fleet), characterizes the fleet and places every
// job in its home region. It returns the slowest job's Tmin.
func setupPlacement(h *harness, regs []region.Region, trainers []trainerPlan, homes []int) (float64, error) {
	for _, r := range regs {
		if _, err := h.cl.RegisterRegion(r.Name, r.GPUs, r.CapW, *r.Signal); err != nil {
			return 0, err
		}
	}
	var ids []string
	for _, tp := range trainers {
		id, err := h.cl.RegisterJob(tp.Shape.request())
		if err != nil {
			return 0, err
		}
		if err := h.cl.UploadProfile(id, tp.Profile.PBlocking, tp.Profile.Ms); err != nil {
			return 0, err
		}
		ids = append(ids, id)
	}
	var tmin float64
	for i, id := range ids {
		if err := h.srv.WaitCharacterized(id); err != nil {
			return 0, err
		}
		sch, err := h.cl.FetchSchedule(id)
		if err != nil {
			return 0, err
		}
		tmin = max(tmin, sch.Tmin)
		if _, err := h.cl.PlaceJob(id, regs[homes[i]].Name); err != nil {
			return 0, err
		}
	}
	return tmin, nil
}

// runPlacement is the placement workload: one operator client in a
// closed loop of GET /regions/plan requests, each with distinct
// parameters, so nothing is served from a cache.
func runPlacement(b *bench) error {
	shapes := placementFleet
	homes, reqs := placementPlan(b.seed, int(200*math.Ceil(b.seconds))+10)
	var trainers []trainerPlan
	gpus := 0
	for _, s := range shapes {
		tp, err := b.in.trainer(s)
		if err != nil {
			return err
		}
		trainers = append(trainers, tp)
		gpus += s.Stages
	}
	regs := region.PhaseShiftedPair(gpus)

	var tmin float64
	h, err := setUp(b, func() (*harness, error) {
		h := newHarness(1)
		var err error
		if tmin, err = setupPlacement(h, regs, trainers, homes); err != nil {
			h.close()
			return nil, err
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
	blindRate := regs[0].Signal.MeanCarbonGPerKWh() / grid.JoulesPerKWh
	smp := startSampler(h.srv)
	var lat, carbon []float64
	var carbonSum, blindSum float64
	var migrations, feasible, plans int
	end := time.Now().Add(time.Duration(b.seconds * float64(time.Second)))
	for i := 0; time.Now().Before(end); i++ {
		if i == len(reqs) {
			return fmt.Errorf("ran out of pre-generated requests after %d", i)
		}
		rq := reqs[i]
		target := math.Floor(rq.TargetFrac * rq.DeadlineS / tmin)
		root := b.tr.root("plan")
		sp := root.child("server.regions_plan")
		t0 := time.Now()
		p, err := h.cl.FetchRegionsPlan(target, rq.DeadlineS, "carbon", rq.DowntimeS, rq.MigrationJ)
		d := time.Since(t0).Seconds()
		sp.end()
		root.end()
		if err == nil {
			plans++
			if p.Feasible {
				feasible++
			} else {
				err = fmt.Errorf("regions plan %d (target %g, deadline %gs) infeasible", i, target, rq.DeadlineS)
			}
			for _, j := range p.Jobs {
				migrations += j.Migrations
			}
		}
		if !b.op(err) {
			continue
		}
		lat = append(lat, d)
		carbon = append(carbon, p.CarbonG)
		carbonSum += p.CarbonG
		blindSum += p.EnergyJ * blindRate
	}
	smp.finish()
	b.heapPeak = smp.heapPeak
	b.layers["server.in_flight_max"] = smp.inFlightPeak

	b.latency = lat
	b.timed("placement_s", lat)
	b.savingPct = 100 * (1 - carbonSum/blindSum)
	b.setNamed("placement_carbon_g", median(carbon), "g")
	b.setNamed("placement_saving_vs_blind_pct", b.savingPct, "%")
	if plans > 0 {
		b.layers["region.migrations"] = float64(migrations) / float64(plans)
		b.layers["region.feasible_frac"] = float64(feasible) / float64(plans)
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

	if b.tr != nil {
		return replayLayers(b, shapes, 0, middleRequest())
	}
	return nil
}
