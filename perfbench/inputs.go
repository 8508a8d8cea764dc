package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"perseus/internal/client"
	"perseus/internal/dag"
	"perseus/internal/frontier"
	"perseus/internal/gpu"
	"perseus/internal/model"
	"perseus/internal/partition"
	"perseus/internal/profile"
	"perseus/internal/sched"
)

// gpuName is the accelerator every generated job runs on.
const gpuName = "A100-PCIe"

// mbSize is the per-microbatch sample count of every generated job.
const mbSize = 4

// shape is one training job as the benchmark generates it.
type shape struct {
	Model  string  `json:"model"`
	Stages int     `json:"stages"`
	Micro  int     `json:"microbatches"`
	Unit   float64 `json:"unit_s"`
}

func (s shape) String() string {
	return fmt.Sprintf("%s/%dx%d/τ=%gms", s.Model, s.Stages, s.Micro, s.Unit*1e3)
}

func (s shape) request() client.JobRequest {
	return client.JobRequest{Schedule: "1f1b", Stages: s.Stages, Microbatches: s.Micro, GPU: gpuName, Unit: s.Unit}
}

// costClass groups shapes of similar characterization cost.
type costClass []shape

// Onboarding cost classes, sized by characterization time on a 2-core
// Xeon: small ~10-35 ms, mid ~70 ms, heavy ~140-230 ms, and a
// paper-scale frontier (τ = 1 ms) at ~0.8 s. The classes where the
// median and the tail fall (mid and paper) are single shapes: a
// percentile taken across shapes of different cost would move with
// noise in any of them.
var (
	classSmall = costClass{
		{"gpt3-1.3b", 2, 4, 5e-3}, {"gpt3-1.3b", 4, 4, 5e-3}, {"gpt3-1.3b", 8, 4, 5e-3},
		{"bert-1.3b", 4, 8, 2e-3}, {"t5-0.7b", 4, 8, 2e-3}, {"bert-1.3b", 8, 16, 2e-3},
	}
	classMid   = costClass{{"gpt3-1.3b", 8, 16, 5e-3}}
	classHeavy = costClass{
		{"gpt3-2.7b", 8, 16, 2e-3}, {"bloom-3b", 8, 16, 2e-3}, {"gpt3-2.7b", 4, 8, 2e-3}, {"bloom-3b", 4, 8, 2e-3},
	}
	classPaper = costClass{{"gpt3-1.3b", 4, 16, 1e-3}}
)

// passLayout is one onboarding pass: which class fills each slot. With
// one small trainer removed per pass, a pass measures 11 lifecycles:
// small at 0-36% of the sorted samples, mid at 36-64% (holding the
// median), heavy at 64-82% and paper-scale at 82-100%. That holds the
// tail percentile, 100·(1-10/n), for any run of 56 or more samples.
var passLayout = []costClass{
	classSmall, classSmall, classSmall, classSmall, classSmall, // the first smallSlots slots
	classMid, classMid, classMid,
	classHeavy, classHeavy,
	classPaper, classPaper,
}

// smallSlots counts passLayout's leading small-class slots, the ones a
// pass may remove mid-characterization (cheap enough that churn does
// not swamp the next trainer's characterization).
const smallSlots = 5

// profileInput is a pre-generated profiler upload plus the profile the
// server will assemble from it (the benchmark verifies deployed
// schedules against it).
type profileInput struct {
	Ms        []profile.Measurement
	PBlocking float64
	Bytes     int // JSON upload body size
	Prof      *profile.Profile
}

// inputs caches generated profiles (jobs with the same model and stage
// count share one) and the benchmark's own Tmin per shape.
type inputs struct {
	g        *gpu.Model
	profiles map[string]*profileInput
	tmins    map[shape]float64
}

func newInputs() (*inputs, error) {
	g, err := gpu.ByName(gpuName)
	if err != nil {
		return nil, err
	}
	return &inputs{g: g, profiles: map[string]*profileInput{}, tmins: map[shape]float64{}}, nil
}

// refTmin is a shape's Tmin as the benchmark characterizes it itself,
// on the path the server takes (dag.Build with unit costs, then
// frontier.Characterize at the shape's τ): the reference the onboarding
// checks hold deployed schedules to, rather than the Tmin the server
// under test reports.
func (in *inputs) refTmin(s shape) (float64, error) {
	if t, ok := in.tmins[s]; ok {
		return t, nil
	}
	tp, err := in.trainer(s)
	if err != nil {
		return 0, err
	}
	g, err := dag.Build(tp.Sched, func(sched.Op) int64 { return 1 })
	if err != nil {
		return 0, err
	}
	f, err := frontier.Characterize(g, tp.Profile.Prof, frontier.Options{Unit: s.Unit})
	if err != nil {
		return 0, err
	}
	in.tmins[s] = f.Tmin()
	return f.Tmin(), nil
}

// profile returns the analytic profiler sweep for a shape: every
// frequency of every stage's forward and backward computation, the
// measurements a client-side profiler would upload.
func (in *inputs) profile(s shape) (*profileInput, error) {
	key := fmt.Sprintf("%s/%d", s.Model, s.Stages)
	if p, ok := in.profiles[key]; ok {
		return p, nil
	}
	m, err := model.ByName(s.Model)
	if err != nil {
		return nil, err
	}
	part, err := partition.MinImbalance(m.LayerCosts(), s.Stages)
	if err != nil {
		return nil, err
	}
	w := profile.Workload{Model: m, GPU: in.g, Stages: s.Stages, Chunks: 1,
		Partition: part.Boundaries, MicrobatchSize: mbSize, TensorParallel: 1}
	refs, err := w.StageRefTimes()
	if err != nil {
		return nil, err
	}
	g := in.g
	var ms []profile.Measurement
	for v, ref := range refs {
		for _, f := range g.Frequencies() {
			bwd := m.BwdFactor * ref
			ms = append(ms,
				profile.Measurement{Virtual: v, Kind: sched.Forward, Freq: f,
					Time: g.Time(ref, f, g.MemBoundFwd), Energy: g.Energy(ref, f, g.MemBoundFwd)},
				profile.Measurement{Virtual: v, Kind: sched.Backward, Freq: f,
					Time: g.Time(bwd, f, g.MemBoundBwd), Energy: g.Energy(bwd, f, g.MemBoundBwd)})
		}
	}
	pb := profile.MeasurePBlocking(g)
	prof, err := profile.Assemble(g, pb, ms)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(uploadBody(pb, ms))
	if err != nil {
		return nil, err
	}
	p := &profileInput{Ms: ms, PBlocking: pb, Bytes: len(body), Prof: prof}
	in.profiles[key] = p
	return p, nil
}

// uploadBody mirrors the JSON the client sends on profile upload, so
// the benchmark can report upload size without instrumenting the client.
func uploadBody(pb float64, ms []profile.Measurement) any {
	type meas struct {
		Virtual int     `json:"virtual"`
		Kind    string  `json:"kind"`
		Freq    int     `json:"freq_mhz"`
		Time    float64 `json:"time_s"`
		Energy  float64 `json:"energy_j"`
	}
	out := struct {
		PBlocking    float64 `json:"p_blocking_w"`
		Measurements []meas  `json:"measurements"`
	}{PBlocking: pb}
	for _, m := range ms {
		kind := "forward"
		if m.Kind == sched.Backward {
			kind = "backward"
		}
		out.Measurements = append(out.Measurements, meas{m.Virtual, kind, int(m.Freq), m.Time, m.Energy})
	}
	return out
}

// trainerPlan is one onboarding trainer's pre-generated inputs.
type trainerPlan struct {
	Shape   shape
	Remove  bool // removed right after upload, before its schedule arrives
	Profile *profileInput
	Sched   *sched.Schedule
	RefTmin float64 // onboarding trainers: refTmin of Shape
}

// dealer deals shapes from a seeded shuffled deck per class,
// reshuffled when empty, so over a run every shape of a class appears
// about equally often whatever the seed.
type dealer struct {
	rng   *rand.Rand
	decks map[*shape][]shape // keyed by the class's first element
}

func newDealer(rng *rand.Rand) *dealer { return &dealer{rng: rng, decks: map[*shape][]shape{}} }

func (d *dealer) deal(cls costClass) shape {
	deck := d.decks[&cls[0]]
	if len(deck) == 0 {
		deck = append([]shape(nil), cls...)
		d.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	}
	d.decks[&cls[0]] = deck[1:]
	return deck[0]
}

// onboardPlan generates passes of trainers: each pass fills passLayout
// in a seeded order from the class decks, and removes one seeded
// small-class trainer right after its upload. Every trainer carries its
// shape's reference Tmin.
func (in *inputs) onboardPlan(seed int64, passes int) ([]trainerPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	d := newDealer(rng)
	var out []trainerPlan
	for p := 0; p < passes; p++ {
		order := rng.Perm(len(passLayout))
		removeSlot := rng.Intn(smallSlots)
		for _, slot := range order {
			tp, err := in.trainer(d.deal(passLayout[slot]))
			if err != nil {
				return nil, err
			}
			tp.Remove = slot == removeSlot
			if tp.RefTmin, err = in.refTmin(tp.Shape); err != nil {
				return nil, err
			}
			out = append(out, tp)
		}
	}
	return out, nil
}

func (in *inputs) trainer(s shape) (trainerPlan, error) {
	prof, err := in.profile(s)
	if err != nil {
		return trainerPlan{}, err
	}
	sc, err := sched.OneFOneB(s.Stages, s.Micro)
	if err != nil {
		return trainerPlan{}, err
	}
	return trainerPlan{Shape: s, Profile: prof, Sched: sc}, nil
}

// fleetShapes deals n small-class shapes (the control fleet,
// characterized during set-up).
func fleetShapes(rng *rand.Rand, n int) []shape {
	d := newDealer(rng)
	out := make([]shape, n)
	for i := range out {
		out[i] = d.deal(classSmall)
	}
	return out
}
