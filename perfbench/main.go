// Command perfbench is the repository's benchmark. It runs one seeded
// workload against an in-process Perseus server, checks every output it
// gets back, and prints the workload's metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// benchmark-side spans. With --trace 1 the run records a span around
// every call into a layer's public function, replays the workload's
// characterization and planning inputs through the layers directly,
// reads the server's /metrics and /debug/traces, and reports the
// per-layer metrics instead. Workloads, metrics and the reasons for
// them are described in README.md.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload onboard --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"perseus/internal/client"
)

// End-to-end metrics, reported by every workload. Each workload maps
// its own user-visible operation onto latency_s and its own energy or
// carbon outcome onto saving_pct (README.md lists the mapping).
var e2eMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_peak_mb", "MB"},
	{"ok_frac", "ratio"},
	{"latency_s.p50", "s"},
	{"latency_s.tail", "s"},
	{"saving_pct", "%"},
}

// Per-layer metrics, printed by the traced run of every workload; a
// layer the workload does not reach reads 0 there. The result line
// carries only the metrics that every workload measures (everywhere);
// the others are printed and kept in the run record. A metric with a
// span reports the mean duration of the benchmark-side spans of that
// name, unless the workload set it itself.
var layerMetrics = []struct {
	name, unit string
	everywhere bool
	span       string
}{
	{"client.register_s", "s", false, "client.register"},
	{"server.upload_s", "s", false, "server.upload"},
	{"server.upload_bytes", "B", false, ""},
	{"server.char_wait_s", "s", false, "server.char_wait"},
	{"server.straggler_s", "s", false, "server.straggler"},
	{"server.remove_s", "s", false, "server.remove"},
	{"profile.assemble_s", "s", true, "profile.assemble"},
	{"dag.build_s", "s", true, "dag.build"},
	{"frontier.characterize_s", "s", true, "frontier.characterize"},
	{"frontier.points", "count", true, ""},
	{"frontier.step_us", "us", true, ""},
	{"frontier.table_s", "s", true, "frontier.table"},
	{"frontier.lookup_ns", "ns", true, ""},
	{"cluster.iteration_s", "s", false, "cluster.iteration"},
	{"obs.series", "count", true, ""},
	{"obs.exposition_bytes", "B", true, ""},
	{"obs.scrape_s", "s", true, "obs.scrape"},
	{"server.tick_s", "s", false, ""},
	{"server.replan_solve_s", "s", false, ""},
	{"grid.optimize_s", "s", true, "grid.optimize"},
	{"server.version_bumps", "count", false, ""},
	{"server.hub_wake_s", "s", false, ""},
	{"server.hub_broadcasts", "count", false, ""},
	{"server.replan_failures", "count", false, ""},
	{"server.fetch_schedule_s", "s", false, "server.fetch_schedule"},
	{"server.grid_plan_s", "s", false, "server.grid_plan"},
	{"server.cache_hit_ratio", "ratio", false, ""},
	{"server.cache_coalesced", "count", false, ""},
	{"server.cache_evictions", "count", false, ""},
	{"server.in_flight_max", "count", true, ""},
	{"gen.lateness_s", "s", false, ""},
	{"server.cap_s", "s", false, "server.cap"},
	{"fleet.allocate_s", "s", true, "fleet.allocate"},
	{"server.ledger_s", "s", true, "server.ledger"},
	{"server.regions_plan_s", "s", false, "server.regions_plan"},
	{"region.optimize_s", "s", true, "region.optimize"},
	{"region.migrations", "count", false, ""},
	{"region.feasible_frac", "ratio", false, ""},
	{"server.http_4xx", "count", false, ""},
	{"server.http_5xx", "count", false, ""},
}

// A run builds its set-up setupsBefore times before the timed phase,
// keeping the last, and setupsAfter times once the workload has ended;
// setup_s is the median of them all. On a shared machine the builds of
// one moment agree while moments half a minute apart differ by up to
// 40%, so the builds straddle the timed phase.
const (
	setupsBefore = 4
	setupsAfter  = 4
)

// setUp builds a workload's set-up setupsBefore times, timing each
// build for setup_s, and returns the last; each earlier one is torn
// down before the next starts. A failing build tears down what it
// built itself. It leaves b.resetup to time one more build and tear
// it down.
func setUp[T interface{ close() }](b *bench, build func() (T, error)) (T, error) {
	timed := func() (T, error) {
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return s, fmt.Errorf("set-up: %w", err)
		}
		b.setupS = append(b.setupS, time.Since(t0).Seconds())
		return s, nil
	}
	var last T
	for i := 0; i < setupsBefore; i++ {
		if i > 0 {
			last.close()
		}
		s, err := timed()
		if err != nil {
			return s, err
		}
		last = s
	}
	b.resetup = func() error {
		s, err := timed()
		if err == nil {
			s.close()
		}
		return err
	}
	return last, nil
}

// bench is one run: its parameters and everything it measures.
type bench struct {
	workload string
	seed     int64
	seconds  float64
	tr       *tracer // nil in the untraced run
	in       *inputs

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string

	setupS    []float64
	resetup   func() error // times one more set-up build (see setUp)
	latency   []float64 // the workload's primary operation
	savingPct float64
	heapPeak  float64
	named     map[string]metricOut // workload-specific results, by name
	layers    map[string]float64
	tails     map[string]tail

	artifacts map[string][]byte // traced run: extra files to write
}

// metricOut is a value with its unit, as the result line prints it.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// op counts one attempted operation and, if err is set, its failure.
func (b *bench) op(err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, err.Error())
		}
		return false
	}
	return true
}

func (b *bench) setNamed(name string, v float64, unit string) {
	b.named[name] = metricOut{v, unit}
}

// timed records a latency distribution under name (p50 and tail).
func (b *bench) timed(name string, xs []float64) {
	t := tailOf(xs)
	b.tails[name] = t
	b.setNamed(name+".p50", median(xs), "s")
	b.setNamed(name+".tail", t.Value, "s")
}

var workloads = map[string]func(*bench) error{
	"onboard":   runOnboard,
	"control":   runControl,
	"placement": runPlacement,
}

func main() {
	workload := flag.String("workload", "", "workload to run: onboard, control or placement")
	seed := flag.Int64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	rev := flag.String("rev", "unknown", "revision being measured (git describe)")
	out := flag.String("out", ".bench_build/results", "directory for run records")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload onboard|control|placement, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	in, err := newInputs()
	if err != nil {
		fatal(err)
	}
	b := &bench{workload: *workload, seed: *seed, seconds: *seconds, in: in,
		named: map[string]metricOut{}, layers: map[string]float64{}, tails: map[string]tail{},
		artifacts: map[string][]byte{}}
	if *trace == 1 {
		b.tr = newTracer()
	}
	if err := run(b); err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	// Collect the workload's garbage first, so that these builds start
	// from a heap like the first ones did.
	runtime.GC()
	for i := 0; i < setupsAfter; i++ {
		if err := b.resetup(); err != nil {
			fatal(fmt.Errorf("%s: %w", *workload, err))
		}
	}
	if err := report(b, *rev, *out, *trace); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// e2eValues assembles the end-to-end metrics from a finished run.
func (b *bench) e2eValues() map[string]float64 {
	ok := 0.0
	if b.attempted > 0 {
		ok = float64(b.attempted-b.failed) / float64(b.attempted)
	}
	return map[string]float64{
		"setup_s":        median(b.setupS),
		"heap_peak_mb":   b.heapPeak / (1 << 20),
		"ok_frac":        ok,
		"latency_s.p50":  median(b.latency),
		"latency_s.tail": tailOf(b.latency).Value,
		"saving_pct":     b.savingPct,
	}
}

// machine names what was measured and where.
func machine(rev string) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "rev": rev,
	}
}

func report(b *bench, rev, outDir string, trace int) error {
	e2e := b.e2eValues()
	meta := machine(rev)
	fmt.Printf("# perfbench %s seed=%d seconds=%g trace=%d rev=%s cpu=%q nproc=%v gomaxprocs=%v go=%s\n",
		b.workload, b.seed, b.seconds, trace, rev, meta["cpu"], meta["nproc"], meta["gomaxprocs"], meta["go"])
	for _, m := range e2eMetrics {
		fmt.Printf("%-28s %14.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	names := make([]string, 0, len(b.named))
	for n := range b.named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %s\n", b.workload+"/"+n, b.named[n].Value, b.named[n].Unit)
	}
	for n, t := range b.tails {
		fmt.Printf("# %s.tail is p%.1f of %d samples (%d beyond)\n", n, t.Percentile, t.Samples, t.Beyond)
	}
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}

	rec := map[string]any{
		"workload": b.workload, "seed": b.seed, "seconds": b.seconds, "trace": trace,
		"machine": meta, "setup_s": b.setupS, "e2e": e2e, "named": b.named, "tails": b.tails,
		"attempted": b.attempted, "failed": b.failed, "failures": b.failures,
	}
	metricsOut := map[string]metricOut{}
	if trace == 0 {
		for _, m := range e2eMetrics {
			metricsOut[m.name] = metricOut{e2e[m.name], m.unit}
		}
	} else {
		stats := layerStats(b.tr.spans)
		for _, m := range layerMetrics {
			if _, set := b.layers[m.name]; !set && m.span != "" {
				b.layers[m.name] = stats[m.span].MeanS
			}
			if m.everywhere {
				metricsOut[m.name] = metricOut{b.layers[m.name], m.unit}
			}
			fmt.Printf("%-28s %14.6g %s\n", m.name, b.layers[m.name], m.unit)
		}
		self := make([]layerStat, 0, len(stats))
		for _, st := range stats {
			self = append(self, st)
		}
		sort.Slice(self, func(i, j int) bool { return self[i].SelfS > self[j].SelfS })
		fmt.Println("# self time by span (benchmark side):")
		for _, st := range self {
			fmt.Printf("#   %-24s n=%-6d self=%.4fs total=%.4fs\n", st.Name, st.Count, st.SelfS, st.TotalS)
		}
		rec["layers"] = b.layers
		rec["self_time"] = self
		if overhead := tracingOverhead(outDir, b, e2e); overhead != nil {
			rec["tracing_overhead"] = overhead
			for _, m := range e2eMetrics {
				if v, ok := overhead[m.name]; ok {
					fmt.Printf("# tracing overhead %-16s %+.2f%%\n", m.name, 100*v)
				}
			}
		}
	}
	if err := writeRecord(outDir, b, trace, rec); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": b.failed == 0, "attempted": b.attempted, "failed": b.failed, "metrics": metricsOut,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func recordPath(outDir, workload string, seed int64, trace int) string {
	return filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", workload, seed, trace))
}

// writeRecord writes the run record (and, for a traced run, its spans
// and the server's /metrics and /debug/traces snapshots) under outDir.
func writeRecord(outDir string, b *bench, trace int, rec map[string]any) error {
	base := recordPath(outDir, b.workload, b.seed, trace)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(base, "record.json"), data, 0o644); err != nil {
		return err
	}
	if b.tr == nil {
		return nil
	}
	for name, data := range b.artifacts {
		if err := os.WriteFile(filepath.Join(base, name), data, 0o644); err != nil {
			return err
		}
	}
	return writeSpans(filepath.Join(base, "spans.jsonl"), b.tr.spans)
}

// tracingOverhead compares this traced run's end-to-end results with
// the untraced run of the same workload and seed, when its record is
// present: the relative change per metric.
func tracingOverhead(outDir string, b *bench, e2e map[string]float64) map[string]float64 {
	data, err := os.ReadFile(filepath.Join(recordPath(outDir, b.workload, b.seed, 0), "record.json"))
	if err != nil {
		return nil
	}
	var untraced struct {
		E2E map[string]float64 `json:"e2e"`
	}
	if json.Unmarshal(data, &untraced) != nil {
		return nil
	}
	out := map[string]float64{}
	for k, v := range untraced.E2E {
		if v != 0 && !math.IsNaN(v) {
			out[k] = e2e[k]/v - 1
		}
	}
	return out
}

// scrape reads /metrics and times it as an obs.scrape span.
func scrape(cl *client.ServerClient, parent span) (promSnapshot, string, error) {
	sp := parent.child("obs.scrape")
	text, err := cl.FetchMetrics()
	sp.end()
	return parseProm(text), text, err
}

// serverLayers fills the per-layer metrics read from the server's own
// exports: counter and histogram deltas over the timed phase from
// /metrics and the final exposition's size. It keeps the exposition and
// the /debug/traces snapshot for the traced run's record.
func (b *bench) serverLayers(cl *client.ServerClient, before, after promSnapshot, finalText string) error {
	b.layers["obs.series"] = float64(len(after))
	b.layers["obs.exposition_bytes"] = float64(len(finalText))
	b.layers["server.tick_s"] = histMean(before, after, "perseus_controller_tick_duration_seconds")
	// The controller's re-plans run through the instrumented planner as
	// "forecast-mpc"; their replan.solve spans carry the server clock,
	// which the control workload fakes, so the real solve time comes
	// from the planner's latency histogram.
	b.layers["server.replan_solve_s"] = histMean(before, after, "perseus_planner_plan_duration_seconds", `planner="forecast-mpc"`)
	b.layers["server.hub_wake_s"] = histMean(before, after, "perseus_longpoll_wake_seconds")
	b.layers["server.version_bumps"] = delta(before, after, "perseus_schedule_version_bumps_total")
	b.layers["server.hub_broadcasts"] = delta(before, after, "perseus_hub_broadcasts_total")
	b.layers["server.replan_failures"] = delta(before, after, "perseus_controller_replan_failures_total")
	hits := delta(before, after, "perseus_plan_cache_hits_total")
	misses := delta(before, after, "perseus_plan_cache_misses_total")
	if hits+misses > 0 {
		b.layers["server.cache_hit_ratio"] = hits / (hits + misses)
	}
	b.setNamed("cache_lookups", hits+misses, "count")
	b.layers["server.cache_coalesced"] = delta(before, after, "perseus_plan_cache_coalesced_total")
	b.layers["server.cache_evictions"] = delta(before, after, "perseus_plan_cache_evictions_total")
	b.layers["server.http_4xx"] = delta(before, after, "perseus_http_requests_total", `code="4`)
	b.layers["server.http_5xx"] = delta(before, after, "perseus_http_requests_total", `code="5`)
	b.artifacts["metrics.prom"] = []byte(finalText)

	all, err := cl.FetchTraces(0, 0, "")
	if err != nil {
		return err
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	b.artifacts["traces.json"] = data
	return nil
}

// waitFor polls cond every few milliseconds until it holds or the
// timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	for end := time.Now().Add(timeout); !cond(); {
		if time.Now().After(end) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}
