package main

import (
	"math"
	"testing"
	"time"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	got := tailOf(xs)
	if got.Value != 90 || got.Percentile != 90 || got.Samples != 100 || got.Beyond != 10 {
		t.Fatalf("tailOf(1..100) = %+v, want value 90 at p90 of 100 with 10 beyond", got)
	}
	beyond := 0
	for _, x := range xs {
		if x > got.Value {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}
	if xs[0] != 100 {
		t.Fatal("tailOf modified its input")
	}
}

func TestTailSmallSamples(t *testing.T) {
	eleven := []float64{5, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11}
	if got := tailOf(eleven); got.Value != 1 || math.Abs(got.Percentile-100.0/11) > 1e-12 || got.Beyond != 10 {
		t.Fatalf("tailOf(11 samples) = %+v, want the minimum at p9.09", got)
	}
	ten := []float64{3, 1, 2, 4, 5, 6, 7, 8, 9, 10}
	if got := tailOf(ten); got.Value != 10 || got.Percentile != 100 || got.Beyond != 0 || got.Samples != 10 {
		t.Fatalf("tailOf(10 samples) = %+v, want the maximum with nothing beyond", got)
	}
	if got := tailOf(nil); !math.IsNaN(got.Value) {
		t.Fatalf("tailOf(nil) = %+v, want NaN", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestOpenLoopDueAndLateness(t *testing.T) {
	start := time.Unix(100, 0)
	ol := openLoop{start: start, rate: 100}
	for i, want := range []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, time.Second} {
		n := []int{0, 1, 2, 100}[i]
		if got := ol.due(n).Sub(start); got != want {
			t.Errorf("due(%d) = +%v, want +%v", n, got, want)
		}
	}
	// A 25 ms stall holds up the first three operations: each is sent
	// at +25 ms and takes 1 ms. Latency counts from the due time, so
	// the stall shows on every operation queued behind it.
	stallEnd := start.Add(25 * time.Millisecond)
	for i, want := range []struct{ lat, late float64 }{{0.026, 0.025}, {0.016, 0.015}, {0.006, 0.005}} {
		lat, late := opTiming(ol.due(i), stallEnd, stallEnd.Add(time.Millisecond))
		if math.Abs(lat-want.lat) > 1e-12 || math.Abs(late-want.late) > 1e-12 {
			t.Errorf("op %d: latency %v lateness %v, want %v and %v", i, lat, late, want.lat, want.late)
		}
	}
	// Sent early (the sleep returned before the due time): no lateness.
	if _, late := opTiming(start, start.Add(-time.Microsecond), start.Add(time.Millisecond)); late != 0 {
		t.Errorf("early send lateness %v, want 0", late)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		kids []interval
		want int64
	}{
		{nil, 100},
		{[]interval{{10, 30}}, 80},
		{[]interval{{10, 30}, {20, 40}}, 70},            // overlapping children count once
		{[]interval{{10, 30}, {20, 40}, {90, 120}}, 60}, // sticking out: clipped
		{[]interval{{-5, 5}, {50, 60}, {200, 300}}, 85}, // before, inside, after
		{[]interval{{0, 100}, {10, 20}}, 0},             // fully covered
		{[]interval{{40, 50}, {10, 20}, {15, 45}}, 60},  // unsorted input
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("selfTime(%v) = %d, want %d", c.kids, got, c.want)
		}
	}
}

func TestLayerStatsSelfTime(t *testing.T) {
	spans := []spanRec{
		{ID: 1, Group: 1, Name: "trainer", Start: 0, End: 1000},
		{ID: 2, Parent: 1, Group: 1, Name: "client.register", Start: 100, End: 300},
		{ID: 3, Parent: 1, Group: 1, Name: "server.upload", Start: 300, End: 700},
		{ID: 4, Parent: 3, Group: 1, Name: "inner", Start: 400, End: 500},
		{ID: 5, Group: 5, Name: "trainer", Start: 2000, End: 2500},
	}
	st := layerStats(spans)
	want := map[string]layerStat{
		"trainer":         {Name: "trainer", Count: 2, TotalS: 1500e-9, SelfS: 900e-9, MeanS: 750e-9},
		"client.register": {Name: "client.register", Count: 1, TotalS: 200e-9, SelfS: 200e-9, MeanS: 200e-9},
		"server.upload":   {Name: "server.upload", Count: 1, TotalS: 400e-9, SelfS: 300e-9, MeanS: 400e-9},
		"inner":           {Name: "inner", Count: 1, TotalS: 100e-9, SelfS: 100e-9, MeanS: 100e-9},
	}
	for name, w := range want {
		g := st[name]
		if g.Count != w.Count || !near(g.TotalS, w.TotalS) || !near(g.SelfS, w.SelfS) || !near(g.MeanS, w.MeanS) {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-15 }

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	sp := tr.root("trainer")
	sp.child("client.register").end()
	sp.end()
	if sp != (span{}) {
		t.Fatalf("nil tracer produced span %+v", sp)
	}
}

func TestPromSnapshot(t *testing.T) {
	before := parseProm(`# HELP x
perseus_http_requests_total{route="/jobs",method="POST",code="200"} 3
perseus_http_requests_total{route="/jobs/{id}",method="GET",code="404"} 1
perseus_wait_seconds_sum 1.5
perseus_wait_seconds_count 3
`)
	after := parseProm(`perseus_http_requests_total{route="/jobs",method="POST",code="200"} 5
perseus_http_requests_total{route="/jobs/{id}",method="GET",code="404"} 4
perseus_http_requests_total{route="/jobs/{id}",method="GET",code="503"} 2
perseus_wait_seconds_sum 3.5
perseus_wait_seconds_count 5
`)
	if got := delta(before, after, "perseus_http_requests_total", `code="4`); got != 3 {
		t.Errorf("4xx delta %v, want 3", got)
	}
	if got := delta(before, after, "perseus_http_requests_total", `code="5`); got != 2 {
		t.Errorf("5xx delta %v, want 2", got)
	}
	if got := histMean(before, after, "perseus_wait_seconds"); got != 1 {
		t.Errorf("histogram mean over the window %v, want 1", got)
	}
	if got := histMean(after, after, "perseus_wait_seconds"); got != 0 {
		t.Errorf("empty window mean %v, want 0", got)
	}
	if len(after) != 5 {
		t.Errorf("%d series, want 5", len(after))
	}
}

func TestEtagVersion(t *testing.T) {
	for tag, want := range map[string]int{`"v12"`: 12, `"v0"`: 0, `W/"v3"`: -1, ``: -1, `"x1"`: -1} {
		if got := etagVersion(tag); got != want {
			t.Errorf("etagVersion(%q) = %d, want %d", tag, got, want)
		}
	}
}
