package main

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"perseus/internal/client"
	"perseus/internal/server"
)

// harness is one in-process server behind a real loopback listener,
// with a client limited to conns TCP connections.
type harness struct {
	srv *server.Server
	ts  *httptest.Server
	tr  *http.Transport
	cl  *client.ServerClient
}

func newHarness(conns int) *harness {
	srv := server.New()
	ts := httptest.NewServer(srv.Handler())
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	cl := client.NewServerClient(ts.URL)
	cl.HTTP = &http.Client{Transport: tr}
	return &harness{srv: srv, ts: ts, tr: tr, cl: cl}
}

func (h *harness) close() {
	h.tr.CloseIdleConnections()
	h.ts.Close()
}

// inprocClient dispatches requests straight into a handler, with no
// listener: the operator's controller ticks and the parked trainers of
// the control workload, whose count must not be bounded by sockets.
func inprocClient(hd http.Handler) *client.ServerClient {
	cl := client.NewServerClient("http://perfbench")
	cl.HTTP = &http.Client{Transport: inprocTransport{hd}}
	return cl
}

type inprocTransport struct{ h http.Handler }

func (t inprocTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// pollRW keeps a parked trainer's response status and headers (the
// schedule version rides in the ETag) and discards the body.
type pollRW struct {
	hdr    http.Header
	status int
}

func (w *pollRW) Header() http.Header {
	if w.hdr == nil {
		w.hdr = http.Header{}
	}
	return w.hdr
}

func (w *pollRW) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(p), nil
}

func (w *pollRW) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

// etagVersion reads N from a `"vN"` schedule entity tag (-1 if absent).
func etagVersion(tag string) int {
	tag = strings.TrimSuffix(strings.TrimPrefix(tag, `"`), `"`)
	if !strings.HasPrefix(tag, "v") {
		return -1
	}
	n, err := strconv.Atoi(tag[1:])
	if err != nil {
		return -1
	}
	return n
}

// fakeClock is the server's planning clock: the control workload
// advances it one signal interval per controller tick.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// sampler polls the process's live heap (as marked by the last GC) and
// the server's in-flight request gauge during the timed phase and
// keeps their peaks.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	heapPeak, inFlightPeak float64
}

func startSampler(srv *server.Server) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			s.heapPeak = max(s.heapPeak, float64(sample[0].Value.Uint64()))
			if v, ok := srv.Metrics().GaugeValue("perseus_http_in_flight_requests"); ok {
				s.inFlightPeak = max(s.inFlightPeak, v)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and waits for it; the peaks are then final.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// spinWindow is how long before a due time waitUntil stops sleeping and
// yields in a loop instead: timer wake-ups on a loaded machine run late
// by tens to hundreds of microseconds, which would otherwise show as
// latency of the system under test.
const spinWindow = time.Millisecond

// waitUntil returns at t (or at once if t has passed).
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
