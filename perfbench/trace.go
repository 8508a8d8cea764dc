package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// spanRec is one benchmark-side span: a call into one layer's public
// function, timed from outside the layer. Spans of one trainer
// lifecycle, controller tick or open-loop operation share a Group.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Group  uint64 `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so the measured loops do
// not branch on tracing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []spanRec
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; the zero value (from a nil tracer) is inert.
type span struct {
	t                 *tracer
	id, parent, group uint64
	name              string
	start             int64
}

// root opens a span that starts a new group.
func (t *tracer) root(name string) span {
	if t == nil {
		return span{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return span{t: t, id: id, group: id, name: name, start: time.Since(t.t0).Nanoseconds()}
}

// child opens a span under p, in p's group.
func (p span) child(name string) span {
	if p.t == nil {
		return span{}
	}
	p.t.mu.Lock()
	p.t.next++
	id := p.t.next
	p.t.mu.Unlock()
	return span{t: p.t, id: id, parent: p.id, group: p.group, name: name, start: time.Since(p.t.t0).Nanoseconds()}
}

// end closes the span and records it.
func (s span) end() {
	if s.t == nil {
		return
	}
	end := time.Since(s.t.t0).Nanoseconds()
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, spanRec{ID: s.id, Parent: s.parent, Group: s.group, Name: s.name, Start: s.start, End: end})
	s.t.mu.Unlock()
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
	MeanS  float64 `json:"mean_s"`
}

// layerStats returns per-name count, total, mean and self time, where a
// span's self time is its duration minus what its children cover.
func layerStats(spans []spanRec) map[string]layerStat {
	kids := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]layerStat{}
	for _, s := range spans {
		st := out[s.Name]
		st.Name = s.Name
		st.Count++
		st.TotalS += float64(s.End-s.Start) / 1e9
		st.SelfS += float64(selfTime(interval{s.Start, s.End}, kids[s.ID])) / 1e9
		out[s.Name] = st
	}
	for k, st := range out {
		st.MeanS = st.TotalS / float64(st.Count)
		out[k] = st
	}
	return out
}

// writeSpans writes spans as JSON lines, oldest first.
func writeSpans(path string, spans []spanRec) error {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// promSnapshot is a parsed Prometheus text exposition: sample value by
// series ("name{labels}").
type promSnapshot map[string]float64

func parseProm(text string) promSnapshot {
	p := promSnapshot{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		p[line[:i]] = v
	}
	return p
}

// sum adds every series of the named metric whose labels contain each
// of the given `key="value-prefix` fragments.
func (p promSnapshot) sum(name string, labelPrefixes ...string) float64 {
	var t float64
	for series, v := range p {
		metric, labels, _ := strings.Cut(series, "{")
		if metric != name {
			continue
		}
		ok := true
		for _, lp := range labelPrefixes {
			if !strings.Contains(labels, lp) {
				ok = false
				break
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// histMean is the mean observation of a histogram's matching series
// between two snapshots (0 when nothing was observed).
func histMean(before, after promSnapshot, name string, labelPrefixes ...string) float64 {
	n := delta(before, after, name+"_count", labelPrefixes...)
	if n <= 0 {
		return 0
	}
	return delta(before, after, name+"_sum", labelPrefixes...) / n
}

func delta(before, after promSnapshot, name string, labelPrefixes ...string) float64 {
	return after.sum(name, labelPrefixes...) - before.sum(name, labelPrefixes...)
}
