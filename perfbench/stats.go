package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default). xs need not be
// sorted; it is not modified. NaN for an empty input.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples the reported tail percentile must
// leave above it: a tail read from fewer samples is mostly noise.
const tailBeyond = 10

// tail is the highest percentile with at least tailBeyond samples
// beyond it, reported with the percentile and the sample count.
type tail struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

// tailOf picks the order statistic with exactly tailBeyond samples
// above it: the k-th smallest of n samples (1-based k = n-tailBeyond)
// is the 100·k/n-th percentile. With n <= tailBeyond no sample has
// enough beyond it and the maximum is reported with Beyond = 0.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{Value: math.NaN()}
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, Samples: n}
	}
	k := n - tailBeyond
	return tail{Value: s[k-1], Percentile: 100 * float64(k) / float64(n), Samples: n, Beyond: tailBeyond}
}

// openLoop is an open-loop arrival schedule: operation i is due at
// start + i/rate regardless of how earlier operations fared, so a stall
// shows as latency on every operation queued behind it.
type openLoop struct {
	start time.Time
	rate  float64 // operations per second
}

// due is when operation i should be sent.
func (o openLoop) due(i int) time.Time {
	return o.start.Add(time.Duration(float64(i) / o.rate * float64(time.Second)))
}

// opTiming splits one open-loop operation's wall time: latency runs
// from the due time to completion (what a client arriving on schedule
// experiences), lateness from the due time to the actual send (how far
// the generator itself fell behind).
func opTiming(due, sent, done time.Time) (latency, lateness float64) {
	latency = done.Sub(due).Seconds()
	lateness = sent.Sub(due).Seconds()
	if lateness < 0 {
		lateness = 0
	}
	return latency, lateness
}

// interval is a half-open [start, end) stretch in nanoseconds.
type interval struct{ start, end int64 }

// selfTime is a span's duration minus the part of it covered by its
// children. Children may overlap one another (concurrent calls) and may
// stick out of the parent; only their union inside the parent counts.
func selfTime(parent interval, children []interval) int64 {
	var clipped []interval
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered, curS, curE int64
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			curS, curE, open = c.start, c.end, true
		case c.start <= curE:
			curE = max(curE, c.end)
		default:
			covered += curE - curS
			curS, curE = c.start, c.end
		}
	}
	if open {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}
