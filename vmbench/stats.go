package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// samples holds durations in nanoseconds.
type samples []int64

func (s *samples) add(ns int64) { *s = append(*s, ns) }

// quantile returns the q-quantile (nearest rank) in nanoseconds, 0 when
// empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(c[i])
}

// opSample is one op: when it completed, counted from the start of the
// round's op phase, and how long it took.
type opSample struct{ end, lat time.Duration }

// opLog records a client's ops.
type opLog struct {
	start time.Time
	ops   []opSample
}

func newOpLog(start time.Time, n int) *opLog {
	return &opLog{start: start, ops: make([]opSample, 0, n)}
}

// add records an op that began at began and has just completed.
func (l *opLog) add(began time.Time) {
	now := time.Now()
	l.ops = append(l.ops, opSample{end: now.Sub(l.start), lat: now.Sub(began)})
}

// windowLen is the slice of an op phase over which throughput and
// latency percentiles are taken. The machine's speed varies in bursts
// shorter than a round; the median over many short windows is what a
// burst does not move, where a round's mean would.
const windowLen = 250 * time.Millisecond

// window is what the ops completed within one windowLen measured.
type window struct {
	rate     float64 // ops per second
	p50, p99 float64 // op latency, ns
}

// windows splits the ops of every client of a round into consecutive
// windowLen slices by completion time, dropping the last, partial one; a
// round shorter than one window is one window. A window's rate is its
// completions after the first over the time from the first to the last.
func windows(logs ...*opLog) []window {
	var all []opSample
	for _, l := range logs {
		all = append(all, l.ops...)
	}
	if len(all) == 0 {
		return nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	last := all[len(all)-1].end
	n := int(last / windowLen)
	if n == 0 {
		return []window{summarize(all)}
	}
	out := make([]window, 0, n)
	i := 0
	for w := 1; w <= n; w++ {
		j := i
		for j < len(all) && all[j].end < time.Duration(w)*windowLen {
			j++
		}
		if j-i >= 2 {
			out = append(out, summarize(all[i:j]))
		}
		i = j
	}
	return out
}

func summarize(ops []opSample) window {
	lat := make(samples, len(ops))
	for i, o := range ops {
		lat[i] = int64(o.lat)
	}
	w := window{p50: lat.quantile(0.50), p99: lat.quantile(0.99)}
	if span := ops[len(ops)-1].end - ops[0].end; span > 0 {
		w.rate = float64(len(ops)-1) / span.Seconds()
	}
	return w
}

// median of a set of values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its value and unit.
type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// print writes every metric by name with its unit, sorted, then the
// result as one JSON line.
func (r result) print(w io.Writer) error {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
