package main

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names, one per layer seam the benchmark times. The order is the
// order of the waterfall.
const (
	spMixFork = iota
	spMixExec
	spMixReap
	spPipeWrite
	spPipeRead
	spCoreAccess
	spCorePageout
	spCoreHarvest
	spSegPull
	spSegPush
	spSegCreate
	spStoreRead
	spStoreWrite
	spTierRead
	spTierWrite
	numSpans
)

var spanNames = [numSpans]string{
	"mix.fork", "mix.exec", "mix.reap", "ipc.pipe_write", "ipc.pipe_read",
	"core.access", "core.pageout", "core.harvest",
	"seg.pull", "seg.push", "seg.segment_create",
	"store.read", "store.write", "tier.read", "tier.write",
}

// tie says how a span recorded by a seam wrapper, possibly on a goroutine
// the benchmark does not own, is tied to the op that caused it.
type tie int

const (
	// tiePage ties the span to the open op whose target page it names; a
	// span naming no open op's page (read-ahead, speculation) is
	// background work.
	tiePage tie = iota
	// tieWindow ties the span to the only open op (a synchronous upcall
	// made under that op); with several ops open it is background work.
	tieWindow
	// tieNone always counts the span as background (writeback batches).
	tieNone
)

// span is one timed call, in nanoseconds since the tracer's epoch.
type span struct {
	kind       int
	start, end int64
}

// opRec collects the spans of one op while it is open. A client owns one
// record and reuses it for each of its ops.
type opRec struct {
	mu    sync.Mutex
	open  bool
	start int64 // when the op began
	page  int64 // target page offset, or -1
	spans []span
}

// tracer times calls at the seams the program exposes. A nil *tracer is
// the untraced run: every method is a no-op and no wrapper is installed.
type tracer struct {
	epoch time.Time
	armed atomic.Bool              // spans count only while a round's ops run
	slots [2]atomic.Pointer[opRec] // open ops, one per client

	mu   sync.Mutex
	durs [numSpans]samples // every span, tied or not
	self [numSpans]int64   // self time of tied spans, ns
	bg   [numSpans]int64   // duration of background spans, ns
	ops  int64             // ops closed
	lat  int64             // summed op latency, ns
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// arm starts or stops counting spans, so that set-up and teardown work
// the wrappers see is not reported as the ops' work.
func (t *tracer) arm(on bool) {
	if t != nil {
		t.armed.Store(on)
	}
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// client returns the op record of client slot i (0 or 1).
func (t *tracer) client(i int) *opRec {
	if t == nil {
		return nil
	}
	r := &opRec{page: -1}
	t.slots[i].Store(r)
	return r
}

// begin opens an op on rec; page is its target page offset or -1.
func (t *tracer) begin(rec *opRec, page int64) {
	if t == nil {
		return
	}
	start := t.now()
	rec.mu.Lock()
	rec.open, rec.start, rec.page, rec.spans = true, start, page, rec.spans[:0]
	rec.mu.Unlock()
}

// end closes the op and folds its spans into self times.
func (t *tracer) end(rec *opRec) {
	if t == nil {
		return
	}
	stop := t.now()
	rec.mu.Lock()
	rec.open = false
	spans := rec.spans
	rec.mu.Unlock()
	var self [numSpans]int64
	selfTimes(spans, &self)
	t.mu.Lock()
	t.ops++
	t.lat += stop - rec.start
	for k := range self {
		t.self[k] += self[k]
	}
	t.mu.Unlock()
}

// record adds a span made by the op's own client goroutine; rec is nil
// outside the ops (during set-up), where nothing is recorded.
func (t *tracer) record(rec *opRec, kind int, start int64) {
	if t == nil || rec == nil {
		return
	}
	sp := span{kind: kind, start: start, end: t.now()}
	rec.mu.Lock()
	rec.spans = append(rec.spans, sp)
	rec.mu.Unlock()
	t.mu.Lock()
	t.durs[kind].add(sp.end - sp.start)
	t.mu.Unlock()
}

// recordAsync adds a span made inside the program, on any goroutine, and
// ties it to an open op by the rule how; page is the page offset the call
// names (tiePage only).
func (t *tracer) recordAsync(kind int, how tie, page, start int64) {
	if t == nil || !t.armed.Load() {
		return
	}
	sp := span{kind: kind, start: start, end: t.now()}
	tied := false
	if how != tieNone {
		var only *opRec
		open := 0
		for i := range t.slots {
			r := t.slots[i].Load()
			if r == nil {
				continue
			}
			r.mu.Lock()
			if r.open {
				open++
				// A read of the op's page that began before the op
				// did is read-ahead that happened to be in flight.
				if how == tiePage && r.page == page && sp.start >= r.start && !tied {
					r.spans = append(r.spans, sp)
					tied = true
				}
				only = r
			}
			r.mu.Unlock()
		}
		if how == tieWindow && open == 1 {
			only.mu.Lock()
			if only.open {
				only.spans = append(only.spans, sp)
				tied = true
			}
			only.mu.Unlock()
		}
	}
	t.mu.Lock()
	t.durs[kind].add(sp.end - sp.start)
	if !tied {
		t.bg[kind] += sp.end - sp.start
	}
	t.mu.Unlock()
}

// selfTimes adds to self each span's duration minus the part of it that
// the spans nested inside it cover. Nesting is interval containment: the
// spans of one op either run one after another on a client goroutine or
// sit inside the call that caused them. Sorted by start, longest first,
// the spans inside span i follow it, and a span equal to i counts as
// i's child.
func selfTimes(spans []span, self *[numSpans]int64) {
	sort.Slice(spans, func(a, b int) bool {
		if spans[a].start != spans[b].start {
			return spans[a].start < spans[b].start
		}
		return spans[a].end > spans[b].end
	})
	for i, s := range spans {
		var covered int64
		lo, hi := s.start, s.start // the merged run of children so far
		for _, c := range spans[i+1:] {
			if c.start >= s.end {
				break
			}
			if c.end > s.end {
				continue // overlaps the end: not nested
			}
			if c.start > hi {
				covered += hi - lo
				lo, hi = c.start, c.end
			} else if c.end > hi {
				hi = c.end
			}
		}
		covered += hi - lo
		self[s.kind] += (s.end - s.start) - covered
	}
}

// merge folds another traced round into t.
func (t *tracer) merge(o *tracer) {
	for k := 0; k < numSpans; k++ {
		t.durs[k] = append(t.durs[k], o.durs[k]...)
		t.self[k] += o.self[k]
		t.bg[k] += o.bg[k]
	}
	t.ops += o.ops
	t.lat += o.lat
}

// spanMetrics reports p50, p99 and time per op of every span; ops is the
// number of ops the spans were recorded over.
func (t *tracer) spanMetrics(m metrics, ops int64) {
	for k := 0; k < numSpans; k++ {
		d := t.durs[k]
		var total int64
		for _, v := range d {
			total += v
		}
		m.set(spanNames[k]+"_p50_us", d.quantile(0.50)/1e3, "us")
		m.set(spanNames[k]+"_p99_us", d.quantile(0.99)/1e3, "us")
		m.set(spanNames[k]+"_per_op_us", float64(total)/float64(ops)/1e3, "us")
	}
}

// waterfall prints the op latency beside each layer's self time per op;
// the remainder is latency no timed span accounts for (the benchmark's own
// checks and scheduling gaps). Background work was not tied to any op.
func (t *tracer) waterfall(w io.Writer, name string) {
	if t.ops == 0 {
		return
	}
	n := float64(t.ops)
	per := func(ns int64) float64 { return float64(ns) / n / 1e3 }
	fmt.Fprintf(w, "waterfall %s: %d traced ops, op latency %.3f us/op\n", name, t.ops, per(t.lat))
	fmt.Fprintf(w, "  %-20s %12s %12s\n", "layer", "self us/op", "bg us/op")
	var explained int64
	for k := 0; k < numSpans; k++ {
		if len(t.durs[k]) == 0 {
			continue
		}
		explained += t.self[k]
		fmt.Fprintf(w, "  %-20s %12.3f %12.3f\n", spanNames[k], per(t.self[k]), per(t.bg[k]))
	}
	fmt.Fprintf(w, "  %-20s %12.3f\n", "unexplained", per(t.lat-explained))
}
