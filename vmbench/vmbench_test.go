package main

import (
	"reflect"
	"strings"
	"testing"

	"chorusvm/internal/gmi"
	"chorusvm/internal/store"
)

// oneRound runs a single round of workload name with ops ops.
func oneRound(t *testing.T, name string, seed int64, ops int, traced bool) round {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	r, err := runRound(w.input(seed, ops), t.TempDir(), traced)
	if err != nil {
		t.Fatalf("%s round: %v", name, err)
	}
	if r.failed != 0 {
		t.Fatalf("%s round: %d of %d ops failed", name, r.failed, r.ops)
	}
	return r
}

// deterministic picks the counts a single-client workload must repeat
// exactly: the VM core, the MMU and the frame allocator.
func deterministic(c counts) map[string]float64 {
	out := map[string]float64{}
	for k, v := range c {
		if strings.HasPrefix(k, "core.") || strings.HasPrefix(k, "mmu.") || strings.HasPrefix(k, "phys.") {
			out[k] = v
		}
	}
	return out
}

// TestTracingChangesNothing checks that on fork and swap an equal seed
// gives identical simulated time and core/mmu/phys counts, run twice
// untraced and once traced: the seam wrappers only time calls.
func TestTracingChangesNothing(t *testing.T) {
	for _, tc := range []struct {
		name string
		ops  int
	}{{"fork", 300}, {"swap", 3000}} {
		t.Run(tc.name, func(t *testing.T) {
			a := oneRound(t, tc.name, 7, tc.ops, false)
			b := oneRound(t, tc.name, 7, tc.ops, false)
			c := oneRound(t, tc.name, 7, tc.ops, true)
			if a.simNanos != b.simNanos || a.simNanos != c.simNanos {
				t.Errorf("simulated time differs: untraced %d and %d, traced %d", a.simNanos, b.simNanos, c.simNanos)
			}
			da, db, dc := deterministic(a.delta), deterministic(b.delta), deterministic(c.delta)
			for k := range da {
				if da[k] != db[k] || da[k] != dc[k] {
					t.Errorf("%s differs: untraced %v and %v, traced %v", k, da[k], db[k], dc[k])
				}
			}
			if c.tr == nil || c.tr.ops != c.ops {
				t.Errorf("traced round closed %v ops, want %d", c.tr, c.ops)
			}
		})
	}
}

// TestMappedReadTraced runs the two-client workload traced, so that the
// race detector sees the tracer shared by both clients and the pager's
// goroutines, and checks that demand pulls were tied to their ops.
func TestMappedReadTraced(t *testing.T) {
	r := oneRound(t, "mapped-read", 3, 4000, true)
	if r.tr.self[spSegPull] == 0 || r.tr.self[spStoreRead] == 0 {
		t.Errorf("no pull or store read tied to an op: seg.pull self %d, store.read self %d",
			r.tr.self[spSegPull], r.tr.self[spStoreRead])
	}
}

// TestSeedChangesStream checks that the generated inputs depend on the
// seed and on nothing else.
func TestSeedChangesStream(t *testing.T) {
	gens := map[string]func(seed int64) any{
		"fork":        func(s int64) any { return forkSchedule(s, 500) },
		"mapped-read": func(s int64) any { return mappedStreams(s, 500) },
		"swap":        func(s int64) any { return swapStream(s, 500) },
	}
	for name, gen := range gens {
		if !reflect.DeepEqual(gen(1), gen(1)) {
			t.Errorf("%s: equal seeds gave different inputs", name)
		}
		if reflect.DeepEqual(gen(1), gen(2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}

// Fake segments and backends covering every combination of the optional
// interfaces the program probes for.
type (
	baseSeg   struct{}
	pagerOnly struct{ done []byte }
	advOnly   struct{}
	relOnly   struct{}
)

func (baseSeg) PullIn(gmi.Cache, int64, int64, gmi.Prot) error { return nil }
func (baseSeg) GetWriteAccess(gmi.Cache, int64, int64) error   { return nil }
func (baseSeg) PushOut(gmi.Cache, int64, int64) error          { return nil }
func (*pagerOnly) SubmitPull(r *gmi.PageRequest)               { r.Complete([]byte("page"), gmi.ProtRW, nil) }
func (advOnly) NoteEvict(int64, int64)                         {}
func (advOnly) NoteIdle(int64, int64)                          {}
func (relOnly) Release() error                                 { return nil }

func segFlags(s any) [3]bool {
	_, p := s.(gmi.Pager)
	_, a := s.(gmi.UsageAdviser)
	_, r := s.(releaser)
	return [3]bool{p, a, r}
}

type (
	baseBackend struct{}
	discOnly    struct{}
	listOnly    struct{}
	adviseOnly  struct{}
)

func (baseBackend) PageSize() int                    { return pageSize }
func (baseBackend) ReadAt(int64, []byte) error       { return nil }
func (baseBackend) WriteAt(int64, []byte) error      { return nil }
func (baseBackend) Truncate(int64) error             { return nil }
func (baseBackend) Sync() error                      { return nil }
func (baseBackend) Pages() int                       { return 0 }
func (baseBackend) Close() error                     { return nil }
func (discOnly) DiscardPage(int64) error             { return nil }
func (listOnly) PageOffsets() []int64                { return nil }
func (adviseOnly) Advise(int64, int64, store.Advice) {}

func backendFlags(b any) [3]bool {
	_, d := b.(store.Discarder)
	_, l := b.(store.PageLister)
	_, a := b.(store.Adviser)
	return [3]bool{d, l, a}
}

// TestWrappersAreTransparent checks that a wrapped segment or backend
// implements exactly the optional interfaces of the value it wraps, and
// that a wrapped pager still completes the caller's request.
func TestWrappersAreTransparent(t *testing.T) {
	p := &pagerOnly{}
	segs := []gmi.Segment{
		baseSeg{},
		struct {
			baseSeg
			*pagerOnly
		}{pagerOnly: p},
		struct {
			baseSeg
			advOnly
		}{},
		struct {
			baseSeg
			relOnly
		}{},
		struct {
			baseSeg
			*pagerOnly
			advOnly
		}{pagerOnly: p},
		struct {
			baseSeg
			*pagerOnly
			relOnly
		}{pagerOnly: p},
		struct {
			baseSeg
			advOnly
			relOnly
		}{},
		struct {
			baseSeg
			*pagerOnly
			advOnly
			relOnly
		}{pagerOnly: p},
	}
	tr := newTracer()
	for _, s := range segs {
		w := wrapSegment(s, tr)
		if got, want := segFlags(w), segFlags(s); got != want {
			t.Errorf("segment %T: wrapped flags %v, want %v", s, got, want)
		}
		if pg, ok := w.(gmi.Pager); ok {
			var got []byte
			pg.SubmitPull(gmi.NewPageRequest(nil, 0, pageSize, gmi.ProtRead, func(data []byte, _ gmi.Prot, _ error) { got = data }))
			if string(got) != "page" {
				t.Errorf("segment %T: wrapped pager completed with %q", s, got)
			}
		}
	}
	backends := []store.Backend{
		baseBackend{},
		struct {
			baseBackend
			discOnly
		}{},
		struct {
			baseBackend
			listOnly
		}{},
		struct {
			baseBackend
			adviseOnly
		}{},
		struct {
			baseBackend
			discOnly
			listOnly
		}{},
		struct {
			baseBackend
			discOnly
			adviseOnly
		}{},
		struct {
			baseBackend
			listOnly
			adviseOnly
		}{},
		struct {
			baseBackend
			discOnly
			listOnly
			adviseOnly
		}{},
	}
	for _, b := range backends {
		w := wrapBackend(b, tr, spStoreRead, spStoreWrite)
		if got, want := backendFlags(w), backendFlags(b); got != want {
			t.Errorf("backend %T: wrapped flags %v, want %v", b, got, want)
		}
	}
}

// TestSelfTimes checks the waterfall arithmetic on nested and sequential
// spans.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{kind: spCoreAccess, start: 0, end: 100},
		{kind: spSegPull, start: 10, end: 90},
		{kind: spTierRead, start: 20, end: 50},
		{kind: spTierRead, start: 40, end: 70},
		{kind: spCoreAccess, start: 100, end: 130},
	}
	var self [numSpans]int64
	selfTimes(spans, &self)
	want := map[int]int64{spCoreAccess: 20 + 30, spSegPull: 80 - 50, spTierRead: 30 + 30}
	for k, v := range want {
		if self[k] != v {
			t.Errorf("%s self = %d, want %d", spanNames[k], self[k], v)
		}
	}
}
