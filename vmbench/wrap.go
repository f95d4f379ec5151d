package main

import (
	"chorusvm/internal/gmi"
	"chorusvm/internal/store"
)

// The seam wrappers time calls into the program from outside it. Each one
// must be transparent: the program probes segments and backends for
// optional interfaces, so a wrapper implements exactly the optional
// interfaces its inner value implements — no more (the program would take
// a path the unwrapped value never offers) and no fewer (a method hidden
// behind the wrapper would silently be skipped). Go cannot add methods to
// a type at run time, so each wrapper is a core type plus one small part
// per optional interface, combined into an anonymous struct that embeds
// only the parts the inner value supports.

// releaser is the optional interface core probes on a unilaterally
// created segment when its cache is destroyed.
type releaser interface{ Release() error }

// segWrap times a gmi.Segment's upcalls.
type segWrap struct {
	inner gmi.Segment
	t     *tracer
}

func (w *segWrap) PullIn(c gmi.Cache, off, size int64, mode gmi.Prot) error {
	start := w.t.now()
	err := w.inner.PullIn(c, off, size, mode)
	w.t.recordAsync(spSegPull, tiePage, off, start)
	return err
}

func (w *segWrap) GetWriteAccess(c gmi.Cache, off, size int64) error {
	return w.inner.GetWriteAccess(c, off, size)
}

func (w *segWrap) PushOut(c gmi.Cache, off, size int64) error {
	start := w.t.now()
	err := w.inner.PushOut(c, off, size)
	w.t.recordAsync(spSegPush, tieWindow, off, start)
	return err
}

// pagerPart forwards gmi.Pager, timing SubmitPull to Complete by handing
// the inner pager a fresh request whose completion ends the span and then
// completes the caller's request.
type pagerPart struct {
	p gmi.Pager
	t *tracer
}

func (pp pagerPart) SubmitPull(r *gmi.PageRequest) {
	start := pp.t.now()
	off := r.Off
	pp.p.SubmitPull(gmi.NewPageRequest(r.Cache, r.Off, r.Size, r.Mode, func(data []byte, granted gmi.Prot, err error) {
		pp.t.recordAsync(spSegPull, tiePage, off, start)
		r.Complete(data, granted, err)
	}))
}

type adviserPart struct{ a gmi.UsageAdviser }

func (ap adviserPart) NoteEvict(off, size int64) { ap.a.NoteEvict(off, size) }
func (ap adviserPart) NoteIdle(off, size int64)  { ap.a.NoteIdle(off, size) }

type releasePart struct{ r releaser }

func (rp releasePart) Release() error { return rp.r.Release() }

// wrapSegment returns a timing wrapper over s with exactly s's optional
// interfaces among gmi.Pager, gmi.UsageAdviser and releaser.
func wrapSegment(s gmi.Segment, t *tracer) gmi.Segment {
	w := &segWrap{inner: s, t: t}
	p, isP := s.(gmi.Pager)
	a, isA := s.(gmi.UsageAdviser)
	r, isR := s.(releaser)
	pp, ap, rp := pagerPart{p, t}, adviserPart{a}, releasePart{r}
	switch {
	case isP && isA && isR:
		return struct {
			*segWrap
			pagerPart
			adviserPart
			releasePart
		}{w, pp, ap, rp}
	case isP && isA:
		return struct {
			*segWrap
			pagerPart
			adviserPart
		}{w, pp, ap}
	case isP && isR:
		return struct {
			*segWrap
			pagerPart
			releasePart
		}{w, pp, rp}
	case isA && isR:
		return struct {
			*segWrap
			adviserPart
			releasePart
		}{w, ap, rp}
	case isP:
		return struct {
			*segWrap
			pagerPart
		}{w, pp}
	case isA:
		return struct {
			*segWrap
			adviserPart
		}{w, ap}
	case isR:
		return struct {
			*segWrap
			releasePart
		}{w, rp}
	}
	return w
}

// allocWrap times segmentCreate upcalls and wraps the segments they
// return. onCreate, when set, sees each inner segment (for its counters).
// With a nil tracer it only notes segments and returns them unwrapped.
type allocWrap struct {
	inner    gmi.SegmentAllocator
	t        *tracer
	onCreate func(gmi.Segment)
}

func (a *allocWrap) SegmentCreate(c gmi.Cache) (gmi.Segment, error) {
	start := a.t.now()
	s, err := a.inner.SegmentCreate(c)
	a.t.recordAsync(spSegCreate, tieWindow, -1, start)
	if err != nil {
		return nil, err
	}
	if a.onCreate != nil {
		a.onCreate(s)
	}
	if a.t == nil {
		return s, nil
	}
	return wrapSegment(s, a.t), nil
}

// backendWrap times a store.Backend's reads and writes under the given
// span names (store.* for a plain backend, tier.* for a tiered one).
// Reads tie to the op whose page they fetch; writes come from writeback
// workers and are background work.
type backendWrap struct {
	inner       store.Backend
	t           *tracer
	read, write int
}

func (w *backendWrap) PageSize() int { return w.inner.PageSize() }

func (w *backendWrap) ReadAt(off int64, buf []byte) error {
	start := w.t.now()
	err := w.inner.ReadAt(off, buf)
	w.t.recordAsync(w.read, tiePage, off, start)
	return err
}

func (w *backendWrap) WriteAt(off int64, data []byte) error {
	start := w.t.now()
	err := w.inner.WriteAt(off, data)
	w.t.recordAsync(w.write, tieNone, off, start)
	return err
}

func (w *backendWrap) Truncate(size int64) error { return w.inner.Truncate(size) }
func (w *backendWrap) Sync() error               { return w.inner.Sync() }
func (w *backendWrap) Pages() int                { return w.inner.Pages() }
func (w *backendWrap) Close() error              { return w.inner.Close() }

type discardPart struct{ d store.Discarder }

func (dp discardPart) DiscardPage(off int64) error { return dp.d.DiscardPage(off) }

type listPart struct{ l store.PageLister }

func (lp listPart) PageOffsets() []int64 { return lp.l.PageOffsets() }

type advisePart struct{ a store.Adviser }

func (ap advisePart) Advise(off, size int64, a store.Advice) { ap.a.Advise(off, size, a) }

// wrapBackend returns a timing wrapper over b with exactly b's optional
// interfaces among store.Discarder, store.PageLister and store.Adviser.
func wrapBackend(b store.Backend, t *tracer, read, write int) store.Backend {
	w := &backendWrap{inner: b, t: t, read: read, write: write}
	d, isD := b.(store.Discarder)
	l, isL := b.(store.PageLister)
	a, isA := b.(store.Adviser)
	dp, lp, ap := discardPart{d}, listPart{l}, advisePart{a}
	switch {
	case isD && isL && isA:
		return struct {
			*backendWrap
			discardPart
			listPart
			advisePart
		}{w, dp, lp, ap}
	case isD && isL:
		return struct {
			*backendWrap
			discardPart
			listPart
		}{w, dp, lp}
	case isD && isA:
		return struct {
			*backendWrap
			discardPart
			advisePart
		}{w, dp, ap}
	case isL && isA:
		return struct {
			*backendWrap
			listPart
			advisePart
		}{w, lp, ap}
	case isD:
		return struct {
			*backendWrap
			discardPart
		}{w, dp}
	case isL:
		return struct {
			*backendWrap
			listPart
		}{w, lp}
	case isA:
		return struct {
			*backendWrap
			advisePart
		}{w, ap}
	}
	return w
}
