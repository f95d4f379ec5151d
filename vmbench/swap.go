package main

import (
	"math/rand"
	"sync"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
	"chorusvm/internal/tier"
)

// The swap workload: an anonymous region twice the size of memory, paged
// to a tiered swap store with a journaled cold tier, under a skewed
// access stream with sequential bursts. Reclaim and harvest are driven by
// the client the way the pressure ablation drives them.
const (
	swapFrames       = 1024
	swapPages        = 2048
	swapBase         = gmi.VA(0x2000_0000)
	swapZipfS        = 1.2
	swapZipfV        = 8
	swapBurstEvery   = 256 // Zipf accesses between bursts
	swapBurstLen     = 64  // pages per sequential burst
	swapWriteOdds    = 4   // one access in this many writes
	swapHarvestEvery = 128 // accesses between PolicyTick calls
	swapStampLen     = 16  // bytes of the version stamp an access reads or writes
)

// swapAccess is one op: a read or a write of page.
type swapAccess struct {
	page  int32
	write bool
}

func swapInput(seed int64, ops int) func(string, *tracer) (system, error) {
	in := swapStream(seed, ops)
	return func(dir string, t *tracer) (system, error) { return newSwapSystem(in, dir, t) }
}

// swapStream generates the seeded accesses: Zipf-distributed pages with a
// sequential burst after every swapBurstEvery of them, one in
// swapWriteOdds a write.
func swapStream(seed int64, ops int) []swapAccess {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, swapZipfS, swapZipfV, swapPages-1)
	in := make([]swapAccess, 0, ops)
	scan := int32(0)
	for len(in) < ops {
		for i := 0; i < swapBurstEvery && len(in) < ops; i++ {
			in = append(in, swapAccess{page: int32(zipf.Uint64())})
		}
		for i := 0; i < swapBurstLen && len(in) < ops; i++ {
			in = append(in, swapAccess{page: scan})
			scan = (scan + 1) % swapPages
		}
	}
	for i := range in {
		in[i].write = rng.Intn(swapWriteOdds) == 0
	}
	return in
}

type swapSystem struct {
	in    []swapAccess
	t     *tracer
	clock *cost.Clock
	pvm   *core.PVM
	ctx   gmi.Context
	cache gmi.Cache
	rec   *opRec // the client's op record while run is going on

	mu       sync.Mutex
	segs     []*seg.Segment  // swap segments the allocator created
	backends []store.Backend // their backends, unwrapped

	version [swapPages]uint64 // the model: last version written per page
	next    uint64
	buf     []byte
	scratch []byte
}

func newSwapSystem(in []swapAccess, dir string, t *tracer) (*swapSystem, error) {
	s := &swapSystem{in: in, t: t, clock: cost.New(),
		buf: make([]byte, swapStampLen), scratch: make([]byte, swapStampLen)}
	factory := store.Config{Kind: "tiered", Dir: dir}.Factory(pageSize)
	record := func(name string) (store.Backend, error) {
		b, err := factory(name)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.backends = append(s.backends, b)
		s.mu.Unlock()
		if t != nil {
			b = wrapBackend(b, t, spTierRead, spTierWrite)
		}
		return b, nil
	}
	alloc := &allocWrap{inner: seg.NewSwapAllocatorOn(pageSize, s.clock, record), t: t,
		onCreate: func(sg gmi.Segment) {
			s.mu.Lock()
			s.segs = append(s.segs, sg.(*seg.Segment))
			s.mu.Unlock()
		}}
	s.pvm = core.New(core.Options{Frames: swapFrames, Clock: s.clock, SegAlloc: alloc})
	ctx, err := s.pvm.ContextCreate()
	if err != nil {
		return nil, err
	}
	s.ctx, s.cache = ctx, s.pvm.TempCacheCreate()
	if _, err := ctx.RegionCreate(swapBase, swapPages*pageSize, gmi.ProtRW, s.cache, 0); err != nil {
		return nil, err
	}
	// Every page starts with a known version, and half of them start on
	// the swap store.
	for pg := 0; pg < swapPages; pg++ {
		s.reclaim()
		if err := s.write(pg); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// reclaim pages out down to the high watermark once free frames fall
// below the low one.
func (s *swapSystem) reclaim() {
	low, high := swapFrames/8, swapFrames/4
	if free := s.pvm.Memory().FreeFrames(); free < low {
		st := s.t.now()
		s.pvm.PageOut(high - free)
		s.t.record(s.rec, spCorePageout, st)
	}
}

func (s *swapSystem) va(pg int) gmi.VA { return swapBase + gmi.VA(pg*pageSize) }

// write stores the next version in page pg and updates the model; a page
// whose write failed is unknown until written again.
func (s *swapSystem) write(pg int) error {
	s.next++
	fill(s.buf, pg, s.next, 0)
	st := s.t.now()
	err := s.ctx.Write(s.va(pg), s.buf)
	s.t.record(s.rec, spCoreAccess, st)
	s.version[pg] = s.next
	if err != nil {
		s.version[pg] = unknown
	}
	return err
}

func (s *swapSystem) run(start time.Time) ([]*opLog, int64, error) {
	t := s.t
	rec := t.client(0)
	s.rec = rec
	log := newOpLog(start, len(s.in))
	var failed int64
	for i, a := range s.in {
		pg := int(a.page)
		t.begin(rec, int64(pg*pageSize))
		wall := time.Now()
		if i%swapHarvestEvery == 0 {
			st := t.now()
			s.pvm.PolicyTick(swapFrames / 8)
			t.record(rec, spCoreHarvest, st)
		}
		s.reclaim()
		var err error
		if a.write {
			err = s.write(pg)
		} else {
			st := t.now()
			err = s.ctx.Read(s.va(pg), s.buf)
			t.record(rec, spCoreAccess, st)
			if err == nil && s.version[pg] != unknown && !matches(s.buf, s.scratch, pg, s.version[pg], 0) {
				err = errMismatch
			}
		}
		if err != nil {
			failed++
		}
		log.add(wall)
		t.end(rec)
	}
	return []*opLog{log}, failed, nil
}

func (s *swapSystem) counters() counts {
	c := counts{}
	pvmCounts(s.pvm, c)
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sg := range s.segs {
		segCounts(sg, c)
	}
	for _, b := range s.backends {
		if tb, ok := b.(*tier.Backend); ok {
			tierCounts(tb, c)
		}
	}
	return c
}

func (s *swapSystem) simNanos() int64 { return int64(s.clock.Elapsed()) }

// close destroys the region's context and cache (which releases the swap
// segment) and closes every swap store.
func (s *swapSystem) close() error {
	if err := s.ctx.Destroy(); err != nil {
		return err
	}
	if err := s.cache.Destroy(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sg := range s.segs {
		if err := sg.Close(); err != nil {
			return err
		}
	}
	return nil
}
