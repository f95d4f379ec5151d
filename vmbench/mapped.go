package main

import (
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/gmi"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
)

// The mapped-read workload: a file segment four times the size of memory,
// mapped read-only into two contexts; one client scans it page by page,
// the other reads pages uniformly at random.
const (
	mappedFrames = 1024
	mappedPages  = 4096
	mappedBase   = gmi.VA(0x1000_0000)
	readLen      = 64 // bytes per op
	preloadBatch = 16 // pages per backend write while preloading
)

// mappedRead is one op: a 64-byte read of chunk at page.
type mappedRead struct {
	page, chunk int32
}

// mappedTag is the tag of every page of the file: its content is a pure
// function of the page number.
const mappedTag = 1 << 60

func mappedInput(seed int64, ops int) func(string, *tracer) (system, error) {
	streams := mappedStreams(seed, ops)
	return func(dir string, t *tracer) (system, error) { return newMappedSystem(streams, dir, t) }
}

// mappedStreams generates the two clients' seeded reads: a page-by-page
// scan from a random page, and uniformly random pages.
func mappedStreams(seed int64, ops int) [2][]mappedRead {
	rng := rand.New(rand.NewSource(seed))
	chunks := int32(pageSize / readLen)
	scan := make([]mappedRead, ops/2)
	first := rng.Int31n(mappedPages)
	for i := range scan {
		scan[i] = mappedRead{page: (first + int32(i)) % mappedPages, chunk: rng.Int31n(chunks)}
	}
	random := make([]mappedRead, ops-ops/2)
	for i := range random {
		random[i] = mappedRead{page: rng.Int31n(mappedPages), chunk: rng.Int31n(chunks)}
	}
	return [2][]mappedRead{scan, random}
}

type mappedSystem struct {
	streams [2][]mappedRead
	t       *tracer
	pvm     *core.PVM
	seg     *seg.Segment
	cache   gmi.Cache
	ctxs    [2]gmi.Context
}

func newMappedSystem(streams [2][]mappedRead, dir string, t *tracer) (*mappedSystem, error) {
	m := &mappedSystem{streams: streams, t: t}
	m.pvm = core.New(core.Options{Frames: mappedFrames})
	f, err := store.NewFile(filepath.Join(dir, "mapped.seg"), pageSize)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, preloadBatch*pageSize)
	for pg := 0; pg < mappedPages; pg += preloadBatch {
		for k := 0; k < preloadBatch; k++ {
			fill(buf[k*pageSize:(k+1)*pageSize], pg+k, mappedTag, 0)
		}
		if err := f.WriteAt(int64(pg*pageSize), buf); err != nil {
			f.Close()
			return nil, err
		}
	}
	var b store.Backend = f
	if t != nil {
		b = wrapBackend(f, t, spStoreRead, spStoreWrite)
	}
	m.seg = seg.NewSegmentOn("mapped", b, m.pvm.Clock())
	var sg gmi.Segment = m.seg
	if t != nil {
		sg = wrapSegment(m.seg, t)
	}
	m.cache = m.pvm.CacheCreate(sg)
	for i := range m.ctxs {
		ctx, err := m.pvm.ContextCreate()
		if err != nil {
			return nil, err
		}
		if _, err := ctx.RegionCreate(mappedBase, mappedPages*pageSize, gmi.ProtRead, m.cache, 0); err != nil {
			return nil, err
		}
		m.ctxs[i] = ctx
	}
	return m, nil
}

// run drives both clients at once and merges their latencies.
func (m *mappedSystem) run(start time.Time) ([]*opLog, int64, error) {
	var wg sync.WaitGroup
	var logs [2]*opLog
	var fails [2]int64
	for c := range m.streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c], fails[c] = m.client(c, start)
		}(c)
	}
	wg.Wait()
	return logs[:], fails[0] + fails[1], nil
}

func (m *mappedSystem) client(c int, start time.Time) (*opLog, int64) {
	t, ctx := m.t, m.ctxs[c]
	rec := t.client(c)
	buf, scratch := make([]byte, readLen), make([]byte, readLen)
	log := newOpLog(start, len(m.streams[c]))
	var failed int64
	for _, op := range m.streams[c] {
		pg, w0 := int(op.page), int(op.chunk)*readLen/8
		off := int64(pg * pageSize)
		t.begin(rec, off)
		wall := time.Now()
		s := t.now()
		err := ctx.Read(mappedBase+gmi.VA(off)+gmi.VA(w0*8), buf)
		t.record(rec, spCoreAccess, s)
		if err != nil || !matches(buf, scratch, pg, mappedTag, w0) {
			failed++
		}
		log.add(wall)
		t.end(rec)
	}
	return log, failed
}

func (m *mappedSystem) counters() counts {
	c := counts{}
	pvmCounts(m.pvm, c)
	segCounts(m.seg, c)
	return c
}

func (m *mappedSystem) simNanos() int64 { return int64(m.pvm.Clock().Elapsed()) }

func (m *mappedSystem) close() error {
	for _, ctx := range m.ctxs {
		if ctx != nil {
			if err := ctx.Destroy(); err != nil {
				return err
			}
		}
	}
	if err := m.cache.Destroy(); err != nil {
		return err
	}
	return m.seg.Close()
}
