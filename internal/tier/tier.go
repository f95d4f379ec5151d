// Package tier implements a tiered backing store: one store.Backend
// composed of three — hot pages in RAM, warm pages compressed, cold
// pages in a (optionally journaled, crash-consistent) page file — with
// policy-driven migration between them. The store runs as an exclusive
// (victim) cache under the VM: the replacement policy feeds usage
// signals down through store.Adviser — a page the VM evicts has just
// left main memory, making it the likeliest page to refault next, so
// the eviction notice victim-inserts it into the warm tier; a page
// unreferenced across a whole harvest tick sinks a tier. Refaults climb
// one tier per read (cold to warm, warm to hot), a frequency ratchet
// that keeps one-hit wonders out of the hot tier, while writes (usually
// eviction push-outs) stage into the warm tier without displacing
// proven-hot pages. Capacity watermarks bound the hot and warm tiers,
// an async migrator drains advice in the background, and the Remote
// client/server pair (remote.go) puts the whole composition behind a
// wire so DSM sites can share one store.
package tier

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"chorusvm/internal/store"
)

// Tier indices: hot is fastest and smallest, cold largest and slowest.
const (
	Hot  = 0
	Warm = 1
	Cold = 2
)

// Options parameterizes a tiered backend. The zero value means the
// defaults: 64 hot pages, 256 warm pages, policy-driven migration.
type Options struct {
	// HotPages and WarmPages are capacity watermarks in pages; the cold
	// tier is unbounded. 0 means the default (64 hot, 256 warm).
	HotPages  int
	WarmPages int
	// Static disables migration entirely: pages place by offset (the
	// first HotPages page indices hot, the next WarmPages warm, the rest
	// cold) and never move. The ablation baseline.
	Static bool
	// FlushColdOnClose demotes every resident page to the cold tier
	// before closing, so a persistent cold tier holds everything across
	// a reopen. Set by NewPersistent.
	FlushColdOnClose bool
}

func (o *Options) defaults() {
	if o.HotPages == 0 {
		o.HotPages = 64
	}
	if o.WarmPages == 0 {
		o.WarmPages = 256
	}
}

// Backend is the tiered composition; it implements store.Backend plus
// the Discarder/PageLister/Adviser extensions.
type Backend struct {
	ps  int64
	opt Options

	mu     sync.Mutex
	tiers  [3]store.Backend
	level  map[int64]int8 // page offset -> tier holding it
	lrus   [2]*lruList    // recency per bounded tier (hot, warm)
	closed bool
	// scratch holds two pages of copy space, used under b.mu: [0] by
	// ReadAt for a warm/cold hit, [1] by movePage. Two, because ReadAt's
	// promote rebalances, and a demotion's movePage runs while ReadAt's
	// page is still being promoted.
	scratch [2][]byte

	// Advice arrives under its own lock and only ever enqueues: callers
	// hold VM locks and must never wait behind tier I/O (which runs
	// under b.mu).
	adviceMu    sync.Mutex
	sink        map[int64]store.Advice // pending advice per page
	advisedCold uint64
	advisedIdle uint64

	migMu   sync.Mutex
	migStop chan struct{}
	migDone chan struct{}

	// Monotonic counters; b.mu held.
	promotions uint64
	demotions  uint64
	hotReads   uint64
	warmReads  uint64
	coldReads  uint64
}

var (
	_ store.Backend    = (*Backend)(nil)
	_ store.Discarder  = (*Backend)(nil)
	_ store.PageLister = (*Backend)(nil)
	_ store.Adviser    = (*Backend)(nil)
)

// New composes three backends into a tiered store. All three must share
// a page size and support single-page discard (migration moves pages
// out of a tier one at a time). Pages already present in a tier — a
// reopened persistent cold tier — are adopted into the level map.
func New(hot, warm, cold store.Backend, opt Options) (*Backend, error) {
	opt.defaults()
	if opt.HotPages < 0 || opt.WarmPages < 0 {
		return nil, fmt.Errorf("tier: negative watermark (hot %d, warm %d)", opt.HotPages, opt.WarmPages)
	}
	tiers := [3]store.Backend{hot, warm, cold}
	ps := hot.PageSize()
	for i, tb := range tiers {
		if tb.PageSize() != ps {
			return nil, fmt.Errorf("tier: tier %d page size %d, want %d", i, tb.PageSize(), ps)
		}
		if _, ok := tb.(store.Discarder); !ok {
			return nil, fmt.Errorf("tier: tier %d backend cannot discard pages", i)
		}
	}
	b := &Backend{
		ps:      int64(ps),
		opt:     opt,
		tiers:   tiers,
		level:   make(map[int64]int8),
		lrus:    [2]*lruList{newLRUList(), newLRUList()},
		scratch: [2][]byte{make([]byte, ps), make([]byte, ps)},
		sink:    make(map[int64]store.Advice),
	}
	// Adopt pre-existing pages, coldest first so a hotter duplicate wins.
	for lv := Cold; lv >= Hot; lv-- {
		if pl, ok := tiers[lv].(store.PageLister); ok {
			for _, po := range pl.PageOffsets() {
				b.setLevel(po, int8(lv), true)
			}
		}
	}
	return b, nil
}

// NewDefault builds the canonical volatile composition: RAM hot tier,
// compressed warm tier, RAM cold tier.
func NewDefault(pageSize int, opt Options) *Backend {
	b, err := New(store.NewMem(pageSize), store.NewFlate(pageSize), store.NewMem(pageSize), opt)
	if err != nil {
		panic(err) // the built-ins always satisfy New's requirements
	}
	return b
}

// NewPersistent builds the durable composition: RAM hot, compressed
// warm, and a journaled page file at path as the cold tier. Close
// flushes everything cold first, so a reopen sees every page.
func NewPersistent(path string, pageSize int, opt Options) (*Backend, error) {
	cold, err := OpenJournaled(path, pageSize)
	if err != nil {
		return nil, err
	}
	opt.FlushColdOnClose = true
	b, err := New(store.NewMem(pageSize), store.NewFlate(pageSize), cold, opt)
	if err != nil {
		cold.Close()
		return nil, err
	}
	return b, nil
}

// staticLevel places a page by its index when migration is off.
func (b *Backend) staticLevel(po int64) int8 {
	idx := po / b.ps
	switch {
	case idx < int64(b.opt.HotPages):
		return Hot
	case idx < int64(b.opt.HotPages+b.opt.WarmPages):
		return Warm
	default:
		return Cold
	}
}

// setLevel records the tier holding po, maintaining LRU membership;
// b.mu held. back pushes the page to the cold end of its tier's LRU
// (demotions and adopted pages) instead of the hot end.
func (b *Backend) setLevel(po int64, lv int8, back bool) {
	if old, ok := b.level[po]; ok && old != lv && old < Cold {
		b.lrus[old].remove(po)
	}
	b.level[po] = lv
	if lv < Cold {
		if back {
			b.lrus[lv].toBack(po)
		} else {
			b.lrus[lv].touch(po)
		}
	}
}

// dropLevel forgets po entirely; b.mu held.
func (b *Backend) dropLevel(po int64) {
	if lv, ok := b.level[po]; ok {
		if lv < Cold {
			b.lrus[lv].remove(po)
		}
		delete(b.level, po)
	}
}

// movePage relocates one page's content between tiers; b.mu held.
func (b *Backend) movePage(po int64, src, dst int8) error {
	pg := b.scratch[1]
	if err := b.tiers[src].ReadAt(po, pg); err != nil {
		return err
	}
	if err := b.tiers[dst].WriteAt(po, pg); err != nil {
		return err
	}
	if err := b.tiers[src].(store.Discarder).DiscardPage(po); err != nil {
		return err
	}
	return nil
}

// promote climbs a warm/cold page one tier (content already in pg) and
// rebalances; b.mu held. The single-level climb is a frequency filter:
// one refault earns warm, only a second refault while still warm earns
// hot, so the hot tier never fills with one-hit wonders.
func (b *Backend) promote(po int64, from int8, pg []byte) error {
	to := from - 1
	if err := b.tiers[to].WriteAt(po, pg); err != nil {
		return err
	}
	if err := b.tiers[from].(store.Discarder).DiscardPage(po); err != nil {
		return err
	}
	b.setLevel(po, to, false)
	b.promotions++
	gPromotions.Add(1)
	return b.rebalanceLocked()
}

// rebalanceLocked enforces the capacity watermarks by demoting from the
// cold end of each bounded tier's LRU; b.mu held.
func (b *Backend) rebalanceLocked() error {
	if b.opt.Static {
		return nil
	}
	for _, lv := range []int8{Hot, Warm} {
		max := b.opt.HotPages
		if lv == Warm {
			max = b.opt.WarmPages
		}
		for b.lrus[lv].len() > max {
			po, ok := b.lrus[lv].back()
			if !ok {
				break
			}
			if err := b.movePage(po, lv, lv+1); err != nil {
				return err
			}
			// The victim was resident in the hotter tier until now, so
			// it is the warmest page its new tier holds: front, not
			// back — demotion must preserve the recency order.
			b.setLevel(po, lv+1, false)
			b.demotions++
			gDemotions.Add(1)
		}
	}
	return nil
}

// PageSize implements store.Backend.
func (b *Backend) PageSize() int { return int(b.ps) }

// ReadAt implements store.Backend. A hit in the warm or cold tier
// climbs the page one tier (a refault is proof of reuse, and repeated
// refaults ratchet a page up to hot) unless the backend is Static.
func (b *Backend) ReadAt(off int64, buf []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return store.ErrClosed
	}
	scratch := b.scratch[0]
	return forEachPage(b.ps, off, int64(len(buf)), func(po, pb, bufOff, n int64) error {
		lv, ok := b.level[po]
		if !ok {
			clear(buf[bufOff : bufOff+n])
			return nil
		}
		switch lv {
		case Hot:
			b.hotReads++
			b.lrus[Hot].touch(po)
			return b.tiers[Hot].ReadAt(po+pb, buf[bufOff:bufOff+n])
		case Warm:
			b.warmReads++
		default:
			b.coldReads++
		}
		if err := b.tiers[lv].ReadAt(po, scratch); err != nil {
			return err
		}
		copy(buf[bufOff:bufOff+n], scratch[pb:pb+n])
		if b.opt.Static {
			return nil
		}
		return b.promote(po, lv, scratch)
	})
}

// WriteAt implements store.Backend. Writes are placement-neutral: a
// write is usually an eviction push-out — the VM has just decided the
// page is its coldest — so it must not displace pages whose reuse the
// refault path has proven. New pages stage into the warm tier (front:
// the most recently pushed-out page is the likeliest to refault soon)
// and earn the hot tier only by being read back; tracked pages are
// written strictly in place, without even an LRU touch — push-outs ride
// an async writeback engine, and recency must not depend on its
// scheduling. The eviction notice that accompanies a push-out freshens
// the page's LRU slot deterministically when the advice drain runs.
func (b *Backend) WriteAt(off int64, data []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return store.ErrClosed
	}
	return forEachPage(b.ps, off, int64(len(data)), func(po, pb, bufOff, n int64) error {
		lv, ok := b.level[po]
		if !ok {
			lv = Warm
			if b.opt.Static {
				lv = b.staticLevel(po)
			}
			if err := b.tiers[lv].WriteAt(po+pb, data[bufOff:bufOff+n]); err != nil {
				return err
			}
			b.setLevel(po, lv, false)
			return b.rebalanceLocked()
		}
		return b.tiers[lv].WriteAt(po+pb, data[bufOff:bufOff+n])
	})
}

// Truncate implements store.Backend.
func (b *Backend) Truncate(size int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return store.ErrClosed
	}
	for po := range b.level {
		if po >= size {
			b.dropLevel(po)
		}
	}
	for _, tb := range b.tiers {
		if err := tb.Truncate(size); err != nil {
			return err
		}
	}
	b.adviceMu.Lock()
	for po := range b.sink {
		if po >= size {
			delete(b.sink, po)
		}
	}
	b.adviceMu.Unlock()
	return nil
}

// Sync implements store.Backend: drain pending advice (so Engine.Flush
// settles migrations too), then sync every tier.
func (b *Backend) Sync() error {
	if err := b.MigrateNow(); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return store.ErrClosed
	}
	for _, tb := range b.tiers {
		if err := tb.Sync(); err != nil {
			return err
		}
	}
	return nil
}

// Pages implements store.Backend.
func (b *Backend) Pages() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.level)
}

// DiscardPage implements store.Discarder.
func (b *Backend) DiscardPage(off int64) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return store.ErrClosed
	}
	po := off &^ (b.ps - 1)
	if lv, ok := b.level[po]; ok {
		if err := b.tiers[lv].(store.Discarder).DiscardPage(po); err != nil {
			return err
		}
		b.dropLevel(po)
	}
	return nil
}

// PageOffsets implements store.PageLister.
func (b *Backend) PageOffsets() []int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	offs := make([]int64, 0, len(b.level))
	for po := range b.level {
		offs = append(offs, po)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	return offs
}

// Advise implements store.Adviser: the replacement policy's signal
// stream. It only enqueues — callers hold VM locks, and migration I/O
// happens later, under MigrateNow or the async migrator. The two grades
// act differently when drained: AdviseCold (an eviction) is a victim-
// cache insert — the page just left the VM, making it the freshest
// refault candidate, so it climbs to warm; AdviseIdle (resident a whole
// harvest tick without a reference) sinks the page a tier. Idle is
// the stronger signal and wins when both are pending.
func (b *Backend) Advise(off, size int64, a store.Advice) {
	if b.opt.Static {
		return
	}
	b.adviceMu.Lock()
	defer b.adviceMu.Unlock()
	switch a {
	case store.AdviseCold:
		b.advisedCold++
	case store.AdviseIdle:
		b.advisedIdle++
	default:
		return
	}
	end := off + size
	for po := off &^ (b.ps - 1); po < end; po += b.ps {
		if prev, ok := b.sink[po]; !ok || prev != store.AdviseIdle {
			b.sink[po] = a
		}
	}
}

// MigrateNow drains the advice sink — evicted pages are victim-cache
// inserted into warm, idle pages sink one tier — then enforces the
// watermarks. The async migrator calls it on a ticker; Sync calls it
// inline.
func (b *Backend) MigrateNow() error {
	b.adviceMu.Lock()
	pending := b.sink
	b.sink = make(map[int64]store.Advice)
	b.adviceMu.Unlock()
	offs := make([]int64, 0, len(pending))
	for po := range pending {
		offs = append(offs, po)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })

	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return store.ErrClosed
	}
	for _, po := range offs {
		lv, ok := b.level[po]
		if !ok {
			continue
		}
		switch pending[po] {
		case store.AdviseCold:
			// Exclusive-cache placement: the page just left the VM, so
			// it is the likeliest page in the whole store to refault
			// next. Cold pages climb to warm; warmer pages are
			// refreshed in their LRU.
			if lv == Cold {
				if err := b.movePage(po, Cold, Warm); err != nil {
					return err
				}
				b.setLevel(po, Warm, false)
				b.promotions++
				gPromotions.Add(1)
			} else {
				b.lrus[lv].touch(po)
			}
		case store.AdviseIdle:
			if lv >= Cold {
				continue
			}
			if err := b.movePage(po, lv, lv+1); err != nil {
				return err
			}
			b.setLevel(po, lv+1, true)
			b.demotions++
			gDemotions.Add(1)
		}
	}
	return b.rebalanceLocked()
}

// StartMigrator runs MigrateNow on a ticker until StopMigrator (or
// Close). Idempotent: starting a running migrator is a no-op.
func (b *Backend) StartMigrator(interval time.Duration) {
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	b.migMu.Lock()
	defer b.migMu.Unlock()
	if b.migStop != nil {
		return
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	b.migStop, b.migDone = stop, done
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				// Errors here resurface on the next Sync; a closed
				// backend just means Stop is racing us.
				_ = b.MigrateNow()
			}
		}
	}()
}

// StopMigrator stops the async migrator and waits for it to exit.
// Idempotent: stopping a stopped (or never-started) migrator is a
// no-op.
func (b *Backend) StopMigrator() {
	b.migMu.Lock()
	stop, done := b.migStop, b.migDone
	b.migStop, b.migDone = nil, nil
	b.migMu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	<-done
}

// Close implements store.Backend: stop the migrator, optionally flush
// everything cold (persistent composition), close every tier.
func (b *Backend) Close() error {
	b.StopMigrator()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	var firstErr error
	if b.opt.FlushColdOnClose {
		offs := make([]int64, 0, len(b.level))
		for po, lv := range b.level {
			if lv < Cold {
				offs = append(offs, po)
			}
		}
		sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
		for _, po := range offs {
			if err := b.movePage(po, b.level[po], Cold); err != nil {
				firstErr = err
				break
			}
			b.setLevel(po, Cold, true)
		}
	}
	for _, tb := range b.tiers {
		if err := tb.Close(); firstErr == nil && err != nil {
			firstErr = err
		}
	}
	b.closed = true
	return firstErr
}

// Stats is a point-in-time snapshot of one tiered backend.
type Stats struct {
	HotPages, WarmPages, ColdPages int    // resident pages per tier
	Promotions, Demotions          uint64 // pages moved up / down
	HotReads, WarmReads, ColdReads uint64 // page reads served per tier
	AdvisedCold, AdvisedIdle       uint64 // advice received
}

// Stats snapshots the backend's counters and per-tier residency.
func (b *Backend) Stats() Stats {
	b.mu.Lock()
	s := Stats{
		Promotions: b.promotions, Demotions: b.demotions,
		HotReads: b.hotReads, WarmReads: b.warmReads, ColdReads: b.coldReads,
	}
	for _, lv := range b.level {
		switch lv {
		case Hot:
			s.HotPages++
		case Warm:
			s.WarmPages++
		default:
			s.ColdPages++
		}
	}
	b.mu.Unlock()
	b.adviceMu.Lock()
	s.AdvisedCold, s.AdvisedIdle = b.advisedCold, b.advisedIdle
	b.adviceMu.Unlock()
	return s
}

// ResetStats zeroes the instance counters (residency is state, not a
// counter, and is unaffected). Benchmarks call it after warm-up so the
// reported migrations cover only the measured interval. The process-wide
// GlobalCounters are monotonic and not reset.
func (b *Backend) ResetStats() {
	b.mu.Lock()
	b.promotions, b.demotions = 0, 0
	b.hotReads, b.warmReads, b.coldReads = 0, 0, 0
	b.mu.Unlock()
	b.adviceMu.Lock()
	b.advisedCold, b.advisedIdle = 0, 0
	b.adviceMu.Unlock()
}

// Counters are the process-wide monotonic tier totals, mirrored into
// core.Stats so every tool's stats line shows migration activity.
type Counters struct {
	Promotions    uint64
	Demotions     uint64
	RemoteRetries uint64
}

var (
	gPromotions    atomic.Uint64
	gDemotions     atomic.Uint64
	gRemoteRetries atomic.Uint64
)

// GlobalCounters snapshots the process-wide tier totals.
func GlobalCounters() Counters {
	return Counters{
		Promotions:    gPromotions.Load(),
		Demotions:     gDemotions.Load(),
		RemoteRetries: gRemoteRetries.Load(),
	}
}

// lruList is a recency list over page offsets: front is hottest.
type lruList struct {
	l  *list.List
	el map[int64]*list.Element
}

func newLRUList() *lruList {
	return &lruList{l: list.New(), el: make(map[int64]*list.Element)}
}

func (u *lruList) touch(po int64) {
	if e, ok := u.el[po]; ok {
		u.l.MoveToFront(e)
		return
	}
	u.el[po] = u.l.PushFront(po)
}

func (u *lruList) toBack(po int64) {
	if e, ok := u.el[po]; ok {
		u.l.MoveToBack(e)
		return
	}
	u.el[po] = u.l.PushBack(po)
}

func (u *lruList) remove(po int64) {
	if e, ok := u.el[po]; ok {
		u.l.Remove(e)
		delete(u.el, po)
	}
}

func (u *lruList) back() (int64, bool) {
	e := u.l.Back()
	if e == nil {
		return 0, false
	}
	return e.Value.(int64), true
}

func (u *lruList) len() int { return u.l.Len() }

// forEachPage splits [off, off+n) into per-page pieces: fn(po, pb,
// bufOff, n) with po the page offset, pb the offset within the page,
// bufOff the offset within the caller's buffer.
func forEachPage(ps, off, n int64, fn func(po, pb, bufOff, n int64) error) error {
	for bufOff := int64(0); bufOff < n; {
		po := (off + bufOff) &^ (ps - 1)
		pb := (off + bufOff) - po
		c := ps - pb
		if rem := n - bufOff; c > rem {
			c = rem
		}
		if err := fn(po, pb, bufOff, c); err != nil {
			return err
		}
		bufOff += c
	}
	return nil
}
