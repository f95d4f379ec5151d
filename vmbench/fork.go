package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/gmi"
	"chorusvm/internal/mix"
	"chorusvm/internal/nucleus"
)

// The fork workload: one MIX process lifecycle per op on a paper-sized
// machine — the deferred-copy use case of the paper's section 5.1.5.
const (
	forkFrames       = 1024 // 8 MB at 8 KB pages
	forkHeapPages    = 64
	forkTextPages    = 16
	forkParentWrites = 2
	forkChecks       = 8
	forkChildWrites  = 8
	forkSendPages    = 2
	forkExecOdds     = 8 // one child in this many execs
)

// unknown marks a page whose last write failed: its content is not
// predicted until it is written again.
const unknown = ^uint64(0)

// Text tags of the two installed binaries.
const (
	initTextTag = 1<<61 | 1
	cmdTextTag  = 1<<61 | 2
)

// forkOp is the seeded schedule of one lifecycle.
type forkOp struct {
	parentWrites [forkParentWrites]int // heap pages the parent writes while the child lives
	checks       [forkChecks]int       // heap pages the child checks against the pre-fork snapshot
	childWrites  [forkChildWrites]int  // heap pages the child writes (COW breaks)
	send         int                   // first of the pages the child sends back through the pipe
	exec         bool                  // the child execs cmd and touches its text
}

func childTag(op, k int) uint64 { return 1<<62 | uint64(op)<<4 | uint64(k) }

func forkInput(seed int64, ops int) func(string, *tracer) (system, error) {
	in := forkSchedule(seed, ops)
	return func(_ string, t *tracer) (system, error) { return newForkSystem(in, t) }
}

// forkSchedule generates the seeded lifecycles of a round.
func forkSchedule(seed int64, ops int) []forkOp {
	rng := rand.New(rand.NewSource(seed))
	in := make([]forkOp, ops)
	for i := range in {
		op := &in[i]
		copy(op.parentWrites[:], rng.Perm(forkHeapPages))
		copy(op.checks[:], rng.Perm(forkHeapPages))
		copy(op.childWrites[:], rng.Perm(forkHeapPages))
		op.send = rng.Intn(forkHeapPages - forkSendPages + 1)
		op.exec = rng.Intn(forkExecOdds) == 0
	}
	return in
}

type forkSystem struct {
	in []forkOp
	t  *tracer

	clock  *cost.Clock
	pvm    *core.PVM
	site   *nucleus.Site
	cmd    *mix.Binary
	fsPort nucleus.Capability // a capability on the file-system mapper, to stop it
	parent *mix.Process
	stop   chan struct{}
	sig    *mix.Pipe // parent to child: the parent's writes are done
	reply  *mix.Pipe // child to parent: pages out of the child's heap
	heap   gmi.VA
	rx     gmi.VA // the parent's receive buffer

	tags    [forkHeapPages]uint64 // the parent heap model
	nextTag uint64

	pbuf, pscratch []byte // parent goroutine's buffers
	cbuf, cscratch []byte // child goroutine's buffers
}

func binaryText(tag uint64) []byte {
	text := make([]byte, forkTextPages*pageSize)
	for pg := 0; pg < forkTextPages; pg++ {
		fill(text[pg*pageSize:pg*pageSize+stampLen], pg, tag, 0)
	}
	return text
}

func newForkSystem(in []forkOp, t *tracer) (*forkSystem, error) {
	f := &forkSystem{
		in: in, t: t, clock: cost.New(), stop: make(chan struct{}),
		pbuf: make([]byte, stampLen), pscratch: make([]byte, stampLen),
		cbuf: make([]byte, stampLen), cscratch: make([]byte, stampLen),
	}
	f.site = nucleus.NewSite(f.clock, func(sa gmi.SegmentAllocator) gmi.MemoryManager {
		if t != nil {
			sa = &allocWrap{inner: sa, t: t}
		}
		f.pvm = core.New(core.Options{Frames: forkFrames, Clock: f.clock, SegAlloc: sa})
		return f.pvm
	})
	sys := mix.NewSystem(f.site)
	initBin, err := sys.InstallBinary("init", binaryText(initTextTag), nil)
	if err != nil {
		return nil, err
	}
	f.fsPort = initBin.Text
	if f.cmd, err = sys.InstallBinary("cmd", binaryText(cmdTextTag), nil); err != nil {
		return nil, err
	}
	if f.parent, err = sys.Spawn(initBin, func(*mix.Process) int { <-f.stop; return 0 }); err != nil {
		return nil, err
	}
	if f.heap, err = f.parent.Sbrk(int64(forkHeapPages * pageSize)); err != nil {
		return nil, err
	}
	if f.rx, err = f.parent.Sbrk(int64(forkSendPages * pageSize)); err != nil {
		return nil, err
	}
	for pg := range f.tags {
		f.nextTag++
		fill(f.pbuf, pg, f.nextTag, 0)
		if err := f.parent.Write(f.page(f.heap, pg), f.pbuf); err != nil {
			return nil, err
		}
		f.tags[pg] = f.nextTag
	}
	f.sig, f.reply = sys.NewPipe(), sys.NewPipe()
	return f, nil
}

func (f *forkSystem) page(base gmi.VA, pg int) gmi.VA { return base + gmi.VA(pg*pageSize) }

// errPipe is a broken parent/child handshake: the round cannot go on
// without a process blocked forever, so it ends the run.
var errPipe = errors.New("fork: handshake pipe failed")

func (f *forkSystem) run(start time.Time) ([]*opLog, int64, error) {
	log := newOpLog(start, len(f.in))
	var failed int64
	rec := f.t.client(0)
	for i := range f.in {
		f.t.begin(rec, -1)
		w0 := time.Now()
		ok, err := f.lifecycle(i, &f.in[i], rec)
		log.add(w0)
		f.t.end(rec)
		if err != nil {
			return nil, failed, fmt.Errorf("op %d: %w", i, err)
		}
		if !ok {
			failed++
		}
	}
	return []*opLog{log}, failed, nil
}

// lifecycle runs one op: fork; the parent writes while the child lives and
// then signals it; the child checks its snapshot, writes, sends pages back
// and maybe execs; the parent reaps the child and receives the pages. The
// parent reaps before it receives so that the child's teardown never runs
// concurrently with the parent's receive, which keeps the op's counts
// deterministic. It reports whether every check passed.
func (f *forkSystem) lifecycle(i int, op *forkOp, rec *opRec) (bool, error) {
	t := f.t
	snap := f.tags // the child's pre-fork view
	view := snap   // the child's view after its own writes
	for k, pg := range op.childWrites {
		view[pg] = childTag(i, k)
	}
	s := t.now()
	child, err := f.parent.Fork(func(c *mix.Process) int { return f.child(c, i, op, &snap, rec) })
	t.record(rec, spMixFork, s)
	if err != nil {
		return false, nil
	}
	ok := true
	for _, pg := range op.parentWrites {
		f.nextTag++
		fill(f.pbuf, pg, f.nextTag, 0)
		s := t.now()
		err := f.parent.Write(f.page(f.heap, pg), f.pbuf)
		t.record(rec, spCoreAccess, s)
		f.tags[pg] = f.nextTag
		if err != nil {
			f.tags[pg], ok = unknown, false
		}
	}
	s = t.now()
	err = f.sig.Write([]byte{1})
	t.record(rec, spPipeWrite, s)
	if err != nil {
		return false, errPipe
	}
	s = t.now()
	status := child.Wait()
	t.record(rec, spMixReap, s)
	s = t.now()
	n, err := f.reply.ReadInto(f.parent, f.rx, int64(forkSendPages*pageSize))
	t.record(rec, spPipeRead, s)
	if status != 0 || err != nil || n != int64(forkSendPages*pageSize) {
		return false, nil
	}
	for k := 0; k < forkSendPages; k++ {
		pg := op.send + k
		s := t.now()
		err := f.parent.Read(f.page(f.rx, k), f.pbuf)
		t.record(rec, spCoreAccess, s)
		if err != nil || view[pg] == unknown || !matches(f.pbuf, f.pscratch, pg, view[pg], 0) {
			ok = false
		}
	}
	return ok, nil
}

// child is the forked process's main. It always sends exactly one reply
// message, so the parent never waits for one that will not come, and
// exits non-zero when any of its checks or calls failed.
func (f *forkSystem) child(c *mix.Process, i int, op *forkOp, snap *[forkHeapPages]uint64, rec *opRec) int {
	t, buf, scratch := f.t, f.cbuf, f.cscratch
	sent := false
	defer func() {
		if !sent {
			_ = f.reply.Write([]byte{0})
		}
	}()
	// Waiting for the signal is synchronization, not work of a layer:
	// the parent's spans cover that time.
	if _, err := f.sig.Read(); err != nil {
		return 1
	}
	bad := false
	for _, pg := range op.checks {
		s := t.now()
		err := c.Read(f.page(f.heap, pg), buf)
		t.record(rec, spCoreAccess, s)
		if err != nil || (snap[pg] != unknown && !matches(buf, scratch, pg, snap[pg], 0)) {
			bad = true
		}
	}
	for k, pg := range op.childWrites {
		fill(buf, pg, childTag(i, k), 0)
		s := t.now()
		err := c.Write(f.page(f.heap, pg), buf)
		t.record(rec, spCoreAccess, s)
		if err != nil {
			bad = true
		}
	}
	s := t.now()
	err := f.reply.WriteFrom(c, f.page(f.heap, op.send), int64(forkSendPages*pageSize))
	t.record(rec, spPipeWrite, s)
	if err != nil {
		bad = true
	} else {
		sent = true
	}
	if op.exec {
		s := t.now()
		err := c.Exec(f.cmd)
		t.record(rec, spMixExec, s)
		if err != nil {
			return 1
		}
		for pg := 0; pg < forkTextPages; pg++ {
			s := t.now()
			err := c.Read(f.page(mix.TextBase, pg), buf)
			t.record(rec, spCoreAccess, s)
			if err != nil || !matches(buf, scratch, pg, cmdTextTag, 0) {
				bad = true
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

func (f *forkSystem) counters() counts {
	c := counts{}
	pvmCounts(f.pvm, c)
	segMgrCounts(f.site.SegMgr, c)
	return c
}

func (f *forkSystem) simNanos() int64 { return int64(f.clock.Elapsed()) }

// close ends the parent and stops the mappers' server goroutines, so
// nothing of the round stays reachable.
func (f *forkSystem) close() error {
	close(f.stop)
	f.parent.Wait()
	f.sig.Close()
	f.reply.Close()
	f.fsPort.Port.Destroy()
	f.site.SegMgr.DefaultMapper().CreateSegment().Port.Destroy()
	return nil
}
