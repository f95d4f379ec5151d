package main

import (
	"fmt"
	"strings"

	"chorusvm/internal/core"
	"chorusvm/internal/cost"
	"chorusvm/internal/nucleus"
	"chorusvm/internal/seg"
	"chorusvm/internal/store"
	"chorusvm/internal/tier"
)

// counts are raw cumulative counters by metric stem (no _per_kop suffix).
type counts map[string]float64

func (c counts) sub(before counts) counts {
	d := counts{}
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

func (c counts) add(o counts) {
	for k, v := range o {
		c[k] += v
	}
}

// pvmCounts reads the PVM's stats, its frame allocator's stats and its
// simulated clock's event counts.
func pvmCounts(p *core.PVM, c counts) {
	s := p.Stats()
	for k, v := range map[string]uint64{
		"core.faults":                 s.Faults,
		"core.soft_faults":            s.SoftFaults,
		"core.zero_fills":             s.ZeroFills,
		"core.cow_breaks":             s.CowBreaks,
		"core.history_pushes":         s.HistoryPushes,
		"core.stub_breaks":            s.StubBreaks,
		"core.collapses":              s.Collapses,
		"core.pull_ins":               s.PullIns,
		"core.fill_submits":           s.FillSubmits,
		"core.push_outs":              s.PushOuts,
		"core.evictions":              s.Evictions,
		"core.async_batches":          s.AsyncBatches,
		"core.speculations_cancelled": s.SpeculationsCancelled,
		"policy.second_chances":       s.PolicySecondChances,
		"policy.promotions":           s.PolicyPromotions,
		"policy.harvests":             s.PolicyHarvests,
	} {
		c[k] = float64(v)
	}
	a := p.Memory().AllocStats()
	c["phys.magazine_refills"] = float64(a.MagazineRefills)
	c["phys.batch_frees"] = float64(a.BatchFrees)
	clk := p.Clock()
	for k, e := range map[string]cost.Event{
		"core.tree_inserts":    cost.EvTreeInsert,
		"core.history_lookups": cost.EvHistoryLookup,
		"core.global_map_ops":  cost.EvGlobalMapOp,
		"mmu.page_maps":        cost.EvPageMap,
		"mmu.page_unmaps":      cost.EvPageUnmap,
		"mmu.page_protects":    cost.EvPageProtect,
		"mmu.page_invalidates": cost.EvPageInvalidate,
		"phys.frame_allocs":    cost.EvFrameAlloc,
		"phys.bzero_pages":     cost.EvBzeroPage,
		"phys.bcopy_pages":     cost.EvBcopyPage,
		"store.disk_seeks":     cost.EvDiskSeek,
		"store.disk_reads":     cost.EvDiskRead,
		"store.disk_writes":    cost.EvDiskWrite,
	} {
		c[k] = float64(clk.Count(e))
	}
}

// segCounts adds a seg.Segment's upcall counters and its store engine's
// stats.
func segCounts(s *seg.Segment, c counts) {
	c["seg.pull_ins"] += float64(s.PullIns())
	c["seg.push_outs"] += float64(s.PushOuts())
	engineCounts(s.Store().Engine().StatsSnapshot(), c)
}

func engineCounts(e store.Stats, c counts) {
	c["store.reads"] += float64(e.Reads)
	c["store.prefetches"] += float64(e.Prefetches)
	c["store.prefetch_hits"] += float64(e.PrefetchHits)
	c["store.batches"] += float64(e.Batches)
	c["store.batch_pages"] += float64(e.BatchPages)
	c["store.queue_hits"] += float64(e.QueueHits)
	c["store.retries"] += float64(e.Retries)
	c["store.corruptions"] += float64(e.Corruptions)
}

func tierCounts(b *tier.Backend, c counts) {
	s := b.Stats()
	c["tier.hot_reads"] += float64(s.HotReads)
	c["tier.warm_reads"] += float64(s.WarmReads)
	c["tier.cold_reads"] += float64(s.ColdReads)
	c["tier.promotions"] += float64(s.Promotions)
	c["tier.demotions"] += float64(s.Demotions)
}

func segMgrCounts(sm *nucleus.SegmentManager, c counts) {
	hits, misses := sm.Stats()
	c["nucleus.segcache_hits"] = float64(hits)
	c["nucleus.segcache_misses"] = float64(misses)
}

// perKop lists the counts reported per 1000 ops, in report order.
var perKop = []string{
	"core.faults", "core.soft_faults", "core.zero_fills", "core.cow_breaks",
	"core.history_pushes", "core.stub_breaks", "core.collapses", "core.pull_ins",
	"core.fill_submits", "core.push_outs", "core.evictions", "core.async_batches",
	"core.speculations_cancelled", "core.tree_inserts", "core.history_lookups",
	"core.global_map_ops",
	"mmu.page_maps", "mmu.page_unmaps", "mmu.page_protects", "mmu.page_invalidates",
	"phys.frame_allocs", "phys.bzero_pages", "phys.bcopy_pages",
	"phys.magazine_refills", "phys.batch_frees",
	"policy.second_chances", "policy.promotions", "policy.harvests",
	"seg.pull_ins", "seg.push_outs",
	"store.reads", "store.prefetches", "store.batches", "store.queue_hits",
	"store.retries", "store.corruptions",
	"store.disk_seeks", "store.disk_reads", "store.disk_writes",
	"tier.hot_reads", "tier.warm_reads", "tier.cold_reads",
	"tier.promotions", "tier.demotions",
}

// ratio is num/den, 0 when nothing was attempted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// perLayer reports the per-layer metrics from the traced rounds, the
// tracing overhead against the untraced rounds, and returns the
// waterfall text.
func perLayer(m metrics, name string, plain, traced []round, failed, attempted int64) string {
	d := counts{}
	tr := newTracer()
	var ops int64
	for _, r := range traced {
		d.add(r.delta)
		tr.merge(r.tr)
		ops += r.ops
	}
	kop := float64(ops) / 1000
	for _, k := range perKop {
		m.set(k+"_per_kop", d[k]/kop, "count/kop")
	}
	m.set("nucleus.segcache_hit_ratio",
		ratio(d["nucleus.segcache_hits"], d["nucleus.segcache_hits"]+d["nucleus.segcache_misses"]), "ratio")
	m.set("store.prefetch_hit_ratio", ratio(d["store.prefetch_hits"], d["store.prefetches"]), "ratio")
	m.set("store.coalesce_ratio", ratio(d["store.batch_pages"], d["store.batches"]), "pages/batch")
	m.set("go.allocs_per_op", d["go.allocs"]/float64(ops), "count/op")
	m.set("go.alloc_kb_per_op", d["go.alloc_bytes"]/1024/float64(ops), "KB/op")
	m.set("go.gc_cycles_per_kop", d["go.gc_cycles"]/kop, "count/kop")
	m.set("fail_ratio", ratio(float64(failed), float64(attempted)), "ratio")
	pr, _, _ := windowMedians(plain)
	tr2, _, _ := windowMedians(traced)
	m.set("trace.overhead_pct", 100*ratio(pr-tr2, pr), "%")
	tr.spanMetrics(m, ops)

	var b strings.Builder
	tr.waterfall(&b, name)
	fmt.Fprintf(&b, "  (%d untraced rounds at %.0f ops/s, %d traced rounds at %.0f ops/s)\n",
		len(plain), pr, len(traced), tr2)
	return b.String()
}
