package tier_test

import (
	"path/filepath"
	"testing"
	"time"

	"chorusvm/internal/leakcheck"
	"chorusvm/internal/store"
	"chorusvm/internal/store/storetest"
	"chorusvm/internal/tier"
)

// TestConformance runs the shared store battery over the tiered
// compositions: volatile, persistent (journaled cold tier), static
// placement, and degenerate watermarks that force every page through
// the demotion machinery.
func TestConformance(t *testing.T) {
	cases := []struct {
		name string
		mk   storetest.Maker
	}{
		{"tiered", func(t *testing.T, ps int) store.Backend {
			return tier.NewDefault(ps, tier.Options{})
		}},
		{"tiered(static)", func(t *testing.T, ps int) store.Backend {
			return tier.NewDefault(ps, tier.Options{Static: true})
		}},
		// Tiny watermarks: every write overflows hot into warm into
		// cold, so the conformance content rides the full migration
		// path.
		{"tiered(hot=1,warm=1)", func(t *testing.T, ps int) store.Backend {
			return tier.NewDefault(ps, tier.Options{HotPages: 1, WarmPages: 1})
		}},
		{"tiered(persistent)", func(t *testing.T, ps int) store.Backend {
			b, err := tier.NewPersistent(filepath.Join(t.TempDir(), "cold"), ps, tier.Options{})
			if err != nil {
				t.Fatalf("NewPersistent: %v", err)
			}
			return b
		}},
	}
	for _, bc := range cases {
		t.Run(bc.name, func(t *testing.T) { storetest.Run(t, bc.mk) })
	}
}

// TestPersistentReopen proves close/reopen persistence of the whole
// composition: FlushColdOnClose pushes hot and warm content into the
// journaled cold tier, and a reopen adopts it.
func TestPersistentReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cold")
	storetest.RunReopen(t, func(t *testing.T) store.Backend {
		b, err := tier.NewPersistent(path, storetest.PageSize, tier.Options{})
		if err != nil {
			t.Fatalf("NewPersistent: %v", err)
		}
		return b
	})
}

const ps = storetest.PageSize

// TestPlacementAndWatermarks checks the placement rules directly: new
// pages stage into warm, overflow demotes LRU-first, and only reads
// from colder tiers promote — a write never earns the hot tier.
func TestPlacementAndWatermarks(t *testing.T) {
	b := tier.NewDefault(ps, tier.Options{HotPages: 2, WarmPages: 2})
	defer b.Close()

	// Four pages: all enter warm; the 2 oldest overflow to cold. The hot
	// tier stays empty — no page has proven reuse yet.
	for i := int64(0); i < 4; i++ {
		if err := b.WriteAt(i*ps, storetest.Pattern(byte(i+1), ps)); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
	}
	s := b.Stats()
	if s.HotPages != 0 || s.WarmPages != 2 || s.ColdPages != 2 {
		t.Fatalf("residency = %d/%d/%d, want 0/2/2", s.HotPages, s.WarmPages, s.ColdPages)
	}
	if s.Demotions != 2 {
		t.Fatalf("Demotions = %d, want 2", s.Demotions)
	}

	// Read page 3 back (warm): the refault promotes it to hot.
	got := make([]byte, ps)
	if err := b.ReadAt(3*ps, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	s = b.Stats()
	if s.WarmReads != 1 || s.Promotions != 1 {
		t.Fatalf("WarmReads/Promotions = %d/%d, want 1/1", s.WarmReads, s.Promotions)
	}
	if s.HotPages != 1 || s.WarmPages != 1 || s.ColdPages != 2 {
		t.Fatalf("residency = %d/%d/%d, want 1/1/2", s.HotPages, s.WarmPages, s.ColdPages)
	}

	// Refault page 0 (cold): the climb is one tier per read, so it lands
	// warm, and its content must have survived the migrations.
	if err := b.ReadAt(0, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	for i, v := range got {
		if v != storetest.Pattern(1, ps)[i] {
			t.Fatalf("byte %d corrupted across migrations", i)
		}
	}
	s = b.Stats()
	if s.ColdReads != 1 {
		t.Fatalf("ColdReads = %d, want 1", s.ColdReads)
	}
	if s.Promotions != 2 {
		t.Fatalf("Promotions = %d, want 2", s.Promotions)
	}
	if s.HotPages != 1 || s.WarmPages != 2 || s.ColdPages != 1 {
		t.Fatalf("post-promote residency = %d/%d/%d, want 1/2/1", s.HotPages, s.WarmPages, s.ColdPages)
	}

	// A write to a tracked page stays in place: no migration, no
	// demotion, whatever the tier.
	if err := b.WriteAt(3*ps, storetest.Pattern(9, ps)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	s2 := b.Stats()
	if s2.Promotions != s.Promotions || s2.Demotions != s.Demotions {
		t.Fatalf("write to a hot page migrated: %+v vs %+v", s2, s)
	}
}

// TestAdviseSinks checks the policy's advice signals: AdviseCold (an
// eviction notice) victim-inserts a cold page into the warm tier,
// AdviseIdle sinks a page one tier, and neither path loses content.
func TestAdviseSinks(t *testing.T) {
	b := tier.NewDefault(ps, tier.Options{HotPages: 2, WarmPages: 2})
	defer b.Close()
	for i := int64(0); i < 4; i++ {
		if err := b.WriteAt(i*ps, storetest.Pattern(byte(i+1), ps)); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
	}
	// Pages 0 and 1 overflowed into cold. An eviction notice for page 0
	// victim-inserts it into warm: the VM just gave the page up, which
	// makes it the likeliest page in the store to refault next.
	b.Advise(0, ps, store.AdviseCold)
	if err := b.MigrateNow(); err != nil {
		t.Fatalf("MigrateNow: %v", err)
	}
	s := b.Stats()
	if s.Promotions != 1 || s.Demotions != 3 {
		t.Fatalf("victim insert: promotions/demotions = %d/%d, want 1/3", s.Promotions, s.Demotions)
	}
	// The refault the insert predicted is now a warm read, not a cold
	// one, and the second touch climbs the page to hot.
	got := make([]byte, ps)
	if err := b.ReadAt(0, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	s = b.Stats()
	if s.WarmReads != 1 || s.ColdReads != 0 {
		t.Fatalf("victim-inserted page read from the wrong tier: %+v", s)
	}
	if s.HotPages != 1 {
		t.Fatalf("refault after victim insert did not reach hot: %+v", s)
	}
	if got[1] != storetest.Pattern(1, ps)[1] {
		t.Fatalf("content corrupted by victim insert")
	}
	// AdviseIdle sinks outright: page 0 drops hot -> warm on the drain.
	b.Advise(0, ps, store.AdviseIdle)
	if err := b.MigrateNow(); err != nil {
		t.Fatalf("MigrateNow: %v", err)
	}
	s = b.Stats()
	if s.HotPages != 0 {
		t.Fatalf("AdviseIdle did not sink the hot page: %+v", s)
	}
	if s.AdvisedCold != 1 || s.AdvisedIdle != 1 {
		t.Fatalf("advice counters = %d/%d, want 1/1", s.AdvisedCold, s.AdvisedIdle)
	}
	if err := b.ReadAt(0, got); err != nil {
		t.Fatalf("ReadAt: %v", err)
	}
	if got[1] != storetest.Pattern(1, ps)[1] {
		t.Fatalf("content corrupted by idle-driven migration")
	}
}

// TestStaticNeverMigrates pins the ablation baseline: static placement
// ignores advice and never promotes or demotes.
func TestStaticNeverMigrates(t *testing.T) {
	b := tier.NewDefault(ps, tier.Options{HotPages: 1, WarmPages: 1, Static: true})
	defer b.Close()
	for i := int64(0); i < 4; i++ {
		if err := b.WriteAt(i*ps, storetest.Pattern(byte(i+1), ps)); err != nil {
			t.Fatalf("WriteAt: %v", err)
		}
	}
	b.Advise(0, 4*ps, store.AdviseCold)
	if err := b.MigrateNow(); err != nil {
		t.Fatalf("MigrateNow: %v", err)
	}
	got := make([]byte, ps)
	for i := int64(0); i < 4; i++ {
		if err := b.ReadAt(i*ps, got); err != nil {
			t.Fatalf("ReadAt: %v", err)
		}
	}
	s := b.Stats()
	if s.Promotions != 0 || s.Demotions != 0 {
		t.Fatalf("static backend migrated: %d promotions, %d demotions", s.Promotions, s.Demotions)
	}
	if s.HotPages != 1 || s.WarmPages != 1 || s.ColdPages != 2 {
		t.Fatalf("static residency = %d/%d/%d, want 1/1/2", s.HotPages, s.WarmPages, s.ColdPages)
	}
	if s.ColdReads != 2 {
		t.Fatalf("static ColdReads = %d, want 2 (no promote-on-read)", s.ColdReads)
	}
}

// TestMigratorLifecycle checks the async migrator's daemon
// conventions: leak-free, idempotent start and stop, migration happens
// in the background.
func TestMigratorLifecycle(t *testing.T) {
	leakcheck.Check(t)
	b := tier.NewDefault(ps, tier.Options{HotPages: 8, WarmPages: 8})
	defer b.Close()

	b.StartMigrator(time.Millisecond)
	b.StartMigrator(time.Millisecond) // idempotent: second start is a no-op

	if err := b.WriteAt(0, storetest.Pattern(1, ps)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	b.Advise(0, ps, store.AdviseIdle)
	deadline := time.Now().Add(5 * time.Second)
	for b.Stats().ColdPages != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("migrator never drained the advice sink")
		}
		time.Sleep(time.Millisecond)
	}

	b.StopMigrator()
	b.StopMigrator() // idempotent

	// Advice after stop sits in the sink until a Sync drains it inline.
	if err := b.WriteAt(ps, storetest.Pattern(2, ps)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	b.Advise(ps, ps, store.AdviseIdle)
	if err := b.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if got := b.Stats().ColdPages; got != 2 {
		t.Fatalf("ColdPages = %d, want 2 after Sync drain", got)
	}
}

// TestCloseStopsMigrator checks Close alone winds the daemon down.
func TestCloseStopsMigrator(t *testing.T) {
	leakcheck.Check(t)
	b := tier.NewDefault(ps, tier.Options{})
	b.StartMigrator(time.Millisecond)
	if err := b.WriteAt(0, storetest.Pattern(1, ps)); err != nil {
		t.Fatalf("WriteAt: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// BenchmarkTierReadPromote measures the refault path of the tiered
// store: every read hits a cold page, climbs it to warm, and the warm
// watermark demotes the warm tier's coldest page back to cold — one
// read, one promotion, one movePage per op.
func BenchmarkTierReadPromote(b *testing.B) {
	const (
		ps    = 8192
		pages = 64
	)
	tb := tier.NewDefault(ps, tier.Options{HotPages: 4, WarmPages: 8})
	defer tb.Close()
	pg := make([]byte, ps)
	for i := 0; i < pages; i++ {
		copy(pg, []byte{byte(i), 'v', 'e', 'r'})
		if err := tb.WriteAt(int64(i)*ps, pg); err != nil {
			b.Fatal(err)
		}
	}
	// One full pass settles the steady state: a read page is always the
	// one demoted longest ago.
	for i := 0; i < pages; i++ {
		if err := tb.ReadAt(int64(i)*ps, pg); err != nil {
			b.Fatal(err)
		}
	}
	before := tb.Stats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tb.ReadAt(int64(i%pages)*ps, pg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := tb.Stats(); st.ColdReads-before.ColdReads != uint64(b.N) {
		b.Fatalf("%d cold reads in %d ops: the benchmark left its steady state", st.ColdReads-before.ColdReads, b.N)
	}
}
