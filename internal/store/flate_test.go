package store

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// psFlate is the page size of the Flate tests: the VM's 8 KB page, so
// allocation counts and blob sizes are the ones the swap path sees.
const psFlate = 8192

// flatePages is a varied page sequence: zeros, a small stamp on zeros
// (what a swapped-out page of the benchmark looks like), a repeating
// pattern, text-like bytes and incompressible noise.
func flatePages() [][]byte {
	rng := rand.New(rand.NewSource(7))
	var pages [][]byte
	pages = append(pages, make([]byte, psFlate))
	stamp := make([]byte, psFlate)
	copy(stamp, "version 0000042")
	pages = append(pages, stamp)
	pages = append(pages, pattern(0x5A, psFlate))
	text := make([]byte, psFlate)
	for i := range text {
		text[i] = "the quick brown fox jumps over the lazy dog "[rng.Intn(44)]
	}
	pages = append(pages, text)
	noise := make([]byte, psFlate)
	rng.Read(noise)
	pages = append(pages, noise)
	half := make([]byte, psFlate)
	rng.Read(half[:psFlate/2])
	pages = append(pages, half)
	return pages
}

// freshDeflate is the reference encoding: a new writer per page, as the
// backend did before it pooled its codecs.
func freshDeflate(t *testing.T, pg []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	w, err := flate.NewWriter(&b, flateLevel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(pg); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestFlateBlobsMatchFreshWriter(t *testing.T) {
	z := NewFlate(psFlate)
	pages := flatePages()
	var want int64
	// Every page at several offsets and in several orders, so the reused
	// writer has compressed other content before each one.
	for round := 0; round < 3; round++ {
		for i, pg := range pages {
			po := int64((round*len(pages)+i)%7) * psFlate
			if err := z.WriteAt(po, pg); err != nil {
				t.Fatal(err)
			}
			ref := freshDeflate(t, pg)
			if got := z.pages[po]; !bytes.Equal(got, ref) {
				t.Fatalf("round %d page %d: pooled blob (%d bytes) differs from a fresh writer's (%d bytes)", round, i, len(got), len(ref))
			}
		}
	}
	for _, blob := range z.pages {
		want += int64(len(blob))
	}
	if got := z.BytesPhysical(); got != want {
		t.Fatalf("BytesPhysical = %d, want %d", got, want)
	}
	// Stored blobs are exact-size copies that never alias the codec.
	for po, blob := range z.pages {
		if cap(blob) != len(blob) {
			t.Fatalf("blob at %#x has cap %d for len %d", po, cap(blob), len(blob))
		}
	}
	got := make([]byte, psFlate)
	for po := int64(0); po < 7*psFlate; po += psFlate {
		if err := z.ReadAt(po, got); err != nil {
			t.Fatalf("ReadAt(%#x): %v", po, err)
		}
	}
}

func TestFlateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	z := NewFlate(psFlate)
	pg := flatePages()[1]
	buf := make([]byte, psFlate)
	// Warm up: the pool builds its codec, the maps their buckets.
	for i := 0; i < 3; i++ {
		if err := z.WriteAt(0, pg); err != nil {
			t.Fatal(err)
		}
		if err := z.ReadAt(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := z.WriteAt(0, pg); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Fatalf("full-page WriteAt: %v allocs, want at most 1 (the stored blob)", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := z.ReadAt(0, buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("ReadAt: %v allocs, want 0", n)
	}
	if !bytes.Equal(buf, pg) {
		t.Fatal("ReadAt content mismatch")
	}
}

func TestFlateCorruptBlobThenGoodRead(t *testing.T) {
	z := NewFlate(psFlate)
	pages := flatePages()
	for i, pg := range pages {
		if err := z.WriteAt(int64(i)*psFlate, pg); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, psFlate)

	// A blob that no longer inflates.
	bad := bytes.Clone(z.pages[2*psFlate])
	for i := range bad {
		bad[i] ^= 0xFF
	}
	z.pages[2*psFlate] = bad
	if err := z.ReadAt(2*psFlate, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAt of a mangled blob: %v, want ErrCorrupt", err)
	}
	// A blob that inflates to the wrong page: the checksum catches it.
	z.pages[3*psFlate] = z.pages[4*psFlate]
	if err := z.ReadAt(3*psFlate, buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadAt of a swapped blob: %v, want ErrCorrupt", err)
	}
	// The failed reads left no state behind in the pool.
	for _, i := range []int{0, 1, 4, 5} {
		if err := z.ReadAt(int64(i)*psFlate, buf); err != nil {
			t.Fatalf("good ReadAt after corruption: %v", err)
		}
		if !bytes.Equal(buf, pages[i]) {
			t.Fatalf("page %d content mismatch after a corrupt read", i)
		}
	}

	// The same codec, explicitly: a failed inflate, then a good one.
	c := newCodec()
	if err := c.inflate(bad, c.scratch(psFlate)); err == nil {
		t.Fatal("inflate of a mangled blob succeeded")
	}
	good := freshDeflate(t, pages[5])
	if err := c.inflate(good, c.scratch(psFlate)); err != nil {
		t.Fatalf("inflate after a failed one: %v", err)
	}
	if !bytes.Equal(c.scratch(psFlate), pages[5]) {
		t.Fatal("codec inflated the wrong content after a failed inflate")
	}
}

// TestFlateConcurrentInstances runs several Flate instances at once (as a
// tiered store's swap segments do) over shared and private pages, so the
// pooled codecs pass between instances and goroutines. Run with -race.
func TestFlateConcurrentInstances(t *testing.T) {
	const (
		instances = 3
		workers   = 6
		rounds    = 60
		shared    = 4 // pages every worker writes, each its own copy of the tag
	)
	zs := make([]*Flate, instances)
	for i := range zs {
		zs[i] = NewFlate(psFlate)
	}
	pages := flatePages()
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			own := zs[w%instances]
			buf := make([]byte, psFlate)
			for r := 0; r < rounds; r++ {
				// Private page: this worker alone writes it, so it must read
				// back exactly.
				po := int64(shared+w) * psFlate
				want := pages[rng.Intn(len(pages))]
				if err := own.WriteAt(po, want); err != nil {
					errs <- err
					return
				}
				if err := own.ReadAt(po, buf); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, want) {
					errs <- fmt.Errorf("worker %d round %d: private page mismatch", w, r)
					return
				}
				// Shared pages of a shared instance: any page of the set may
				// be read back, but never a torn or corrupt one.
				z := zs[rng.Intn(instances)]
				spo := int64(rng.Intn(shared)) * psFlate
				if err := z.WriteAt(spo, pages[rng.Intn(len(pages))]); err != nil {
					errs <- err
					return
				}
				if err := z.ReadAt(spo, buf); err != nil {
					errs <- fmt.Errorf("worker %d round %d: shared read: %w", w, r, err)
					return
				}
				match := false
				for _, pg := range pages {
					match = match || bytes.Equal(buf, pg)
				}
				if !match {
					errs <- fmt.Errorf("worker %d round %d: shared page holds content nobody wrote", w, r)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func BenchmarkFlateWriteAt(b *testing.B) {
	z := NewFlate(psFlate)
	pg := flatePages()[1]
	for i := 0; i < 64; i++ { // the pool's codec and the blob map
		if err := z.WriteAt(int64(i)*psFlate, pg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.SetBytes(psFlate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := z.WriteAt(int64(i%64)*psFlate, pg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlateReadAt(b *testing.B) {
	z := NewFlate(psFlate)
	pg := flatePages()[1]
	for i := 0; i < 64; i++ {
		if err := z.WriteAt(int64(i)*psFlate, pg); err != nil {
			b.Fatal(err)
		}
	}
	buf := make([]byte, psFlate)
	b.ReportAllocs()
	b.SetBytes(psFlate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := z.ReadAt(int64(i%64)*psFlate, buf); err != nil {
			b.Fatal(err)
		}
	}
}
