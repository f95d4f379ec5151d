package store

import (
	"bytes"
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"chorusvm/internal/obs"
)

// Flate is a compressing backend: each materialized page is held as a
// DEFLATE blob (stdlib compress/flate) plus a checksum of the
// uncompressed content. It trades CPU on the read/write path for
// physical bytes — the zswap/zram trade — and tracks logical vs physical
// bytes so the ratio is observable.
type Flate struct {
	ps int64

	mu       sync.Mutex
	pages    map[int64][]byte // compressed page blobs
	crcs     map[int64]uint32 // crc32 of the uncompressed page
	physical int64            // total compressed bytes held
	closed   bool

	// tr observes compression/decompression time (nil-safe); set before
	// first use.
	tr *obs.Tracer
}

var _ Backend = (*Flate)(nil)

// flateLevel is the compression level of every Flate: the backend sits
// on the pullIn/pushOut path, where latency matters more than the last
// percent of ratio.
const flateLevel = flate.BestSpeed

// NewFlate creates a compressing backend.
func NewFlate(pageSize int) *Flate {
	return &Flate{
		ps:    int64(pageSize),
		pages: make(map[int64][]byte),
		crcs:  make(map[int64]uint32),
	}
}

// SetTracer attaches an observability tracer (nil disables; call before
// the backend starts serving I/O).
func (z *Flate) SetTracer(t *obs.Tracer) { z.tr = t }

// PageSize implements Backend.
func (z *Flate) PageSize() int { return int(z.ps) }

// codec is the reusable state of one page (de)compression: a
// flate.Writer costs about 1.2 MB to build and an inflater tens of KB,
// against an 8 KB page, so both are built once and Reset per page.
// Codecs live in a process-wide pool rather than in each Flate: a tiered
// store makes one Flate per swap segment, and a codec pinned to every
// instance would hold megabytes per segment for good, while the pool
// holds about one per concurrently compressing goroutine and lets the
// GC take idle ones back.
type codec struct {
	w    *flate.Writer
	r    io.ReadCloser // also a flate.Resetter
	src  bytes.Reader  // the blob being inflated
	out  bytes.Buffer  // the blob being deflated
	page []byte        // one page of scratch, grown to the largest page size seen
}

var codecs = sync.Pool{New: func() any { return newCodec() }}

func newCodec() *codec {
	c := new(codec)
	// Only an out-of-range level fails, and flateLevel is in range.
	c.w, _ = flate.NewWriter(&c.out, flateLevel)
	c.r = flate.NewReader(&c.src)
	return c
}

// scratch returns the codec's page buffer sized to n bytes.
func (c *codec) scratch(n int64) []byte {
	if int64(cap(c.page)) < n {
		c.page = make([]byte, n)
	}
	return c.page[:n]
}

// deflate compresses pg. The result aliases the codec's output buffer
// and is valid only until the codec's next use.
func (c *codec) deflate(pg []byte) ([]byte, error) {
	c.out.Reset()
	c.w.Reset(&c.out)
	if _, err := c.w.Write(pg); err != nil {
		return nil, err
	}
	if err := c.w.Close(); err != nil {
		return nil, err
	}
	return c.out.Bytes(), nil
}

// inflate decompresses blob into exactly len(dst) bytes.
func (c *codec) inflate(blob, dst []byte) error {
	c.src.Reset(blob)
	if err := c.r.(flate.Resetter).Reset(&c.src, nil); err != nil {
		return err
	}
	_, err := io.ReadFull(c.r, dst)
	return err
}

// compressPage deflates one page into a blob of its own (an exact-size
// copy: stored blobs never alias the pooled codec); z.mu held (the blob
// map is being updated around it).
func (z *Flate) compressPage(c *codec, pg []byte) ([]byte, error) {
	start := z.tr.Clock()
	out, err := c.deflate(pg)
	if err != nil {
		return nil, err
	}
	z.tr.Span(obs.KindStoreCompress, obs.OpStoreCompress, int64(len(pg)), int64(len(out)), start)
	blob := make([]byte, len(out))
	copy(blob, out)
	return blob, nil
}

// decompressPage inflates one page blob into dst and verifies the
// recorded checksum; a blob that fails to inflate or mismatches is
// ErrCorrupt.
func (z *Flate) decompressPage(c *codec, po int64, blob []byte, dst []byte) error {
	start := z.tr.Clock()
	if err := c.inflate(blob, dst); err != nil {
		return fmt.Errorf("inflate failed (%v): %w", err, corruptAt("flate", po))
	}
	if crc32.ChecksumIEEE(dst) != z.crcs[po] {
		return corruptAt("flate", po)
	}
	z.tr.Span(obs.KindStoreCompress, obs.OpStoreCompress, int64(len(blob)), int64(len(dst)), start)
	return nil
}

// ReadAt implements Backend.
func (z *Flate) ReadAt(off int64, buf []byte) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.closed {
		return ErrClosed
	}
	c := codecs.Get().(*codec)
	defer codecs.Put(c)
	scratch := c.scratch(z.ps)
	return forEachPage(z.ps, off, int64(len(buf)), func(po, b, bufOff, n int64) error {
		blob, ok := z.pages[po]
		if !ok {
			clear(buf[bufOff : bufOff+n])
			return nil
		}
		if err := z.decompressPage(c, po, blob, scratch); err != nil {
			return err
		}
		copy(buf[bufOff:bufOff+n], scratch[b:b+n])
		return nil
	})
}

// WriteAt implements Backend.
func (z *Flate) WriteAt(off int64, data []byte) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.closed {
		return ErrClosed
	}
	c := codecs.Get().(*codec)
	defer codecs.Put(c)
	scratch := c.scratch(z.ps)
	return forEachPage(z.ps, off, int64(len(data)), func(po, b, bufOff, n int64) error {
		pg := data[bufOff : bufOff+n]
		// Partial pages read-modify-write through the existing blob.
		if n < z.ps {
			if blob, ok := z.pages[po]; ok {
				if err := z.decompressPage(c, po, blob, scratch); err != nil {
					return err
				}
			} else {
				clear(scratch)
			}
			copy(scratch[b:b+n], pg)
			pg = scratch
		}
		blob, err := z.compressPage(c, pg)
		if err != nil {
			return err
		}
		if old, ok := z.pages[po]; ok {
			z.physical -= int64(len(old))
		}
		z.pages[po] = blob
		z.crcs[po] = crc32.ChecksumIEEE(pg)
		z.physical += int64(len(blob))
		return nil
	})
}

// Truncate implements Backend.
func (z *Flate) Truncate(size int64) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.closed {
		return ErrClosed
	}
	for po, blob := range z.pages {
		if po >= size {
			z.physical -= int64(len(blob))
			delete(z.pages, po)
			delete(z.crcs, po)
		}
	}
	return nil
}

// Sync implements Backend.
func (z *Flate) Sync() error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.closed {
		return ErrClosed
	}
	return nil
}

// DiscardPage implements Discarder.
func (z *Flate) DiscardPage(off int64) error {
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.closed {
		return ErrClosed
	}
	po := off &^ (z.ps - 1)
	if blob, ok := z.pages[po]; ok {
		z.physical -= int64(len(blob))
		delete(z.pages, po)
		delete(z.crcs, po)
	}
	return nil
}

// PageOffsets implements PageLister.
func (z *Flate) PageOffsets() []int64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	offs := make([]int64, 0, len(z.pages))
	for po := range z.pages {
		offs = append(offs, po)
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	return offs
}

// Pages implements Backend.
func (z *Flate) Pages() int {
	z.mu.Lock()
	defer z.mu.Unlock()
	return len(z.pages)
}

// Close implements Backend.
func (z *Flate) Close() error {
	z.mu.Lock()
	defer z.mu.Unlock()
	z.closed = true
	z.pages, z.crcs, z.physical = nil, nil, 0
	return nil
}

// BytesLogical returns the uncompressed size of the held pages.
func (z *Flate) BytesLogical() int64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	return int64(len(z.pages)) * z.ps
}

// BytesPhysical returns the compressed bytes actually held.
func (z *Flate) BytesPhysical() int64 {
	z.mu.Lock()
	defer z.mu.Unlock()
	return z.physical
}
