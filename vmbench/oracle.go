package main

import (
	"bytes"
	"encoding/binary"
	"errors"
)

// pageSize is the PVM's default page size, which every workload keeps.
const pageSize = 8192

// errMismatch is a read that returned bytes the model did not predict.
var errMismatch = errors.New("read returned bytes the model did not predict")

// The models the workloads check results against all reduce to one
// function: the 8-byte word a page should hold at a word index, given the
// page's identity and a tag (a version, or which writer last wrote it).
// Words are mixed so that a page from the wrong offset, a stale version
// or a torn copy never matches by accident.

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// word is the expected 8 bytes at word index w of page pg with tag.
func word(pg int, tag uint64, w int) uint64 {
	return mix64(uint64(pg)<<40 ^ uint64(w)<<28 ^ mix64(tag))
}

// stampLen is how many bytes of a page a stamp covers.
const stampLen = 64

// fill writes the expected words [w0, w0+len(buf)/8) of (pg, tag) into buf.
func fill(buf []byte, pg int, tag uint64, w0 int) {
	for i := 0; i+8 <= len(buf); i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], word(pg, tag, w0+i/8))
	}
}

// matches reports whether buf holds the expected words [w0, ...) of
// (pg, tag); scratch must be as long as buf.
func matches(buf, scratch []byte, pg int, tag uint64, w0 int) bool {
	fill(scratch, pg, tag, w0)
	return bytes.Equal(buf, scratch)
}
