package main

import (
	"encoding/binary"
	"hash/fnv"
	"time"

	"sdfm/internal/compress"
	"sdfm/internal/mem"
	"sdfm/internal/pagedata"
)

// The host anchor is a fixed, deterministic CPU task that benchab times
// in its own process before every run: the same page compressions on the
// same bytes whatever the trees hold, so that a slower or faster host
// shows in it and not only in the metrics. Each pair records the faster
// of its two timings as anchor_ns; no verdict reads it yet.
const (
	anchorPages = 128 // 512 KiB of page data
	anchorReps  = 5   // passes per timing; the fastest counts
)

// anchorSet returns the anchor's pages: anchorPages pages cycling through
// the data classes that compress, each generated from its index.
func anchorSet() [][]byte {
	classes := []pagedata.Class{pagedata.ClassText, pagedata.ClassStructured, pagedata.ClassNumeric, pagedata.ClassRandom}
	set := make([][]byte, anchorPages)
	for i := range set {
		set[i] = make([]byte, mem.PageSize)
		pagedata.Generate(set[i], classes[i%len(classes)], uint64(i))
	}
	return set
}

// anchorPass compresses every page of set, reusing buf, and returns the
// FNV-1a digest of the compressed pages with their lengths.
func anchorPass(set [][]byte, buf []byte) uint64 {
	h := fnv.New64a()
	var n [4]byte
	for _, page := range set {
		buf = compress.Compress(buf[:0], page)
		binary.LittleEndian.PutUint32(n[:], uint32(len(buf)))
		h.Write(n[:])
		h.Write(buf)
	}
	return h.Sum64()
}

// timeAnchor returns the fastest of anchorReps passes over set, in
// nanoseconds.
func timeAnchor(set [][]byte) int64 {
	buf := make([]byte, 0, compress.CompressBound(mem.PageSize))
	best := int64(-1)
	for range anchorReps {
		start := time.Now()
		anchorPass(set, buf)
		if ns := time.Since(start).Nanoseconds(); best < 0 || ns < best {
			best = ns
		}
	}
	return best
}
