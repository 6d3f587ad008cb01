package compress

import "time"

// CostModel converts byte counts into simulated CPU latency for
// compression and decompression. The far-memory control plane charges
// these latencies against job CPU usage (Figure 8) and reports the
// decompression distribution (Figure 9b).
//
// The model is affine in the bytes touched: a fixed per-call cost plus a
// per-KiB cost on the compressed stream and on the uncompressed page.
// DefaultLZOCost is calibrated so that a typical 4 KiB page compressing
// around 3:1 decompresses near the paper's 6.4 µs median, with pages at
// the 2990-byte acceptance cutoff landing near its 9.1 µs tail
// (Haswell-class cores running lzo, §6.3).
type CostModel struct {
	// Compression side.
	CompressBase   time.Duration // fixed cost per compression call
	CompressPerKiB time.Duration // per KiB of (uncompressed) input

	// Decompression side.
	DecompressBase      time.Duration // fixed cost per decompression call
	DecompressPerKiBIn  time.Duration // per KiB of compressed input
	DecompressPerKiBOut time.Duration // per KiB of decompressed output
	IncompressiblePad   time.Duration // extra cost wasted on a rejected page
}

// DefaultLZOCost is the lzo-on-Haswell calibration used throughout the
// evaluation.
var DefaultLZOCost = CostModel{
	CompressBase:   3 * time.Microsecond,
	CompressPerKiB: 2 * time.Microsecond, // ~11 µs for a 4 KiB page
	DecompressBase: 2 * time.Microsecond,
	// ~2.45 ns/byte: ~6.4 µs for the typical ~1.8 KiB payload, ~9.3 µs at
	// the 2990-byte acceptance cutoff (the paper's 6.4/9.1 µs p50/p98).
	DecompressPerKiBIn:  2509 * time.Nanosecond,
	DecompressPerKiBOut: 0,
	IncompressiblePad:   time.Microsecond,
}

func scaleByBytes(perKiB time.Duration, n int) time.Duration {
	return time.Duration(int64(perKiB) * int64(n) / 1024)
}

// CompressLatency returns the simulated CPU time to compress a page of
// inputSize bytes.
func (m CostModel) CompressLatency(inputSize int) time.Duration {
	return m.CompressBase + scaleByBytes(m.CompressPerKiB, inputSize)
}

// RejectLatency returns the CPU time wasted attempting to compress an
// incompressible page: the full compression cost plus bookkeeping.
func (m CostModel) RejectLatency(inputSize int) time.Duration {
	return m.CompressLatency(inputSize) + m.IncompressiblePad
}

// DecompressLatency returns the simulated CPU time to decompress
// compressedSize bytes back into outputSize bytes.
func (m CostModel) DecompressLatency(compressedSize, outputSize int) time.Duration {
	return m.DecompressBase +
		scaleByBytes(m.DecompressPerKiBIn, compressedSize) +
		scaleByBytes(m.DecompressPerKiBOut, outputSize)
}
