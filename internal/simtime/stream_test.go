package simtime

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The oracle for Stream is math/rand itself: every draw must equal the
// draw of Rand for the same seed and label, bit for bit.

// intnArgs are the bounds Intn is checked with: one, powers of two (the
// masking path), odd bounds (the rejection loop), and bounds past 2³¹ − 1
// (Int63n instead of Int31n).
var intnArgs = []int{1, 2, 3, 7, 64, 1000, 4000, 1<<20 + 1, 1<<31 - 1, 1 << 31, 1<<40 + 3, 1 << 62, math.MaxInt64}

// checkOp draws once with op from both sides and reports a difference.
func checkOp(s *Stream, r *rand.Rand, op, arg int) error {
	var got, want uint64
	var name string
	switch op % 4 {
	case 0:
		name = "Float64"
		got, want = math.Float64bits(s.Float64()), math.Float64bits(r.Float64())
	case 1:
		name = "ExpFloat64"
		got, want = math.Float64bits(s.ExpFloat64()), math.Float64bits(r.ExpFloat64())
	case 2:
		n := intnArgs[arg%len(intnArgs)]
		name = fmt.Sprintf("Intn(%d)", n)
		got, want = uint64(s.Intn(n)), uint64(r.Intn(n))
	case 3:
		name = "Int63"
		got, want = uint64(s.Int63()), uint64(r.Int63())
	}
	if got != want {
		return fmt.Errorf("%s = %#x, math/rand %#x", name, got, want)
	}
	return nil
}

// TestStreamMatchesRand runs seeds and labels through mixed draw sequences
// of several refills each, in runs of one method so that each method also
// meets the ring's end.
func TestStreamMatchesRand(t *testing.T) {
	mix := rand.New(rand.NewSource(1))
	for _, seed := range []int64{0, 1, 42, 1337, -1, math.MaxInt64, math.MinInt64, 1 << 31, 89482311} {
		for _, label := range []string{"", "workload/inst", "workload/job-17", "fleet", "x"} {
			s, r := NewStream(seed, label), Rand(seed, label)
			for draw := 0; draw < 5*ringLen; {
				op, arg, run := mix.Intn(4), mix.Intn(len(intnArgs)), 1+mix.Intn(40)
				for k := 0; k < run; k++ {
					if err := checkOp(s, r, op, arg); err != nil {
						t.Fatalf("seed %d label %q draw %d: %v", seed, label, draw, err)
					}
					draw++
				}
			}
		}
	}
}

// FuzzStreamMatchesRand: each op byte draws 1 + b/4 times with method b%4,
// so a few dozen bytes cross several refills.
func FuzzStreamMatchesRand(f *testing.F) {
	f.Add(int64(42), "workload/inst", []byte{0, 1, 2, 3})
	f.Add(int64(-7), "", []byte{255, 253, 254, 252, 255, 253, 254, 252, 255, 253, 254, 252})
	f.Add(int64(1337), "workload/job-3", []byte{1, 5, 9, 0, 0, 250, 6, 10, 251})
	f.Fuzz(func(t *testing.T, seed int64, label string, ops []byte) {
		s, r := NewStream(seed, label), Rand(seed, label)
		for i, b := range ops {
			for k := 0; k <= int(b/4); k++ {
				if err := checkOp(s, r, int(b), i+k); err != nil {
					t.Fatalf("op %d (byte %d), draw %d: %v", i, b, k, err)
				}
			}
		}
	})
}

// rawSource is a rand.Source64 that replays raw; the Stream side replays
// the same values from its ring.
type rawSource struct {
	raw []uint64
	n   int
}

func (r *rawSource) Uint64() uint64 { r.n++; return r.raw[r.n-1] }
func (r *rawSource) Int63() int64   { return int64(r.Uint64() & int63Mask) }
func (r *rawSource) Seed(int64)     {}

// replay returns a Stream and a math/rand generator that both draw raw.
func replay(raw ...uint64) (*Stream, *rand.Rand, *rawSource) {
	s := new(Stream)
	copy(s.ring[:], raw)
	src := &rawSource{raw: raw}
	return s, rand.New(src), src
}

// TestStreamRareBranches feeds crafted raw values to both sides to force
// the branches a random stream takes about once in 2⁵³ draws (Float64's
// resample) or once in a hundred (the ziggurat's tail and wedge). Each
// case also checks how many raw values were used, which shows the branch
// was taken.
func TestStreamRareBranches(t *testing.T) {
	const (
		top  = 1<<63 - 1     // Int63's largest value: rounds to 1.0
		tie  = 1<<63 - 1<<9  // halfway to the float64 below 1.0: rounds (to even) up to 1.0
		half = 1 << 62       // Float64 0.5
		jTop = 1<<63 - 1<<11 // Float64 just below 1.0
	)
	if float64(int64(tie))/(1<<63) != 1 || float64(int64(tie-1))/(1<<63) == 1 {
		t.Fatal("tie is not the smallest Int63 that rounds to 1.0")
	}
	// zig is a raw value whose Uint32 is j.
	zig := func(j uint32) uint64 { return uint64(j) << 31 }
	tail := uint32(0xFFFFFF00) // strip 0, above ke[0]: the tail
	wedge := uint32(0x101)     // strip 1, ke[1] = 0: always the wedge test
	fast := uint32(0x05)       // strip 5, below ke[5]: accepted at once
	for _, c := range []struct {
		name string
		exp  bool // ExpFloat64, else Float64
		raw  []uint64
		used int
	}{
		{"Float64 accepts", false, []uint64{tie - 1}, 1},
		{"Float64 resamples 1.0", false, []uint64{top, tie, 1<<64 - 1, tie - 1}, 4},
		{"Float64 ignores the 64th bit", false, []uint64{1<<63 | half}, 1},
		{"ExpFloat64 first strip", true, []uint64{zig(fast)}, 1},
		{"ExpFloat64 tail", true, []uint64{zig(tail), half}, 2},
		{"ExpFloat64 tail resamples 1.0", true, []uint64{zig(tail), top, half}, 3},
		{"ExpFloat64 wedge accepts", true, []uint64{zig(wedge), 0}, 2},
		{"ExpFloat64 wedge rejects", true, []uint64{zig(wedge), jTop, zig(fast)}, 3},
		{"ExpFloat64 wedge rejects into the tail", true, []uint64{zig(wedge), jTop, zig(tail), half}, 4},
	} {
		s, r, src := replay(c.raw...)
		var got, want float64
		if c.exp {
			got, want = s.ExpFloat64(), r.ExpFloat64()
		} else {
			got, want = s.Float64(), r.Float64()
		}
		if math.Float64bits(got) != math.Float64bits(want) || int(s.pos) != src.n || src.n != c.used {
			t.Errorf("%s: %v using %d raw values, math/rand %v using %d; want %d used", c.name, got, s.pos, want, src.n, c.used)
		}
	}
	// j == ke[i] would need a table entry whose low byte is its own index.
	// There is none, so "j < ke[i]" and "j <= ke[i]" agree on every draw.
	for i, k := range ke {
		if k&0xFF == uint32(i) {
			t.Errorf("ke[%d] = %#x: a draw can equal its strip's bound", i, k)
		}
	}
}

// TestStreamRefill checks the ring recurrence on its own: after a refill,
// every value is the sum of the values 607 and 273 draws before it.
func TestStreamRefill(t *testing.T) {
	s := NewStream(42, "refill")
	seq := make([]uint64, 0, 3*ringLen)
	for len(seq) < cap(seq) {
		seq = append(seq, s.next())
	}
	for n := ringLen; n < len(seq); n++ {
		if seq[n] != seq[n-607]+seq[n-273] {
			t.Fatalf("u[%d] = %#x, want u[n−607] + u[n−273] = %#x", n, seq[n], seq[n-607]+seq[n-273])
		}
	}
}

// TestStreamDrawsAllocateNothing: the draws run in the simulator's
// innermost loop.
func TestStreamDrawsAllocateNothing(t *testing.T) {
	s := NewStream(1, "allocs")
	if a := testing.AllocsPerRun(2000, func() { s.Float64(); s.ExpFloat64(); s.Intn(1000) }); a != 0 {
		t.Errorf("%v allocations per draw", a)
	}
}
