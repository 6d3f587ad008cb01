package audit

import (
	"errors"
	"strings"
	"testing"

	"sdfm/internal/mem"
	"sdfm/internal/pagedata"
	"sdfm/internal/zsmalloc"
	"sdfm/internal/zswap"
)

func newMemcg(pages int) *mem.Memcg {
	return mem.NewMemcg(mem.Config{
		Name: "job", Pages: pages,
		Mix: pagedata.NewMix(0.1, 1, 1, 1, 0.1), SeedBase: 7,
	})
}

// exercise stores a slab of pages into the pool, promotes some back, and
// drops a few — leaving a healthy mixed state for the catalogue.
func exercise(t *testing.T, p *zswap.Pool, m *mem.Memcg) {
	t.Helper()
	for i := 0; i < m.NumPages()/2; i++ {
		p.Store(m, mem.PageID(i))
	}
	for i := 0; i < m.NumPages()/8; i++ {
		if m.Flags(mem.PageID(i))&mem.FlagCompressed != 0 {
			if _, err := p.Load(m, mem.PageID(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestHealthyStatePasses(t *testing.T) {
	p := zswap.NewPool()
	m := newMemcg(400)
	exercise(t, p, m)
	if vs := CheckMemcg("m0", m); len(vs) > 0 {
		t.Fatalf("healthy memcg flagged: %v", vs)
	}
	if vs := CheckMemcgDeep("m0", m); len(vs) > 0 {
		t.Fatalf("healthy memcg failed deep recount: %v", vs)
	}
	if vs := CheckPool("m0", p, uint64(m.Compressed()), m.CompressedBytes()); len(vs) > 0 {
		t.Fatalf("healthy pool flagged: %v", vs)
	}
	if vs := CheckPoolDeep("m0", p); len(vs) > 0 {
		t.Fatalf("healthy pool failed arena recount: %v", vs)
	}
}

// TestPoolConservationViolations: lying to CheckPool about the fleet's
// memcg totals — exactly what a leaking promotion path produces — is
// flagged as byte and page conservation breaches.
func TestPoolConservationViolations(t *testing.T) {
	p := zswap.NewPool()
	m := newMemcg(400)
	exercise(t, p, m)
	pages, bytes := uint64(m.Compressed()), m.CompressedBytes()

	vs := CheckPool("m0", p, pages, bytes-1)
	if !hasInvariant(vs, InvZswapBytes) {
		t.Fatalf("byte leak not flagged: %v", vs)
	}
	vs = CheckPool("m0", p, pages+1, bytes)
	if !hasInvariant(vs, InvZswapPages) {
		t.Fatalf("page leak not flagged: %v", vs)
	}
}

func TestArenaStatsViolations(t *testing.T) {
	base := zsmalloc.Stats{Objects: 10, Zspages: 2, PhysicalBytes: 2 * zsmalloc.ZspageBytes,
		SlotBytes: 4096, PayloadBytes: 4000}
	if vs := CheckArenaStats("m0", base); len(vs) > 0 {
		t.Fatalf("coherent stats flagged: %v", vs)
	}
	cases := []struct {
		name   string
		mutate func(*zsmalloc.Stats)
	}{
		{"physical mismatch", func(s *zsmalloc.Stats) { s.PhysicalBytes++ }},
		{"payload over slots", func(s *zsmalloc.Stats) { s.PayloadBytes = s.SlotBytes + 1 }},
		{"slots over physical", func(s *zsmalloc.Stats) { s.SlotBytes = s.PhysicalBytes + 1 }},
		{"objects without payload", func(s *zsmalloc.Stats) { s.PayloadBytes = 0 }},
		{"negative objects", func(s *zsmalloc.Stats) { s.Objects = -1 }},
	}
	for _, c := range cases {
		st := base
		c.mutate(&st)
		if vs := CheckArenaStats("m0", st); !hasInvariant(vs, InvZsmallocStats) {
			t.Errorf("%s not flagged: %v", c.name, vs)
		}
	}
}

func TestErrorWrapsSentinel(t *testing.T) {
	err := error(&Error{Violations: []Violation{
		V("m3", "job-1", InvMemConservation, "off by %d", 4),
		V("m3", "", InvZswapBytes, "leak"),
	}})
	if !errors.Is(err, ErrViolation) {
		t.Fatal("audit.Error does not wrap ErrViolation")
	}
	msg := err.Error()
	for _, want := range []string{"2 invariant violation(s)", "m3/job-1", InvMemConservation, "off by 4", InvZswapBytes} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func hasInvariant(vs []Violation, inv string) bool {
	for _, v := range vs {
		if v.Invariant == inv {
			return true
		}
	}
	return false
}
