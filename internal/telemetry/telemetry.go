// Package telemetry implements the trace pipeline between the node agent
// and the offline far-memory model (§5.2–5.3).
//
// Every aggregation interval (5 minutes in production; the simulated
// agent's 120 s scan grid makes it 6) the node agent exports, per job: the
// working set size, the cold-age histogram, and the promotion histogram
// for the interval. The paper stores these over a set of predefined
// cold-age thresholds rather than all 256 age buckets; this package does
// the same, recording the *tail sums* at each predefined threshold —
// exactly the quantities ("cold bytes under T", "promotions under T") the
// fast model replays — which keeps week-long fleet traces compact.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"sdfm/internal/histogram"
)

// DefaultThresholds is the predefined cold-age threshold set, in scan
// periods (120 s units), spanning 2 minutes to the 8.5-hour age limit with
// roughly geometric spacing.
var DefaultThresholds = []int{
	1, 2, 3, 4, 5, 6, 8, 10, 13, 17, 22, 28, 36, 46, 59, 75, 96, 123, 157, 200, 255,
}

// DefaultAggregation is the production trace aggregation interval. The
// node agent exports at the first scan at least this long after its
// previous export, every 6 minutes on the 120 s scan grid, and labels each
// entry with the interval it actually covers.
const DefaultAggregation = 5 * time.Minute

// TailsAt evaluates h's tail sums at each threshold (in buckets).
func TailsAt(h *histogram.Histogram, thresholds []int) []uint64 {
	tails := h.TailSums()
	out := make([]uint64, len(thresholds))
	for i, t := range thresholds {
		if t < 0 || t >= histogram.NumBuckets {
			panic(fmt.Sprintf("telemetry: threshold bucket %d out of range", t))
		}
		out[i] = tails[t]
	}
	return out
}

// JobKey uniquely identifies a job instance in the fleet.
type JobKey struct {
	Cluster string
	Machine string
	Job     string
}

// String renders the key as cluster/machine/job.
func (k JobKey) String() string {
	return k.Cluster + "/" + k.Machine + "/" + k.Job
}

// Compare orders keys by their printed form, then by Cluster, then by
// Machine, returning -1, 0 or +1. Validate accepts '/' inside a field, so
// two distinct keys may print the same string; the tie-breakers keep
// them in one order, and Compare is 0 only for equal keys. Every sorted
// job list uses it.
func (k JobKey) Compare(o JobKey) int {
	if c := strings.Compare(k.String(), o.String()); c != 0 {
		return c
	}
	if c := strings.Compare(k.Cluster, o.Cluster); c != 0 {
		return c
	}
	return strings.Compare(k.Machine, o.Machine)
}

// Entry is one job's far-memory trace record for one aggregation interval.
type Entry struct {
	Key JobKey
	// TimestampSec is the interval end, in simulated seconds.
	TimestampSec int64
	// IntervalMinutes is the aggregation interval length.
	IntervalMinutes float64
	// WSSPages is the working set (pages accessed within the minimum
	// threshold) at interval end.
	WSSPages uint64
	// TotalPages is the job's total page population.
	TotalPages uint64
	// ColdTails[i] is the number of pages idle for at least
	// Trace.Thresholds[i] scan periods at interval end.
	ColdTails []uint64
	// PromoTails[i] is the number of promotions during the interval to
	// pages whose age was at least Trace.Thresholds[i].
	PromoTails []uint64
	// CompressibleFrac is the fraction of the job's cold pages that
	// actually compress (the rest are incompressible media/ciphertext and
	// never enter zswap). Zero is treated as 1 for backward compatibility.
	CompressibleFrac float64
	// Checksum is an FNV-1a digest over every other field, stamped when the
	// entry enters a trace (Trace.Append, tracestore.Writer.Append) and
	// verified on load so at-rest corruption is detected instead of
	// silently replayed. Zero is never a valid stamp: an entry that reaches
	// a verifier unstamped counts as corrupt.
	Checksum uint64
}

// FNV-1a 64 constants (hash/fnv's offset basis and prime). The digest
// below hand-rolls the hash with the state in a register — the checksum
// runs once per entry on the controller's ingest drain, where the
// hash.Hash64 interface indirection and per-Write state loads were a
// measurable share of the whole path — producing bit-identical sums to
// the previous fnv.New64a implementation (stored checksums in existing
// trace stores stay valid).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvString folds s plus the NUL separator into h.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h * fnvPrime64 // the \0 separator: h ^ 0 == h
}

// fnvWord folds v's little-endian bytes into h.
func fnvWord(h, v uint64) uint64 {
	h = (h ^ (v & 0xff)) * fnvPrime64
	h = (h ^ (v >> 8 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 16 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 24 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 32 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 40 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 48 & 0xff)) * fnvPrime64
	h = (h ^ (v >> 56)) * fnvPrime64
	return h
}

// ComputeChecksum digests every field except Checksum itself.
func (e *Entry) ComputeChecksum() uint64 {
	return e.checksumFrom(KeySum(&e.Key))
}

// checksumFrom is ComputeChecksum continued from h, the key's KeySum.
func (e *Entry) checksumFrom(h uint64) uint64 {
	h = fnvWord(h, uint64(e.TimestampSec))
	h = fnvWord(h, math.Float64bits(e.IntervalMinutes))
	h = fnvWord(h, e.WSSPages)
	h = fnvWord(h, e.TotalPages)
	h = fnvWord(h, uint64(len(e.ColdTails)))
	for _, v := range e.ColdTails {
		h = fnvWord(h, v)
	}
	h = fnvWord(h, uint64(len(e.PromoTails)))
	for _, v := range e.PromoTails {
		h = fnvWord(h, v)
	}
	h = fnvWord(h, math.Float64bits(e.CompressibleFrac))
	return h
}

// KeySum is ComputeChecksum's prefix over a job key: the part of every
// entry's checksum its key alone decides. A verifier that sees one key
// many times computes it once and hands it to AppendChecksumsKeyed.
func KeySum(k *JobKey) uint64 {
	return fnvString(fnvString(fnvString(fnvOffset64, k.Cluster), k.Machine), k.Job)
}

// AppendChecksums appends entries[i].ComputeChecksum() for every entry to
// dst and returns the extended slice. It is the batch form every verifier
// uses: one FNV-1a chain is a serial multiply per byte, so four entries
// are hashed in lock step with their states in h0..h3, and the four
// chains overlap in the multiplier. A group of four whose tail lengths
// differ (damaged entries) is hashed one entry at a time.
func AppendChecksums(dst []uint64, entries []Entry) []uint64 {
	return appendChecksums(dst, entries, nil)
}

// AppendChecksumsKeyed is AppendChecksums given keySums[i] ==
// KeySum(&entries[i].Key) for every entry, so no key is hashed here.
func AppendChecksumsKeyed(dst []uint64, entries []Entry, keySums []uint64) []uint64 {
	return appendChecksums(dst, entries, keySums[:len(entries)])
}

// appendChecksums is AppendChecksums, taking each key's prefix from
// keySums when it is not nil.
func appendChecksums(dst []uint64, entries []Entry, keySums []uint64) []uint64 {
	keySum := func(i int) uint64 {
		if keySums != nil {
			return keySums[i]
		}
		return KeySum(&entries[i].Key)
	}
	dst = slices.Grow(dst, len(entries))
	i := 0
	for ; i+4 <= len(entries); i += 4 {
		a, b, c, d := &entries[i], &entries[i+1], &entries[i+2], &entries[i+3]
		h0, h1, h2, h3 := keySum(i), keySum(i+1), keySum(i+2), keySum(i+3)
		nc, np := len(a.ColdTails), len(a.PromoTails)
		if len(b.ColdTails) != nc || len(c.ColdTails) != nc || len(d.ColdTails) != nc ||
			len(b.PromoTails) != np || len(c.PromoTails) != np || len(d.PromoTails) != np {
			dst = append(dst, a.checksumFrom(h0), b.checksumFrom(h1), c.checksumFrom(h2), d.checksumFrom(h3))
			continue
		}
		h0, h1, h2, h3 = fnvWord4(h0, h1, h2, h3,
			uint64(a.TimestampSec), uint64(b.TimestampSec), uint64(c.TimestampSec), uint64(d.TimestampSec))
		h0, h1, h2, h3 = fnvWord4(h0, h1, h2, h3,
			math.Float64bits(a.IntervalMinutes), math.Float64bits(b.IntervalMinutes),
			math.Float64bits(c.IntervalMinutes), math.Float64bits(d.IntervalMinutes))
		h0, h1, h2, h3 = fnvWord4(h0, h1, h2, h3, a.WSSPages, b.WSSPages, c.WSSPages, d.WSSPages)
		h0, h1, h2, h3 = fnvWord4(h0, h1, h2, h3, a.TotalPages, b.TotalPages, c.TotalPages, d.TotalPages)
		n := uint64(nc)
		h0, h1, h2, h3 = fnvWord4(h0, h1, h2, h3, n, n, n, n)
		ta, tb, tc, td := a.ColdTails, b.ColdTails[:nc], c.ColdTails[:nc], d.ColdTails[:nc]
		for j := range ta {
			h0, h1, h2, h3 = fnvWord4(h0, h1, h2, h3, ta[j], tb[j], tc[j], td[j])
		}
		n = uint64(np)
		h0, h1, h2, h3 = fnvWord4(h0, h1, h2, h3, n, n, n, n)
		ta, tb, tc, td = a.PromoTails, b.PromoTails[:np], c.PromoTails[:np], d.PromoTails[:np]
		for j := range ta {
			h0, h1, h2, h3 = fnvWord4(h0, h1, h2, h3, ta[j], tb[j], tc[j], td[j])
		}
		h0, h1, h2, h3 = fnvWord4(h0, h1, h2, h3,
			math.Float64bits(a.CompressibleFrac), math.Float64bits(b.CompressibleFrac),
			math.Float64bits(c.CompressibleFrac), math.Float64bits(d.CompressibleFrac))
		dst = append(dst, h0, h1, h2, h3)
	}
	for ; i < len(entries); i++ {
		dst = append(dst, entries[i].checksumFrom(keySum(i)))
	}
	return dst
}

// fnvWord4 is fnvWord on four independent states.
func fnvWord4(h0, h1, h2, h3, v0, v1, v2, v3 uint64) (uint64, uint64, uint64, uint64) {
	for k := 0; k < 8; k++ {
		h0 = (h0 ^ (v0 & 0xff)) * fnvPrime64
		h1 = (h1 ^ (v1 & 0xff)) * fnvPrime64
		h2 = (h2 ^ (v2 & 0xff)) * fnvPrime64
		h3 = (h3 ^ (v3 & 0xff)) * fnvPrime64
		v0, v1, v2, v3 = v0>>8, v1>>8, v2>>8, v3>>8
	}
	return h0, h1, h2, h3
}

// VerifyChecksum reports corruption: a stored checksum, zero included,
// that does not match the entry's content. It checks one entry; a
// verifier holding a batch compares against AppendChecksums.
func (e *Entry) VerifyChecksum() error {
	if got := e.ComputeChecksum(); got != e.Checksum {
		return e.ChecksumError(got)
	}
	return nil
}

// ChecksumError is VerifyChecksum's error for an entry whose content
// digests to got, for a verifier that computed got with AppendChecksums.
func (e *Entry) ChecksumError(got uint64) error {
	return fmt.Errorf("telemetry: entry %s at t=%ds corrupt: checksum %#x, content digests to %#x",
		e.Key, e.TimestampSec, e.Checksum, got)
}

// Validate checks an entry against the trace's threshold set size.
func (e *Entry) Validate(numThresholds int) error {
	if len(e.ColdTails) != numThresholds || len(e.PromoTails) != numThresholds {
		return fmt.Errorf("telemetry: entry %s has %d/%d tails, want %d",
			e.Key, len(e.ColdTails), len(e.PromoTails), numThresholds)
	}
	// Written so that NaN fails each range check: a NaN or infinite
	// interval would read every promotion rate as 0 or NaN, which no SLO
	// gate flags.
	if !(e.IntervalMinutes > 0) || math.IsInf(e.IntervalMinutes, 1) {
		return fmt.Errorf("telemetry: entry %s has interval %v", e.Key, e.IntervalMinutes)
	}
	if e.TimestampSec < 0 {
		// An interval end in simulated seconds is never negative.
		return fmt.Errorf("telemetry: entry %s has negative timestamp %ds", e.Key, e.TimestampSec)
	}
	for i := 1; i < len(e.ColdTails); i++ {
		if e.ColdTails[i] > e.ColdTails[i-1] || e.PromoTails[i] > e.PromoTails[i-1] {
			return fmt.Errorf("telemetry: entry %s tails not monotone at %d", e.Key, i)
		}
	}
	if !(e.CompressibleFrac >= 0 && e.CompressibleFrac <= 1) {
		return fmt.Errorf("telemetry: entry %s compressible fraction %v outside [0, 1]", e.Key, e.CompressibleFrac)
	}
	return nil
}

// Trace is an ordered collection of entries sharing one threshold set.
type Trace struct {
	// ScanPeriodSeconds is the age quantum underlying the thresholds.
	ScanPeriodSeconds int64
	// Thresholds is the predefined cold-age threshold set, in scan periods.
	Thresholds []int
	Entries    []Entry
}

// NewTrace creates an empty trace with the default threshold set.
func NewTrace() *Trace {
	return &Trace{
		ScanPeriodSeconds: int64(histogram.DefaultScanPeriod / time.Second),
		Thresholds:        append([]int(nil), DefaultThresholds...),
	}
}

// Append adds an entry after validation, stamping its checksum if unset.
func (t *Trace) Append(e Entry) error {
	if err := e.Validate(len(t.Thresholds)); err != nil {
		return err
	}
	if e.Checksum == 0 {
		e.Checksum = e.ComputeChecksum()
	}
	t.Entries = append(t.Entries, e)
	return nil
}

// Scrub removes entries that fail validation or checksum verification,
// returning how many were dropped: a control plane that must keep running
// on a partially corrupted trace scrubs it and replays the gaps-accounted
// remainder (see model.JobResult.GapIntervals).
func (t *Trace) Scrub() int {
	sums := AppendChecksums(nil, t.Entries)
	kept := t.Entries[:0]
	dropped := 0
	for i := range t.Entries {
		e := &t.Entries[i]
		if e.Validate(len(t.Thresholds)) != nil || sums[i] != e.Checksum {
			dropped++
			continue
		}
		kept = append(kept, *e)
	}
	t.Entries = kept
	return dropped
}

// Len returns the number of entries.
func (t *Trace) Len() int { return len(t.Entries) }

// Jobs returns the distinct job keys in JobKey.Compare order.
func (t *Trace) Jobs() []JobKey {
	seen := make(map[JobKey]bool)
	var keys []JobKey
	for _, e := range t.Entries {
		if !seen[e.Key] {
			seen[e.Key] = true
			keys = append(keys, e.Key)
		}
	}
	slices.SortFunc(keys, JobKey.Compare)
	return keys
}

// WriteDemographics prints each job's time-since-last-access table in
// JobKey.Compare order, shaped like memtierd's `policy -dump accessed`: a
// header with the pages and WSS of the job's latest entry, then one row per
// idle-age bucket in seconds, [0, T_0) and each [T_i, T_i+1) (the last one
// open, printed as < 0). A row gives the bucket's pages (a ColdTails
// difference), their share of the job, and the rate a threshold of T_i
// would have promoted over the whole trace: ΣPromoTails[i] ÷
// ΣIntervalMinutes over the job's entries, as % of WSS per minute.
func (t *Trace) WriteDemographics(w io.Writer) error {
	type job struct {
		latest  *Entry
		promos  []uint64
		minutes float64
	}
	jobs := make(map[JobKey]*job)
	for i := range t.Entries {
		e := &t.Entries[i]
		j := jobs[e.Key]
		if j == nil {
			j = &job{latest: e, promos: make([]uint64, len(t.Thresholds))}
			jobs[e.Key] = j
		}
		if e.TimestampSec >= j.latest.TimestampSec {
			j.latest = e
		}
		for k, p := range e.PromoTails {
			j.promos[k] += p
		}
		j.minutes += e.IntervalMinutes
	}

	var b strings.Builder
	for n, key := range t.Jobs() {
		j, e := jobs[key], jobs[key].latest
		if n > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "job %s: %d pages, wss %d pages\n%13s %12s %8s %7s %18s\n", key, e.TotalPages, e.WSSPages,
			"lastaccs>=[s]", "lastaccs<[s]", "pages", "job[%]", "promote[%WSS/min]")
		for i := 0; i <= len(t.Thresholds); i++ {
			var from, to int64
			pages, rate := e.TotalPages, "-"
			if i > 0 {
				from, pages = int64(t.Thresholds[i-1])*t.ScanPeriodSeconds, e.ColdTails[i-1]
				rate = fmt.Sprintf("%.4f", float64(j.promos[i-1])/j.minutes/float64(e.WSSPages)*100)
			}
			if i < len(t.Thresholds) {
				to, pages = int64(t.Thresholds[i])*t.ScanPeriodSeconds, pages-e.ColdTails[i]
			}
			fmt.Fprintf(&b, "%13d %12d %8d %7.2f %18s\n", from, to, pages, float64(pages)/float64(e.TotalPages)*100, rate)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ThresholdIndexFor returns the index of the smallest predefined threshold
// >= bucket, or the last index if bucket exceeds them all.
func (t *Trace) ThresholdIndexFor(bucket int) int {
	for i, th := range t.Thresholds {
		if th >= bucket {
			return i
		}
	}
	return len(t.Thresholds) - 1
}

// EntrySink receives finished interval entries. *Trace is the in-memory
// sink; tracestore.Writer is the streaming on-disk one, which lets a
// collector export a fleet run to a file as intervals close without the
// trace ever being fully materialized.
type EntrySink interface {
	Append(e Entry) error
}

// Collector turns the node agent's per-interval histograms into entries
// and appends each to its sink. It keeps no per-job state: the agent
// computes each interval's promotions itself. Record is safe for
// concurrent use — one collector can serve every job goroutine on a
// machine — but the sink sees appends serialized under the collector's
// mutex, not concurrently, and in the order the recorders happened to
// run. Producers that run concurrently and still want one append order
// each take a Stage and Hold it.
type Collector struct {
	mu     sync.Mutex
	sink   EntrySink
	held   bool    // between Hold and its flush
	staged []Entry // closed intervals waiting for the flush
}

// NewCollector creates a collector exporting to sink: a *Trace in memory,
// or a streaming sink such as tracestore.Writer, with no full-trace
// buffering. Every entry carries tails at DefaultThresholds.
func NewCollector(sink EntrySink) *Collector {
	return &Collector{sink: sink}
}

// Stage returns a collector for one producer (one machine) of c's: its
// closed intervals are appended to c's sink under c's mutex. A stage
// passes entries on as they close; while held (Hold) it keeps them, so a
// caller running several producers at once can flush the stages one after
// another and give the sink an order that does not depend on how the
// producers were scheduled.
func (c *Collector) Stage() *Collector {
	return &Collector{sink: stageSink{c}}
}

// stageSink is a stage's sink: its parent, entered under the parent's
// mutex (and into the parent's own buffer while the parent is held).
type stageSink struct{ parent *Collector }

func (s stageSink) Append(e Entry) error {
	s.parent.mu.Lock()
	defer s.parent.mu.Unlock()
	return s.parent.emit(e)
}

// emit sends a closed interval on: to the buffer while held, else to the
// sink. The caller holds c.mu.
func (c *Collector) emit(e Entry) error {
	if c.held {
		c.staged = append(c.staged, e)
		return nil
	}
	return c.sink.Append(e)
}

// Hold makes c keep the intervals it closes instead of appending them,
// until the returned flush appends them to the sink in the order they
// closed and returns c to passing entries on. A sink error ends the flush
// and is returned; the entries behind it are dropped, as they would not
// have been recorded had the sink failed as they closed. Calling flush
// again appends nothing.
func (c *Collector) Hold() (flush func() error) {
	c.mu.Lock()
	c.held = true
	c.mu.Unlock()
	return c.flush
}

func (c *Collector) flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.held = false
	staged := c.staged
	c.staged = staged[:0]
	defer clear(staged) // the buffer is reused; do not pin the tails
	for i := range staged {
		if err := c.sink.Append(staged[i]); err != nil {
			return err
		}
	}
	return nil
}

// Record exports one job interval. promo is the histogram of the
// interval's promotions, census the job's current cold-age census.
func (c *Collector) Record(key JobKey, now time.Duration, intervalMinutes float64,
	promo, census *histogram.Histogram, wssPages uint64) error {

	e := Entry{
		Key:             key,
		TimestampSec:    int64(now / time.Second),
		IntervalMinutes: intervalMinutes,
		WSSPages:        wssPages,
		TotalPages:      census.Total(),
		ColdTails:       TailsAt(census, DefaultThresholds),
		PromoTails:      TailsAt(promo, DefaultThresholds),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.emit(e)
}
