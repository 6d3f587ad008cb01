package telemetry

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestWriteDemographics: on a hand-built two-job trace, each block's header
// comes from the job's latest entry (by timestamp, not position), its rows
// are the ColdTails differences and sum to the job's pages, and its rates
// are ΣPromoTails ÷ ΣIntervalMinutes ÷ WSS over all the job's entries.
func TestWriteDemographics(t *testing.T) {
	a := JobKey{Cluster: "c", Machine: "m1", Job: "a"}
	b := JobKey{Cluster: "c", Machine: "m0", Job: "b"}
	tr := &Trace{ScanPeriodSeconds: 120, Thresholds: []int{1, 5, 30}}
	for _, e := range []Entry{
		{Key: a, TimestampSec: 300, IntervalMinutes: 5, WSSPages: 40, TotalPages: 100,
			ColdTails: []uint64{60, 30, 10}, PromoTails: []uint64{8, 4, 1}},
		{Key: b, TimestampSec: 600, IntervalMinutes: 5, WSSPages: 20, TotalPages: 80,
			ColdTails: []uint64{40, 20, 0}, PromoTails: []uint64{4, 2, 0}},
		{Key: a, TimestampSec: 600, IntervalMinutes: 5, WSSPages: 50, TotalPages: 120,
			ColdTails: []uint64{70, 40, 20}, PromoTails: []uint64{12, 6, 2}},
		// b's earlier interval, delivered late: b's latest is still t=600.
		{Key: b, TimestampSec: 300, IntervalMinutes: 5, WSSPages: 10, TotalPages: 50,
			ColdTails: []uint64{30, 10, 5}, PromoTails: []uint64{6, 0, 0}},
		{Key: a, TimestampSec: 900, IntervalMinutes: 10, WSSPages: 60, TotalPages: 150,
			ColdTails: []uint64{90, 45, 15}, PromoTails: []uint64{10, 5, 0}},
	} {
		if err := tr.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteDemographics(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	const want = `job c/m0/b: 80 pages, wss 20 pages
lastaccs>=[s] lastaccs<[s]    pages  job[%]  promote[%WSS/min]
            0          120       40   50.00                  -
          120          600       20   25.00             5.0000
          600         3600       20   25.00             1.0000
         3600            0        0    0.00             0.0000

job c/m1/a: 150 pages, wss 60 pages
lastaccs>=[s] lastaccs<[s]    pages  job[%]  promote[%WSS/min]
            0          120       60   40.00                  -
          120          600       45   30.00             2.5000
          600         3600       30   20.00             1.2500
         3600            0       15   10.00             0.2500
`
	if got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}

	// The same facts, derived from the entries rather than pinned.
	blocks := strings.Split(got, "\n\n")
	for n, key := range []JobKey{b, a} {
		var latest Entry
		var promos [3]uint64
		var minutes float64
		for _, e := range tr.Entries {
			if e.Key != key {
				continue
			}
			if e.TimestampSec > latest.TimestampSec {
				latest = e
			}
			for i, p := range e.PromoTails {
				promos[i] += p
			}
			minutes += e.IntervalMinutes
		}
		lines := strings.Split(strings.TrimSuffix(blocks[n], "\n"), "\n")
		if head := fmt.Sprintf("job %s: %d pages, wss %d pages", key, latest.TotalPages, latest.WSSPages); lines[0] != head {
			t.Errorf("header %q, want %q", lines[0], head)
		}
		var sum uint64
		for i, line := range lines[2:] {
			f := strings.Fields(line)
			pages, err := strconv.ParseUint(f[2], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			sum += pages
			want := latest.TotalPages - latest.ColdTails[0]
			if i > 0 {
				want = latest.ColdTails[i-1]
				if i < len(tr.Thresholds) {
					want -= latest.ColdTails[i]
				}
				rate := fmt.Sprintf("%.4f", float64(promos[i-1])/minutes/float64(latest.WSSPages)*100)
				if f[4] != rate {
					t.Errorf("%s row %d rate %s, want %s", key, i, f[4], rate)
				}
			}
			if pages != want {
				t.Errorf("%s row %d holds %d pages, want %d", key, i, pages, want)
			}
		}
		if sum != latest.TotalPages {
			t.Errorf("%s rows sum to %d pages, want %d", key, sum, latest.TotalPages)
		}
	}
}
