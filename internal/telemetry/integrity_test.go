package telemetry

import "testing"

func intactEntry(tr *Trace, ts int64) Entry {
	n := len(tr.Thresholds)
	e := Entry{
		Key:             JobKey{Cluster: "c", Machine: "m", Job: "j"},
		TimestampSec:    ts,
		IntervalMinutes: 5,
		WSSPages:        10,
		TotalPages:      100,
		ColdTails:       make([]uint64, n),
		PromoTails:      make([]uint64, n),
	}
	for i := 0; i < n; i++ {
		e.ColdTails[i] = uint64(50 - i)
		e.PromoTails[i] = uint64(25 - i)
	}
	return e
}

func TestAppendStampsChecksum(t *testing.T) {
	tr := NewTrace()
	if err := tr.Append(intactEntry(tr, 300)); err != nil {
		t.Fatal(err)
	}
	e := tr.Entries[0]
	if e.Checksum == 0 {
		t.Fatal("append left checksum unset")
	}
	if err := e.VerifyChecksum(); err != nil {
		t.Fatal(err)
	}
	e.WSSPages++
	if err := e.VerifyChecksum(); err == nil {
		t.Error("mutated entry still verifies")
	}
}

func TestScrubDropsUnverifiedEntries(t *testing.T) {
	tr := NewTrace()
	for i := int64(1); i <= 4; i++ {
		if err := tr.Append(intactEntry(tr, i*300)); err != nil {
			t.Fatal(err)
		}
	}
	tr.Entries[1].TotalPages++    // stale checksum: must go
	tr.Entries[2].Checksum = 0    // unstamped: must go
	tr.Entries[3].ColdTails = nil // structurally invalid: must go
	if dropped := tr.Scrub(); dropped != 3 {
		t.Fatalf("scrub dropped %d, want 3", dropped)
	}
	if tr.Len() != 1 || tr.Entries[0].TimestampSec != 300 {
		t.Fatalf("scrub left %d entries, want only the intact one", tr.Len())
	}
}
