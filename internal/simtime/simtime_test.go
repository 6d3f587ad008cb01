package simtime

import "testing"

func TestRandDeterministic(t *testing.T) {
	a := Rand(42, "workload")
	b := Rand(42, "workload")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("streams with identical seed+label diverged at draw %d", i)
		}
	}
}

func TestRandIndependentStreams(t *testing.T) {
	a := Rand(42, "workload")
	b := Rand(42, "scanner")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different labels matched %d/100 draws; want ~0", same)
	}
}

func TestRandSeedMatters(t *testing.T) {
	a := Rand(1, "x")
	b := Rand(2, "x")
	if a.Int63() == b.Int63() && a.Int63() == b.Int63() {
		t.Error("different seeds produced identical streams")
	}
}
