package pka_test

import (
	"testing"

	"pka"
	"pka/internal/paperdata"
)

// TestDiscoverNegativeWorkers: Options.Workers < 0 means GOMAXPROCS,
// flowing through the scan and the screen without error.
func TestDiscoverNegativeWorkers(t *testing.T) {
	m, err := pka.Discover(paperdata.Records(), pka.Options{Workers: -1})
	if err != nil {
		t.Fatalf("Workers=-1 discovery failed: %v", err)
	}
	ref, err := pka.Discover(paperdata.Records(), pka.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	p1, err1 := m.Conditional(
		[]pka.Assignment{{Attr: "CANCER", Value: "Yes"}},
		[]pka.Assignment{{Attr: "SMOKING", Value: "Smoker"}})
	p2, err2 := ref.Conditional(
		[]pka.Assignment{{Attr: "CANCER", Value: "Yes"}},
		[]pka.Assignment{{Attr: "SMOKING", Value: "Smoker"}})
	if err1 != nil || err2 != nil || p1 != p2 {
		t.Fatalf("Workers=-1 diverged: %x vs %x (%v, %v)", p1, p2, err1, err2)
	}
}
