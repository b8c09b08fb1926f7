package pka

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"pka/internal/core"
	"pka/internal/mml"
	"pka/internal/snapshot"
)

// TestSnapshotOptionsSection: a model discovered with non-default screen
// options and the default prior writes its discovery options into the
// snapshot as set — the prior as 0, the engine's "use the default" — and
// a restored model refits with exactly those options.
func TestSnapshotOptionsSection(t *testing.T) {
	schema := streamSchema(t)
	tab := sparseOf(t, schema, streamRows(rand.New(rand.NewSource(11)), 3000))
	m, err := DiscoverSparse(tab, schema, Options{
		MaxOrder:           3,
		MaxConstraints:     9,
		RecordScans:        true,
		IncludeForcedCells: true,
		Workers:            2,
		ScreenPairs:        true,
		ScreenAlpha:        0.01,
		ScreenCI:           true,
		ScreenCIAlpha:      0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := core.Options{
		MaxOrder:       3,
		MML:            mml.Config{PriorH2: 0, IncludeForced: true},
		MaxConstraints: 9,
		RecordScans:    true,
		Workers:        2,
		ScreenPairs:    true,
		ScreenAlpha:    0.01,
		ScreenCI:       true,
		ScreenCIAlpha:  0.2,
	}

	var buf bytes.Buffer
	if err := m.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	s, err := snapshot.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s.Options == nil {
		t.Fatal("snapshot carries no options section")
	}
	if !reflect.DeepEqual(*s.Options, want) {
		t.Fatalf("options section read back %+v, want %+v", *s.Options, want)
	}

	restored, err := LoadModelSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.opts, want) {
		t.Fatalf("restored model options %+v, want %+v", restored.opts, want)
	}
}
