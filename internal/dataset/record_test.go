package dataset

import "testing"

func TestAppendValidation(t *testing.T) {
	d := NewDataset(memoSchema(t))
	if err := d.Append(Record{0, 1}); err == nil {
		t.Error("short record accepted")
	}
	if err := d.Append(Record{0, 1, 5}); err == nil {
		t.Error("out-of-range value accepted")
	}
	if err := d.Append(Record{-1, 0, 0}); err == nil {
		t.Error("negative value accepted")
	}
	if err := d.Append(Record{2, 1, 0}); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	if d.Len() != 1 {
		t.Errorf("Len = %d", d.Len())
	}
}

func TestAppendCopies(t *testing.T) {
	d := NewDataset(memoSchema(t))
	r := Record{0, 0, 0}
	if err := d.Append(r); err != nil {
		t.Fatal(err)
	}
	r[0] = 2
	if d.Record(0)[0] != 0 {
		t.Error("Append retained caller's slice")
	}
}

func TestAppendLabeled(t *testing.T) {
	d := NewDataset(memoSchema(t))
	if err := d.AppendLabeled([]string{"Smoker", "No", "Yes"}); err != nil {
		t.Fatal(err)
	}
	got := d.Record(0)
	if got[0] != 0 || got[1] != 1 || got[2] != 0 {
		t.Errorf("coded record = %v", got)
	}
	labels := d.Labels(0)
	if labels[0] != "Smoker" || labels[1] != "No" || labels[2] != "Yes" {
		t.Errorf("decoded labels = %v", labels)
	}
	if err := d.AppendLabeled([]string{"Smoker", "No"}); err == nil {
		t.Error("short label row accepted")
	}
	if err := d.AppendLabeled([]string{"Vaper", "No", "Yes"}); err == nil {
		t.Error("unknown label without 'other' accepted")
	}
}

func TestAppendLabeledOtherFallback(t *testing.T) {
	s, err := memoSchema(t).WithOther("SMOKING")
	if err != nil {
		t.Fatal(err)
	}
	d := NewDataset(s)
	if err := d.AppendLabeled([]string{"Vaper", "No", "Yes"}); err != nil {
		t.Fatalf("fallback to other failed: %v", err)
	}
	a := s.Attr(0)
	if d.Record(0)[0] != a.ValueIndex(OtherValue) {
		t.Errorf("unknown label coded to %d, want the 'other' index %d",
			d.Record(0)[0], a.ValueIndex(OtherValue))
	}
}

func TestTabulateMatchesManualCount(t *testing.T) {
	d := NewDataset(memoSchema(t))
	rows := []Record{
		{0, 0, 0}, {0, 0, 0}, {0, 1, 0},
		{1, 0, 1}, {2, 1, 1}, {2, 1, 1}, {2, 1, 1},
	}
	for _, r := range rows {
		if err := d.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := d.Tabulate()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Total() != int64(len(rows)) {
		t.Errorf("total = %d, want %d", tab.Total(), len(rows))
	}
	if got := tab.MustAt(0, 0, 0); got != 2 {
		t.Errorf("cell(0,0,0) = %d, want 2", got)
	}
	if got := tab.MustAt(2, 1, 1); got != 3 {
		t.Errorf("cell(2,1,1) = %d, want 3", got)
	}
	if got := tab.MustAt(1, 1, 0); got != 0 {
		t.Errorf("cell(1,1,0) = %d, want 0", got)
	}
}

func TestCountsPerAttribute(t *testing.T) {
	d := NewDataset(memoSchema(t))
	d.Append(Record{0, 0, 0})
	d.Append(Record{0, 1, 1})
	d.Append(Record{1, 1, 1})
	counts := d.Counts()
	if counts[0][0] != 2 || counts[0][1] != 1 || counts[0][2] != 0 {
		t.Errorf("attr 0 counts = %v", counts[0])
	}
	if counts[1][1] != 2 {
		t.Errorf("attr 1 counts = %v", counts[1])
	}
}
