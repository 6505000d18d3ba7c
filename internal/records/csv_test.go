package records

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	d := sample()
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("reloaded", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Fatalf("round trip len %d != %d", got.Len(), d.Len())
	}
	for i := range d.Recs {
		a, b := d.Recs[i], got.Recs[i]
		if a.Weight != b.Weight || a.Truth != b.Truth {
			t.Errorf("record %d meta mismatch", i)
		}
		for _, f := range d.Schema {
			if a.Field(f) != b.Field(f) {
				t.Errorf("record %d field %s mismatch", i, f)
			}
		}
	}
}

func TestCSVPreservesCommasAndQuotes(t *testing.T) {
	d := New("t", "name")
	d.Append(1, "E,1", `say "hi", world`)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("t", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Recs[0].Field("name") != `say "hi", world` || got.Recs[0].Truth != "E,1" {
		t.Errorf("CSV quoting broken: %+v", got.Recs[0])
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"",
		"bad,header\nrow1,row2",
		"weight,truth,name\nnotanum,E,alice",
		"weight,truth,name\n1,E",
	}
	for _, c := range cases {
		if _, err := ReadCSV("x", strings.NewReader(c)); err == nil {
			t.Errorf("input %q should error", c)
		}
	}
}

func TestReadRawCSV(t *testing.T) {
	in := "name,city,amount\nalice,pune,3.5\nbob,delhi,2\n"
	d, err := ReadRawCSV("raw", strings.NewReader(in), "")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Recs[0].Weight != 1 || d.Recs[0].Truth != "" {
		t.Fatalf("raw read wrong: %+v", d.Recs[0])
	}
	if d.Recs[1].Field("city") != "delhi" {
		t.Error("field mapping wrong")
	}
	// With a weight column.
	d2, err := ReadRawCSV("raw", strings.NewReader(in), "amount")
	if err != nil {
		t.Fatal(err)
	}
	if d2.Recs[0].Weight != 3.5 || d2.Recs[1].Weight != 2 {
		t.Errorf("weight column not applied: %v %v", d2.Recs[0].Weight, d2.Recs[1].Weight)
	}
	if d2.Recs[0].Field("amount") != "3.5" {
		t.Error("weight column should remain a field")
	}
	// Missing weight column errors.
	if _, err := ReadRawCSV("raw", strings.NewReader(in), "nope"); err == nil {
		t.Error("missing weight column should error")
	}
	// Bad weight value errors.
	bad := "name,amount\nalice,xx\n"
	if _, err := ReadRawCSV("raw", strings.NewReader(bad), "amount"); err == nil {
		t.Error("non-numeric weight should error")
	}
}

func TestSaveAndLoadCSV(t *testing.T) {
	d := sample()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := d.SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV("reloaded", path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != d.Len() {
		t.Errorf("loaded %d records, want %d", got.Len(), d.Len())
	}
	if _, err := LoadCSV("x", filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Error("missing file should error")
	}
}

// TestReadersRejectBadWeights: a NaN, infinite or negative weight parses
// as a float but is not a weight; each reader refuses it and names the
// line, and the same row with a good weight loads.
func TestReadersRejectBadWeights(t *testing.T) {
	readers := map[string]func(w string) error{
		"ReadTSV": func(w string) error {
			_, err := ReadTSV("t", strings.NewReader("#weight\ttruth\tname\n1\tE1\tann\n"+w+"\tE2\tbob\n"))
			return err
		},
		"ReadCSV": func(w string) error {
			_, err := ReadCSV("t", strings.NewReader("weight,truth,name\n1,E1,ann\n"+w+",E2,bob\n"))
			return err
		},
		"ReadRawCSV": func(w string) error {
			_, err := ReadRawCSV("t", strings.NewReader("name,n\nann,1\nbob,"+w+"\n"), "n")
			return err
		},
	}
	for name, read := range readers {
		for _, w := range []string{"NaN", "+Inf", "-Inf", "Infinity", "-5", "-0.001"} {
			err := read(w)
			if err == nil || !strings.Contains(err.Error(), "line 3") {
				t.Errorf("%s weight %s: err = %v, want one naming line 3", name, w, err)
			}
		}
		for _, w := range []string{"0", "2.5", "1e300"} {
			if err := read(w); err != nil {
				t.Errorf("%s weight %s: %v", name, w, err)
			}
		}
	}
}
