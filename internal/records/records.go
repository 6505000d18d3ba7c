// Package records defines the record and dataset model shared by every
// other package: a record is a bag of named string fields with an
// aggregation weight (the "count" being summed by TopK count queries) and
// an optional ground-truth entity label used for evaluation and for
// training the pairwise classifier.
package records

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Record is one noisy mention of an entity.
type Record struct {
	// ID is the record's index within its dataset; stable and unique.
	ID int
	// Fields maps field name to raw string value.
	Fields map[string]string
	// Weight is the record's contribution to its group's aggregate count
	// or score. Plain count queries use weight 1.
	Weight float64
	// Truth is the ground-truth entity label when known ("" otherwise).
	// It is used only for evaluation and classifier training, never by
	// the query algorithms themselves.
	Truth string
}

// Field returns the named field value ("" when absent).
func (r *Record) Field(name string) string { return r.Fields[name] }

// Dataset is an ordered collection of records with a field schema.
type Dataset struct {
	Name   string
	Schema []string
	Recs   []*Record
}

// New creates an empty dataset with the given schema.
func New(name string, schema ...string) *Dataset {
	return &Dataset{Name: name, Schema: schema}
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Recs) }

// Append adds a record built from values aligned with the schema, with the
// given weight and truth label, and returns it.
func (d *Dataset) Append(weight float64, truth string, values ...string) *Record {
	if len(values) != len(d.Schema) {
		panic(fmt.Sprintf("records: %d values for schema of %d fields", len(values), len(d.Schema)))
	}
	fields := make(map[string]string, len(values))
	for i, v := range values {
		fields[d.Schema[i]] = v
	}
	r := &Record{ID: len(d.Recs), Fields: fields, Weight: weight, Truth: truth}
	d.Recs = append(d.Recs, r)
	return r
}

// TotalWeight returns the sum of record weights.
func (d *Dataset) TotalWeight() float64 {
	var t float64
	for _, r := range d.Recs {
		t += r.Weight
	}
	return t
}

// TruthGroups returns record IDs grouped by ground-truth label. Records
// with no label are skipped.
func (d *Dataset) TruthGroups() map[string][]int {
	groups := make(map[string][]int)
	for _, r := range d.Recs {
		if r.Truth != "" {
			groups[r.Truth] = append(groups[r.Truth], r.ID)
		}
	}
	return groups
}

// Subset returns a new dataset containing copies of the records with the
// given IDs, re-numbered from 0. The subset shares field strings with the
// parent (strings are immutable) but not record structs.
func (d *Dataset) Subset(ids []int) *Dataset {
	sub := New(d.Name+"-subset", d.Schema...)
	for _, id := range ids {
		src := d.Recs[id]
		fields := make(map[string]string, len(src.Fields))
		for k, v := range src.Fields {
			fields[k] = v
		}
		sub.Recs = append(sub.Recs, &Record{
			ID:     len(sub.Recs),
			Fields: fields,
			Weight: src.Weight,
			Truth:  src.Truth,
		})
	}
	return sub
}

// WriteTSV writes the dataset as a tab-separated file with a header line
// "#weight<TAB>truth<TAB>field1<TAB>...". Tabs and newlines inside values
// are replaced by spaces.
func (d *Dataset) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	header := append([]string{"#weight", "truth"}, d.Schema...)
	if _, err := bw.WriteString(strings.Join(header, "\t") + "\n"); err != nil {
		return err
	}
	clean := strings.NewReplacer("\t", " ", "\n", " ", "\r", " ")
	for _, r := range d.Recs {
		row := make([]string, 0, len(d.Schema)+2)
		row = append(row, strconv.FormatFloat(r.Weight, 'g', -1, 64), clean.Replace(r.Truth))
		for _, f := range d.Schema {
			row = append(row, clean.Replace(r.Fields[f]))
		}
		if _, err := bw.WriteString(strings.Join(row, "\t") + "\n"); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTSV parses a dataset written by WriteTSV.
func ReadTSV(name string, r io.Reader) (*Dataset, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("records: empty input")
	}
	header := strings.Split(sc.Text(), "\t")
	if len(header) < 2 || header[0] != "#weight" || header[1] != "truth" {
		return nil, fmt.Errorf("records: bad header %q", sc.Text())
	}
	d := New(name, header[2:]...)
	lineNo := 1
	for sc.Scan() {
		lineNo++
		parts := strings.Split(sc.Text(), "\t")
		if len(parts) != len(header) {
			return nil, fmt.Errorf("records: line %d has %d columns, want %d", lineNo, len(parts), len(header))
		}
		w, err := parseWeight(parts[0])
		if err != nil {
			return nil, fmt.Errorf("records: line %d weight: %v", lineNo, err)
		}
		d.Append(w, parts[1], parts[2:]...)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return d, nil
}

// CheckWeight is the one validity rule for a record weight at every way
// into the system (the file readers here, the server's /ingest and
// Seed): finite and not negative. A NaN or infinite weight poisons every
// group sum it reaches and cannot be encoded as JSON; a negative one
// silently shrinks its group.
func CheckWeight(w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
		return fmt.Errorf("weight %v is not a finite, non-negative number", w)
	}
	return nil
}

// parseWeight parses and checks the weight column of a file row.
func parseWeight(s string) (float64, error) {
	w, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	return w, CheckWeight(w)
}

// LoadTSV reads a dataset from the named file.
func LoadTSV(name, path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTSV(name, f)
}

// SaveTSV writes the dataset to the named file.
func (d *Dataset) SaveTSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteTSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
