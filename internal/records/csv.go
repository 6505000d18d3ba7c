package records

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
)

// CSV support mirrors the TSV format with a standard RFC-4180 encoder:
// header "weight,truth,field1,..." followed by one row per record.

// WriteCSV writes the dataset as CSV with a "weight,truth,fields..." header.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"weight", "truth"}, d.Schema...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, 0, len(d.Schema)+2)
	for _, r := range d.Recs {
		row = row[:0]
		row = append(row, strconv.FormatFloat(r.Weight, 'g', -1, 64), r.Truth)
		for _, f := range d.Schema {
			row = append(row, r.Fields[f])
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV, or any CSV whose first two
// columns are weight and truth. A file missing those columns can be
// adapted with ReadRawCSV instead.
func ReadCSV(name string, r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validated manually for better messages
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("records: reading CSV header: %w", err)
	}
	if len(header) < 2 || header[0] != "weight" || header[1] != "truth" {
		return nil, fmt.Errorf("records: CSV header must start with weight,truth; got %v (use ReadRawCSV for plain files)", header)
	}
	d := New(name, header[2:]...)
	line := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		line++
		if len(row) != len(header) {
			return nil, fmt.Errorf("records: CSV line %d has %d columns, want %d", line, len(row), len(header))
		}
		w, err := parseWeight(row[0])
		if err != nil {
			return nil, fmt.Errorf("records: CSV line %d weight: %v", line, err)
		}
		d.Append(w, row[1], row[2:]...)
	}
	return d, nil
}

// ReadRawCSV parses an arbitrary CSV with a header row into a dataset:
// every column becomes a field, every record gets weight 1 and no truth
// label. weightColumn, when non-empty, names a numeric column to use as
// the record weight (the column still remains a field).
func ReadRawCSV(name string, r io.Reader, weightColumn string) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("records: reading CSV header: %w", err)
	}
	wIdx := -1
	if weightColumn != "" {
		for i, h := range header {
			if h == weightColumn {
				wIdx = i
			}
		}
		if wIdx < 0 {
			return nil, fmt.Errorf("records: weight column %q not in header %v", weightColumn, header)
		}
	}
	d := New(name, header...)
	line := 1
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		line++
		if len(row) != len(header) {
			return nil, fmt.Errorf("records: CSV line %d has %d columns, want %d", line, len(row), len(header))
		}
		w := 1.0
		if wIdx >= 0 {
			w, err = parseWeight(row[wIdx])
			if err != nil {
				return nil, fmt.Errorf("records: CSV line %d weight column: %v", line, err)
			}
		}
		d.Append(w, "", row...)
	}
	return d, nil
}

// LoadCSV reads a weight,truth-headed CSV dataset from a file.
func LoadCSV(name, path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(name, f)
}

// SaveCSV writes the dataset to the named file as CSV.
func (d *Dataset) SaveCSV(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
