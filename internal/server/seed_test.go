package server

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"

	topk "topkdedup"
)

func TestSeedPublishesImmediately(t *testing.T) {
	srv, err := New(Config{Schema: []string{"name"}, Levels: toyLevels(), Scorer: toyScorer()})
	if err != nil {
		t.Fatal(err)
	}
	d := topk.NewDataset("seed", "name")
	d.Append(2, "E1", "alpha")
	d.Append(1, "E1", "alpha")
	d.Append(1, "E2", "beta")
	n, err := srv.Seed(d)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || srv.Records() != 3 {
		t.Fatalf("seeded %d, server has %d records, want 3", n, srv.Records())
	}
	seq, visible, _ := srv.SnapshotInfo()
	if seq == 0 || visible != 3 {
		t.Fatalf("snapshot seq=%d visible=%d, want published epoch with 3 records", seq, visible)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, body := get(t, ts, "/topk?k=2")
	var out TopKResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Records != 3 || len(out.Result.Answers) == 0 {
		t.Fatalf("seeded records not queryable: %s", body)
	}
	if w := out.Result.Answers[0].Groups[0].Weight; w != 3 {
		t.Fatalf("top group weight %g, want 3 (seed weights preserved)", w)
	}
}

func TestSeedSchemaMismatch(t *testing.T) {
	srv, err := New(Config{Schema: []string{"name"}, Levels: toyLevels()})
	if err != nil {
		t.Fatal(err)
	}
	d := topk.NewDataset("seed", "name", "addr")
	if _, err := srv.Seed(d); err == nil {
		t.Fatal("schema mismatch accepted")
	}
}

// TestSeedRejectsBadWeights: a NaN, infinite or negative weight is
// refused before anything is logged or applied — the WAL gains nothing (a
// restart recovers only the good seed), and the server keeps answering /topk. At
// the parent the NaN row was applied and logged, and every later /topk
// was a 500 "encoding failure", before and after a restart.
func TestSeedRejectsBadWeights(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Schema: []string{"name"}, Levels: toyLevels(), Scorer: toyScorer(), WALDir: dir}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	good := topk.NewDataset("seed", "name")
	good.Append(2, "E1", "alpha")
	if _, err := srv.Seed(good); err != nil {
		t.Fatal(err)
	}
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -5} {
		d := topk.NewDataset("seed", "name")
		d.Append(2, "E1", "alpha")
		d.Append(w, "E2", "beta")
		if n, err := srv.Seed(d); err == nil || n != 0 || !strings.Contains(err.Error(), "record 1") {
			t.Fatalf("weight %v: Seed = %d, %v; want 0 and an error naming record 1", w, n, err)
		}
		if srv.Records() != 1 {
			t.Fatalf("weight %v: rejected seed applied %d records", w, srv.Records()-1)
		}
		if resp, body := get(t, ts, "/topk?k=2"); resp.StatusCode != 200 {
			t.Fatalf("weight %v: /topk after rejected seed: %d %s", w, resp.StatusCode, body)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	reborn, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer reborn.Close()
	if reborn.Recovered() != 1 {
		t.Fatalf("rejected seeds left %d records in the WAL", reborn.Recovered()-1)
	}
}
