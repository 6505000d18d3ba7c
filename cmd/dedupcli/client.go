package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	topk "topkdedup"
	"topkdedup/internal/server"
)

// clientBatch is the ingest batch size used when streaming a file to a
// topkd daemon.
const clientBatch = 500

// runClient is dedupcli's -server mode: load the input file, stream it
// to a running topkd over POST /ingest, force a snapshot, and run the
// requested query over HTTP. Output mirrors the local mode as closely
// as the wire format allows: the daemon returns record IDs within its
// own (server-side) dataset, so representative names are resolved from
// the just-ingested records when the server started empty, and by ID
// offset otherwise. A non-empty mode selects the count query's serving
// tier (exact, approx, or hybrid); approximate answers render with
// their [lower, count] error intervals.
func runClient(base, path, field string, k, r int, rank bool, threshold float64, mode string) error {
	base = strings.TrimRight(base, "/")
	if _, err := url.Parse(base); err != nil {
		return fmt.Errorf("bad server URL %q: %w", base, err)
	}
	var (
		d   *topk.Dataset
		err error
	)
	if strings.HasSuffix(path, ".csv") {
		d, err = topk.LoadDatasetCSV("input", path)
	} else {
		d, err = topk.LoadDataset("input", path)
	}
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 60 * time.Second}

	// The daemon may already hold records: our batch occupies IDs
	// [before, before+len) in its dataset.
	var health server.HealthResponse
	if err := clientGet(client, base+"/healthz", &health); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	fmt.Fprintf(os.Stderr, "dedupcli: daemon %s (%s) up %.0fs, epoch %d, status %s\n",
		health.Version, health.GoVersion, health.UptimeSeconds, health.SnapshotSeq, health.Status)
	before := health.Records

	for at := 0; at < d.Len(); at += clientBatch {
		end := at + clientBatch
		if end > d.Len() {
			end = d.Len()
		}
		recs := make([]server.IngestRecord, 0, end-at)
		for _, rec := range d.Recs[at:end] {
			values := make([]string, len(d.Schema))
			for i, f := range d.Schema {
				values[i] = rec.Fields[f]
			}
			recs = append(recs, server.IngestRecord{Weight: rec.Weight, Truth: rec.Truth, Values: values})
		}
		data, err := json.Marshal(server.IngestRequest{Records: recs})
		if err != nil {
			return err
		}
		for {
			resp, err := client.Post(base+"/ingest", "application/json", bytes.NewReader(data))
			if err != nil {
				return fmt.Errorf("ingest: %w", err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusTooManyRequests {
				time.Sleep(200 * time.Millisecond)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("ingest: status %d: %s", resp.StatusCode, body)
			}
			break
		}
	}
	resp, err := client.Post(base+"/refresh", "application/json", nil)
	if err != nil {
		return fmt.Errorf("refresh: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("refresh: status %d", resp.StatusCode)
	}

	name := func(id int) string {
		if id >= before && id-before < d.Len() {
			return d.Recs[id-before].Field(field)
		}
		return fmt.Sprintf("record #%d", id)
	}

	switch {
	case threshold > 0:
		var out server.RankResponse
		if err := clientGet(client, fmt.Sprintf("%s/rank?t=%g", base, threshold), &out); err != nil {
			return err
		}
		fmt.Printf("groups with weight > %g (settled=%v, %d records served):\n",
			threshold, out.Result.Settled, out.Records)
		for i, e := range out.Result.Entries {
			if e.Group.Weight <= threshold {
				break
			}
			fmt.Printf("%3d. %-40s weight=%.2f upper=%.2f resolved=%v\n",
				i+1, name(e.Group.Rep), e.Group.Weight, e.Upper, e.Resolved)
		}
	case rank:
		var out server.RankResponse
		if err := clientGet(client, fmt.Sprintf("%s/rank?k=%d", base, k), &out); err != nil {
			return err
		}
		fmt.Printf("top-%d rank query (settled=%v, %d records served):\n", k, out.Result.Settled, out.Records)
		for i, e := range out.Result.Entries {
			if i == k {
				break
			}
			fmt.Printf("%3d. %-40s weight=%.2f upper=%.2f resolved=%v\n",
				i+1, name(e.Group.Rep), e.Group.Weight, e.Upper, e.Resolved)
		}
	case mode == server.ModeApprox || mode == server.ModeHybrid:
		var out server.ApproxTopKResponse
		q := fmt.Sprintf("%s/topk?k=%d&r=%d&mode=%s", base, k, r, mode)
		if err := clientGet(client, q, &out); err != nil {
			return err
		}
		fmt.Printf("approximate top-%d (level-1 closure weights, a lower bound on each exact group's):\n", out.K)
		for i, e := range out.Entries {
			fmt.Printf("%3d. %-40s weight=%.2f\n", i+1, name(e.Rep), e.Count)
		}
		if out.Exact != "" {
			fmt.Printf("(exact tier: %s)\n", out.Exact)
		}
		fmt.Printf("(answered from snapshot %d over %d records)\n", out.SnapshotSeq, out.Records)
	default:
		var out server.TopKResponse
		q := fmt.Sprintf("%s/topk?k=%d&r=%d", base, k, r)
		if mode != "" {
			q += "&mode=" + url.QueryEscape(mode)
		}
		if err := clientGet(client, q, &out); err != nil {
			return err
		}
		for ai, ans := range out.Result.Answers {
			fmt.Printf("answer %d (score %.3f):\n", ai+1, ans.Score)
			for gi, g := range ans.Groups {
				fmt.Printf("%3d. %-40s weight=%.2f mentions=%d\n",
					gi+1, name(g.Rep), g.Weight, len(g.Records))
			}
		}
		fmt.Printf("(answered from snapshot %d over %d records)\n", out.SnapshotSeq, out.Records)
	}
	return nil
}

func clientGet(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return json.Unmarshal(body, out)
}
