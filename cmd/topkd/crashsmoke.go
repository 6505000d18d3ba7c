// The -crash-smoke self-test: a parent topkd SIGKILLs a child topkd in
// the middle of an ingest stream, restarts it against the same WAL
// directory, and verifies recovery — every acknowledged batch is back,
// no batch is half-applied, and the reborn server both answers queries
// and accepts new ingests. ci.sh runs this as the durability smoke; the
// byte-level recovery guarantees are pinned by the crash-recovery
// property tests in internal/server.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"topkdedup/internal/server"
)

// crashBatchSize is the records per ingest batch in the smoke; recovery
// must report a whole multiple of it (batch atomicity).
const crashBatchSize = 5

// child is one spawned topkd process under test.
type child struct {
	cmd  *exec.Cmd
	base string // http://host:port
}

// startChild launches a fresh topkd serving on an ephemeral port with
// durability on, and parses the listen address from its stderr.
func startChild(walDir string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-addr", "127.0.0.1:0",
		"-wal", walDir,
		"-schema", "name",
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	// The listen line is the startup handshake; everything after it is
	// drained so the child never blocks on a full pipe.
	sc := bufio.NewScanner(stderr)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "topkd: listening on "); ok {
			addr = strings.TrimSpace(rest)
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("crash-smoke: child exited before announcing its address")
	}
	go io.Copy(io.Discard, stderr)
	return &child{cmd: cmd, base: "http://" + addr}, nil
}

// ingestCrashBatch posts one batch of distinct names and reports the
// server's acceptance.
func ingestCrashBatch(client *http.Client, base string, batchIdx int) (server.IngestResponse, error) {
	var req server.IngestRequest
	for i := 0; i < crashBatchSize; i++ {
		req.Records = append(req.Records, server.IngestRecord{
			Values: []string{fmt.Sprintf("entity-%03d variant-%d", batchIdx, i)},
		})
	}
	data, err := json.Marshal(req)
	if err != nil {
		return server.IngestResponse{}, err
	}
	resp, err := client.Post(base+"/ingest", "application/json", bytes.NewReader(data))
	if err != nil {
		return server.IngestResponse{}, err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return server.IngestResponse{}, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var ing server.IngestResponse
	if err := json.Unmarshal(body, &ing); err != nil {
		return server.IngestResponse{}, err
	}
	return ing, nil
}

// crashSmoke is the -crash-smoke entry point.
func crashSmoke() error {
	walDir, err := os.MkdirTemp("", "topkd-crash-smoke-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	client := &http.Client{Timeout: 10 * time.Second}

	first, err := startChild(walDir)
	if err != nil {
		return err
	}
	defer func() {
		first.cmd.Process.Kill()
		first.cmd.Wait()
	}()

	// Acknowledge a few batches, then SIGKILL while one more is in
	// flight — the kill lands mid-ingest, so that last batch may or may
	// not have reached the log; every acknowledged one must have.
	const ackedTarget = 3
	acked := 0
	for ; acked < ackedTarget; acked++ {
		if _, err := ingestCrashBatch(client, first.base, acked); err != nil {
			return fmt.Errorf("crash-smoke: ingest batch %d: %w", acked, err)
		}
	}
	inflight := make(chan error, 1)
	go func() {
		_, err := ingestCrashBatch(client, first.base, ackedTarget)
		inflight <- err
	}()
	time.Sleep(2 * time.Millisecond)
	if err := first.cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown hooks run
		return fmt.Errorf("crash-smoke: kill: %w", err)
	}
	first.cmd.Wait()
	sent := ackedTarget + 1
	if err := <-inflight; err == nil {
		// The in-flight batch won the race and was acknowledged before
		// the kill took effect: it too must be recovered.
		acked = sent
	}

	second, err := startChild(walDir)
	if err != nil {
		return fmt.Errorf("crash-smoke: restart: %w", err)
	}
	defer func() {
		second.cmd.Process.Kill()
		second.cmd.Wait()
	}()
	var health server.HealthResponse
	if err := getJSON(client, second.base+"/healthz", &health); err != nil {
		return fmt.Errorf("crash-smoke: healthz after restart: %w", err)
	}
	recovered := health.Records
	switch {
	case recovered < acked*crashBatchSize:
		return fmt.Errorf("crash-smoke: recovered %d records, lost acknowledged data (acked %d batches of %d)",
			recovered, acked, crashBatchSize)
	case recovered > sent*crashBatchSize:
		return fmt.Errorf("crash-smoke: recovered %d records, more than the %d ever sent", recovered, sent*crashBatchSize)
	case recovered%crashBatchSize != 0:
		return fmt.Errorf("crash-smoke: recovered %d records — a torn (half-applied) batch survived", recovered)
	}
	if health.SnapshotRecords != recovered {
		return fmt.Errorf("crash-smoke: recovered records not queryable: snapshot has %d of %d",
			health.SnapshotRecords, recovered)
	}
	var tk server.TopKResponse
	if err := getJSON(client, second.base+"/topk?k=3&r=1", &tk); err != nil {
		return fmt.Errorf("crash-smoke: topk after restart: %w", err)
	}
	if tk.Result == nil || len(tk.Result.Answers) == 0 {
		return fmt.Errorf("crash-smoke: empty topk result after restart")
	}
	// The recovered log must still accept appends.
	ing, err := ingestCrashBatch(client, second.base, sent)
	if err != nil {
		return fmt.Errorf("crash-smoke: ingest after restart: %w", err)
	}
	if ing.Records != recovered+crashBatchSize {
		return fmt.Errorf("crash-smoke: post-restart ingest total %d, want %d", ing.Records, recovered+crashBatchSize)
	}

	// Graceful shutdown closes the WAL cleanly.
	if err := second.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	if err := second.cmd.Wait(); err != nil {
		return fmt.Errorf("crash-smoke: graceful shutdown: %w", err)
	}
	fmt.Printf("topkd: crash smoke OK (killed mid-ingest after %d acked batches, recovered %d records)\n",
		acked, recovered)
	return nil
}
