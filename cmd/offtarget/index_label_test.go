//go:build unix

package main

import (
	"bytes"
	"context"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"github.com/cap-repro/crisprscan"
)

// TestRunIndexLabelsSeedIndexEngine: -index forces the seed-index
// engine even when -engine carries its hyperscan default, and the log,
// /debug/scans and the per-scan /metrics gauges must all name the
// engine that runs. The streamed -genome is a named pipe, so the scan
// stays registered and live until the test writes the reference.
func TestRunIndexLabelsSeedIndexEngine(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 816)
	idxPath := indexFixture(t, genomePath)
	reference, err := os.ReadFile(genomePath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pipe := filepath.Join(dir, "genome.fa")
	if err := syscall.Mkfifo(pipe, 0o600); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	addrCh := make(chan string, 1)
	cfg := &config{
		genomePath: pipe, indexPath: idxPath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1,
		engineName: string(crisprscan.EngineHyperscan), stream: true,
		outPath:  filepath.Join(dir, "out.tsv"),
		httpAddr: "127.0.0.1:0", reg: newScanRegistry(),
		log:     slog.New(slog.NewTextHandler(&logs, nil)),
		onAdmin: func(addr string) { addrCh <- addr },
	}
	runErr := make(chan error, 1)
	go func() { runErr <- run(context.Background(), cfg) }()
	// Writing the reference lets the scan finish; opening the pipe blocks
	// until run opens it too, so skip it if run has already returned.
	released := false
	release := func() {
		released = true
		w, err := os.OpenFile(pipe, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, err := w.Write(reference); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		if released {
			return
		}
		select {
		case <-runErr:
		default:
			release()
			<-runErr
		}
	}()

	base := "http://" + <-addrCh
	// The scan registers before it opens the pipe, so this terminates.
	var doc debugScansDoc
	for len(doc.Scans) == 0 {
		doc = mustScans(t, base)
	}
	if got := doc.Scans[0].Engine; got != string(crisprscan.EngineSeedIndex) {
		t.Errorf("/debug/scans engine = %q, want %q", got, crisprscan.EngineSeedIndex)
	}
	exp, err := httpGet(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(exp, `engine="seed-index"`) || strings.Contains(exp, `engine="hyperscan"`) {
		t.Errorf("per-scan /metrics gauges do not label the scan seed-index:\n%s", exp)
	}

	release()
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "engine=seed-index") || strings.Contains(logs.String(), "engine=hyperscan") {
		t.Errorf("log does not name the seed-index engine:\n%s", logs.String())
	}
}
