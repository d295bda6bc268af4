package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// httpGet fetches an admin URL; safe to call from any goroutine.
func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return string(body), nil
}

// findMetric extracts an unlabeled sample value from exposition text.
func findMetric(exposition, name string) (float64, error) {
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseFloat(rest, 64)
		}
	}
	return 0, fmt.Errorf("metric %s not found", name)
}

// debugScansDoc mirrors the /debug/scans response shape.
type debugScansDoc struct {
	Scans []struct {
		ID       int64                    `json:"id"`
		Engine   string                   `json:"engine"`
		Progress metrics.ProgressSnapshot `json:"progress"`
	} `json:"scans"`
	Started   int64 `json:"scans_started"`
	Completed int64 `json:"scans_completed"`
}

func fetchScans(base string) (debugScansDoc, error) {
	var doc debugScansDoc
	body, err := httpGet(base + "/debug/scans")
	if err != nil {
		return doc, err
	}
	return doc, json.Unmarshal([]byte(body), &doc)
}

// mustScans is the main-goroutine convenience wrapper.
func mustScans(t *testing.T, base string) debugScansDoc {
	t.Helper()
	doc, err := fetchScans(base)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func mustMetric(t *testing.T, base, name string) float64 {
	t.Helper()
	exp, err := httpGet(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	v, err := findMetric(exp, name)
	if err != nil {
		t.Fatalf("%v in:\n%s", err, exp)
	}
	return v
}

// TestAdminScrapeDuringLiveScan drives a streaming scan against a real
// admin server and scrapes /metrics and /debug/scans concurrently,
// under -race. It asserts the monotonicity contract end to end: the
// bytes-scanned counter and the progress fraction never decrease
// between scrapes, the fraction reaches exactly 1.0 once the scan
// finishes, and completing the scan moves its metrics into the
// lifetime aggregator without double counting.
func TestAdminScrapeDuringLiveScan(t *testing.T) {
	genomePath, _, guides := cliFixture(t, 811)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	reg := newScanRegistry()
	adm, err := newAdminServer("127.0.0.1:0", reg, logger, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()
	base := "http://" + adm.Addr()

	// Before any scan: /readyz must gate, /healthz must not.
	if resp, err := http.Get(base + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("/readyz before first scan = %d, want 503", resp.StatusCode)
		}
	}
	if _, err := httpGet(base + "/healthz"); err != nil {
		t.Fatal(err)
	}

	rec := crisprscan.NewMetricsRecorder()
	prog := crisprscan.NewProgressTracker()
	fi, err := os.Stat(genomePath)
	if err != nil {
		t.Fatal(err)
	}
	prog.SetTotalBytes(fi.Size())
	finishScan := reg.begin(&scanState{Engine: "hyperscan", K: 2, PAM: "NGG",
		Genome: genomePath, rec: rec, prog: prog})

	// Background scraper: hammers both endpoints for the duration of
	// the scan, checking monotonicity on every sample. Only t.Error
	// here — t.Fatal must not be called off the test goroutine.
	stop := make(chan struct{})
	done := make(chan struct{})
	var scrapes atomic.Int64
	go func() {
		defer close(done)
		var lastBytes, lastFraction float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			exp, err := httpGet(base + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			b, err := findMetric(exp, "crisprscan_bytes_scanned_total")
			if err != nil {
				t.Error(err)
				return
			}
			if b < lastBytes {
				t.Errorf("bytes_scanned decreased between scrapes: %v -> %v", lastBytes, b)
				return
			}
			lastBytes = b
			doc, err := fetchScans(base)
			if err != nil {
				t.Error(err)
				return
			}
			for _, s := range doc.Scans {
				if s.Progress.Fraction < lastFraction {
					t.Errorf("progress fraction decreased: %v -> %v", lastFraction, s.Progress.Fraction)
					return
				}
				lastFraction = s.Progress.Fraction
				if !s.Progress.Done && s.Progress.Fraction >= 1 {
					t.Errorf("fraction %v >= 1 before Done", s.Progress.Fraction)
					return
				}
			}
			scrapes.Add(1)
		}
	}()

	f, err := os.Open(genomePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	params := crisprscan.Params{MaxMismatches: 2, PAM: "NGG", Workers: 2, Metrics: rec, Progress: prog}
	st, err := crisprscan.SearchStreamContext(context.Background(), f, guides, params, nil,
		func(crisprscan.Site) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// A small fixture can finish scanning before the scraper's first
	// full pass. The scan is still registered live, so wait for at
	// least one complete sample (or the scraper erroring out) before
	// stopping it.
waitSample:
	for scrapes.Load() == 0 {
		select {
		case <-done:
			break waitSample
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	<-done
	if scrapes.Load() == 0 {
		t.Fatal("scraper never completed a sample")
	}

	// The scan has finished but is still registered: /debug/scans must
	// show it pinned at exactly 1.0 and done.
	doc := mustScans(t, base)
	if len(doc.Scans) != 1 {
		t.Fatalf("live scans = %d, want 1", len(doc.Scans))
	}
	if p := doc.Scans[0].Progress; !p.Done || p.Fraction != 1 {
		t.Fatalf("finished scan progress = %+v, want done at fraction 1", p)
	}

	// Completing the scan moves it to the aggregator; totals must be
	// preserved exactly (no double counting, no loss).
	before := mustMetric(t, base, "crisprscan_bytes_scanned_total")
	finishScan()
	if got := mustMetric(t, base, "crisprscan_bytes_scanned_total"); got != before {
		t.Errorf("bytes_scanned changed across completion: %v -> %v", before, got)
	}
	if got := mustMetric(t, base, "crisprscan_scans_completed_total"); got != 1 {
		t.Errorf("scans_completed = %v, want 1", got)
	}
	if int64(before) != int64(st.BytesScanned) {
		t.Errorf("exposed bytes %v != stats bytes %d", before, st.BytesScanned)
	}
	doc = mustScans(t, base)
	if len(doc.Scans) != 0 || doc.Completed != 1 {
		t.Fatalf("after completion: %d live, %d completed; want 0, 1", len(doc.Scans), doc.Completed)
	}
	if _, err := httpGet(base + "/readyz"); err != nil {
		t.Fatalf("/readyz after first scan: %v", err)
	}
}

// TestRunServesAdminEndpoint exercises the full CLI wiring: run() with
// an -http address exposes exposition, health, and scan JSON; the scan
// folds into the aggregator on completion; and -http-linger keeps the
// endpoint scrapeable after the scan until the context is canceled.
func TestRunServesAdminEndpoint(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 812)
	addrCh := make(chan string, 1)
	reg := newScanRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := &config{
		genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 2,
		stream: true, httpAddr: "127.0.0.1:0", httpLinger: time.Minute, reg: reg,
		log:     slog.New(slog.NewTextHandler(io.Discard, nil)),
		onAdmin: func(addr string) { addrCh <- addr },
	}
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, cfg) }()

	base := "http://" + <-addrCh
	if _, err := httpGet(base + "/healthz"); err != nil {
		t.Fatal(err)
	}
	// Poll until the scan registers complete: the linger window holds
	// the endpoint open, so this terminates without racing the scan.
	var doc debugScansDoc
	for doc.Completed != 1 {
		doc = mustScans(t, base)
	}
	exp, err := httpGet(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# HELP crisprscan_bytes_scanned_total",
		"# TYPE crisprscan_chunk_latency_seconds histogram",
		"crisprscan_scans_completed_total 1",
		"crisprscan_build_info{",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q:\n%s", want, exp)
		}
	}
	// Cutting the context ends the linger window promptly.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after cancel during linger")
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if reg.completed != 1 || len(reg.live) != 0 {
		t.Fatalf("registry after run: completed=%d live=%d, want 1, 0", reg.completed, len(reg.live))
	}
	if agg := reg.agg.MergedWith(); agg.Counters.BytesScanned != 3*30000 {
		t.Errorf("aggregated bytes = %d, want %d", agg.Counters.BytesScanned, 3*30000)
	}
}

// TestRunRejectsBadAdminAddr pins fail-fast binding: a bad -http must
// abort before the scan starts.
func TestRunRejectsBadAdminAddr(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 813)
	cfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 1, pam: "NGG",
		httpAddr: "256.0.0.1:bad",
		log:      slog.New(slog.NewTextHandler(io.Discard, nil))}
	if err := run(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "admin endpoint") {
		t.Fatalf("want admin bind error, got %v", err)
	}
}

// TestBuildVersion pins that version reporting never panics and always
// yields non-empty fields (test binaries carry no VCS stamp).
func TestBuildVersion(t *testing.T) {
	if v, rev := buildVersion(); v == "" || rev == "" {
		t.Fatalf("buildVersion = %q, %q", v, rev)
	}
}
