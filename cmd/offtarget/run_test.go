package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/fasta"
)

// cliFixture synthesizes a genome and guide set and writes both in the
// on-disk formats the CLI consumes.
func cliFixture(t *testing.T, seed int64) (genomePath, guidesPath string, guides []crisprscan.Guide) {
	t.Helper()
	dir := t.TempDir()
	g := crisprscan.SynthesizeGenome(crisprscan.SynthConfig{Seed: seed, ChromLen: 30000, NumChroms: 3})
	guides, err := crisprscan.SampleGuides(g, 2, 20, "NGG", seed+1)
	if err != nil {
		t.Fatal(err)
	}

	genomePath = filepath.Join(dir, "genome.fa")
	gf, err := os.Create(genomePath)
	if err != nil {
		t.Fatal(err)
	}
	fw := fasta.NewWriter(gf, 60)
	for _, rec := range g.ToFasta() {
		if err := fw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}

	var gl strings.Builder
	for _, gu := range guides {
		fmt.Fprintf(&gl, "%s %s\n", gu.Name, gu.Spacer)
	}
	guidesPath = filepath.Join(dir, "guides.txt")
	if err := os.WriteFile(guidesPath, []byte(gl.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return genomePath, guidesPath, guides
}

func TestRunWritesCompleteOutputFile(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 801)
	outPath := filepath.Join(t.TempDir(), "sites.tsv")
	cfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1, outPath: outPath}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("guide\t")) {
		t.Fatalf("output missing TSV header: %q", data[:min(len(data), 40)])
	}
	if len(data) > 0 && data[len(data)-1] != '\n' {
		t.Fatal("output not fully flushed: missing trailing newline")
	}
}

// TestRunStreamMatchesInMemory pins satellite behavior: streamed rows
// are written incrementally from yield, yet the file must be
// byte-identical to the buffered in-memory mode.
func TestRunStreamMatchesInMemory(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 802)
	dir := t.TempDir()
	memOut := filepath.Join(dir, "mem.tsv")
	streamOut := filepath.Join(dir, "stream.tsv")

	memCfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1, outPath: memOut}
	if err := run(context.Background(), memCfg); err != nil {
		t.Fatal(err)
	}
	streamCfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1, outPath: streamOut, stream: true}
	if err := run(context.Background(), streamCfg); err != nil {
		t.Fatal(err)
	}

	mem, err := os.ReadFile(memOut)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := os.ReadFile(streamOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem, streamed) {
		t.Fatalf("stream output (%d bytes) differs from in-memory output (%d bytes)", len(streamed), len(mem))
	}
}

func TestRunCheckpointRequiresStream(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 803)
	cfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 1, pam: "NGG",
		ckptPath: filepath.Join(t.TempDir(), "scan.ckpt")}
	err := run(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "-checkpoint requires -stream") {
		t.Fatalf("want -checkpoint/-stream coupling error, got %v", err)
	}
}

func TestRunTimeoutAbortsButFlushes(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 804)
	dir := t.TempDir()
	outPath := filepath.Join(dir, "sites.tsv")
	cfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1,
		outPath: outPath, stream: true, ckptPath: filepath.Join(dir, "scan.ckpt"),
		timeout: time.Nanosecond}
	err := run(context.Background(), cfg)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want wrapped context.DeadlineExceeded, got %v", err)
	}
	if !strings.Contains(err.Error(), "progress saved") {
		t.Fatalf("checkpointed abort must advertise resumability: %v", err)
	}
	// The deferred flush path must still deliver everything written
	// before the abort (here: the TSV header).
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("guide\t")) {
		t.Fatalf("aborted run truncated its output: %q", data)
	}
}

// TestRunBatchFailureKeepsCompletedRows: a batch scan that fails after
// its first chromosome writes the header and exactly that chromosome's
// rows before it returns the error, as -stream does. The run is
// canceled once the admin registry shows chromosome 1 done; CasOT takes
// far longer over the 4 Mbp chromosome 2, so the cancel lands in it.
func TestRunBatchFailureKeepsCompletedRows(t *testing.T) {
	dir := t.TempDir()
	first := crisprscan.SynthesizeGenome(crisprscan.SynthConfig{Seed: 815, ChromLen: 20000, NumChroms: 1})
	second := crisprscan.SynthesizeGenome(crisprscan.SynthConfig{Seed: 816, ChromLen: 4_000_000, NumChroms: 1})
	recs := append(first.ToFasta(), second.ToFasta()...)
	recs[1].ID = "chr2"
	genomePath := filepath.Join(dir, "genome.fa")
	if err := fasta.WriteFile(genomePath, recs); err != nil {
		t.Fatal(err)
	}
	guides, err := crisprscan.SampleGuides(first, 4, 20, "NGG", 817)
	if err != nil {
		t.Fatal(err)
	}
	var gl strings.Builder
	for _, gu := range guides {
		fmt.Fprintf(&gl, "%s %s\n", gu.Name, gu.Spacer)
	}
	guidesPath := filepath.Join(dir, "guides.txt")
	if err := os.WriteFile(guidesPath, []byte(gl.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := crisprscan.Search(first, guides, crisprscan.Params{MaxMismatches: 2, PAM: "NGG", Engine: crisprscan.EngineCasOT})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sites) == 0 {
		t.Fatal("fixture: chromosome 1 has no sites")
	}
	var want bytes.Buffer
	if err := crisprscan.WriteSitesTSV(&want, res.Sites); err != nil {
		t.Fatal(err)
	}

	reg := newScanRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for ctx.Err() == nil {
			_, scans, _, _ := reg.collect()
			for _, st := range scans {
				if st.prog.Snapshot().ChromsDone >= 1 {
					cancel()
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	outPath := filepath.Join(dir, "sites.tsv")
	cfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", engineName: "casot",
		workers: 1, outPath: outPath, httpAddr: "127.0.0.1:0", reg: reg,
		log: slog.New(slog.NewTextHandler(io.Discard, nil))}
	err = run(ctx, cfg)
	cancel()
	<-polled
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error %v, want a wrapped context.Canceled", err)
	}
	got, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("failed batch run wrote %d bytes:\n%s\nwant the header and chromosome 1's %d rows:\n%s", len(got), got, len(res.Sites), want.Bytes())
	}
}

// TestRunCheckpointResumeByteIdentical interrupts a checkpointed
// streaming run after its first chromosome commits (standing in for a
// SIGINT'd process) and resumes it through the CLI path, asserting the
// final output file is byte-identical to an uninterrupted CLI run.
func TestRunCheckpointResumeByteIdentical(t *testing.T) {
	genomePath, guidesPath, guides := cliFixture(t, 805)
	dir := t.TempDir()
	params := crisprscan.Params{MaxMismatches: 2, PAM: "NGG"}

	fullOut := filepath.Join(dir, "full.tsv")
	fullCfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1,
		outPath: fullOut, stream: true, ckptPath: filepath.Join(dir, "full.ckpt")}
	if err := run(context.Background(), fullCfg); err != nil {
		t.Fatal(err)
	}

	// Interrupted first attempt: same journal/output files the resumed
	// CLI run will pick up, canceled right after chromosome 1 commits.
	ckpt := filepath.Join(dir, "resume.ckpt")
	partialOut := filepath.Join(dir, "resume.tsv")
	pf, err := os.Create(partialOut)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := os.Open(genomePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := crisprscan.WriteSitesTSVHeader(pf); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = crisprscan.SearchStreamCheckpoint(ctx, gf, guides, params,
		&crisprscan.StreamControl{ChromDone: func(string, int, int64) error { cancel(); return nil }},
		ckpt, pf, false)
	gf.Close()
	if cerr := pf.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("setup interruption failed: %v", err)
	}

	// Resume with the same arguments through the CLI entry point.
	resumeCfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1,
		outPath: partialOut, stream: true, ckptPath: ckpt}
	if err := run(context.Background(), resumeCfg); err != nil {
		t.Fatal(err)
	}

	full, err := os.ReadFile(fullOut)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(partialOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(full, resumed) {
		t.Fatalf("resumed output (%d bytes) is not byte-identical to the uninterrupted run (%d bytes)",
			len(resumed), len(full))
	}

	// Resuming with a different mismatch budget must be rejected.
	badCfg := &config{genomePath: genomePath, guidesPath: guidesPath, k: 3, pam: "NGG", workers: 1,
		outPath: filepath.Join(dir, "bad.tsv"), stream: true, ckptPath: ckpt}
	if err := run(context.Background(), badCfg); err == nil || !strings.Contains(err.Error(), "different parameters") {
		t.Fatalf("changed -k must be rejected on resume, got %v", err)
	}
}

// TestRunCheckpointResumesACrashExactlyOnce resumes a checkpointed
// -stream run from the disk states a kill -9 or an older build leaves,
// starting from a finished run's output and journal cut back to its
// first chromosome.
func TestRunCheckpointResumesACrashExactlyOnce(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 800)
	dir := t.TempDir()
	cfg := func(name string) *config {
		return &config{genomePath: genomePath, guidesPath: guidesPath, k: 4, pam: "NGG", workers: 1,
			stream: true, outPath: filepath.Join(dir, name+".tsv"), ckptPath: filepath.Join(dir, name+".ckpt")}
	}
	if err := run(context.Background(), cfg("full")); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(filepath.Join(dir, "full.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "full.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	var journal map[string]any
	if err := json.Unmarshal(data, &journal); err != nil {
		t.Fatal(err)
	}
	entries := journal["entries"].([]any)
	first := entries[0].(map[string]any)
	// The watermark after chromosome 1 is the end of its last row.
	var wm int64
	for off := 0; off < len(full); {
		line := full[off : off+bytes.IndexByte(full[off:], '\n')+1]
		off += len(line)
		if bytes.Contains(line, []byte("\t"+first["chrom"].(string)+"\t")) {
			wm = int64(off)
		}
	}
	if len(entries) < 2 || wm == 0 || wm >= int64(len(full)) {
		t.Fatalf("fixture needs rows on chromosome 1 and after it: entries %v, %d-byte output", entries, len(full))
	}
	if got, _ := first["out_bytes"].(float64); int64(got) != wm {
		t.Errorf("journal watermark after chromosome 1 = %v, want %d", first["out_bytes"], wm)
	}
	first["out_bytes"] = wm
	nextRow := full[wm:]
	nextRow = nextRow[:bytes.IndexByte(nextRow, '\n')+1]

	// crash writes the state a run leaves after committing chromosome 1:
	// the journal holds that entry (edit may change it) and the output
	// holds out.
	crash := func(t *testing.T, name string, out []byte, edit func(map[string]any)) *config {
		t.Helper()
		c := cfg(name)
		entry := map[string]any{}
		for k, v := range first {
			entry[k] = v
		}
		if edit != nil {
			edit(entry)
		}
		doc := map[string]any{"version": journal["version"], "fingerprint": journal["fingerprint"], "entries": []any{entry}}
		data, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.ckptPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(c.outPath, out, 0o644); err != nil {
			t.Fatal(err)
		}
		return c
	}

	t.Run("torn row past the watermark", func(t *testing.T) {
		torn := append(append([]byte(nil), full[:wm]...), nextRow[:len(nextRow)/2]...)
		c := crash(t, "torn", torn, nil)
		if err := run(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(c.outPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, full) {
			t.Fatalf("resumed output differs from the uninterrupted run:\n%s\nwant:\n%s", got, full)
		}
	})

	// Both of these must fail before writing: resuming would lose or
	// duplicate journaled rows.
	for _, tc := range []struct {
		name, want string
		out        []byte
		edit       func(map[string]any)
	}{
		{"output shorter than the watermark", "delete the journal", full[:wm-1], nil},
		{"journal without watermarks", "delete it", full[:wm], func(e map[string]any) { delete(e, "out_bytes") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := crash(t, "bad", tc.out, tc.edit)
			err := run(context.Background(), c)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("resume error %v, want one containing %q", err, tc.want)
			}
			if got, _ := os.ReadFile(c.outPath); !bytes.Equal(got, tc.out) {
				t.Fatalf("failed resume rewrote the output: %q", got)
			}
		})
	}
}

// TestRunBulgeRejectsIgnoredFlags: the bulge search takes none of these
// flags, so each fails by name instead of being silently ignored.
func TestRunBulgeRejectsIgnoredFlags(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 807)
	for flag, set := range map[string]func(*config){
		"-engine":  func(c *config) { c.engineName = "casot" },
		"-alt-pam": func(c *config) { c.altPAM = "NAG" },
		"-region":  func(c *config) { c.region = "chr1:0-1000" },
		"-bed":     func(c *config) { c.bed = true },
		"-summary": func(c *config) { c.summary = true },
		"-workers": func(c *config) { c.workers = 4 },
		"-timeout": func(c *config) { c.timeout = time.Nanosecond },
	} {
		c := &config{genomePath: genomePath, guidesPath: guidesPath, k: 1, bulge: 1, pam: "NGG",
			engineName: string(crisprscan.EngineHyperscan), workers: 1, outPath: filepath.Join(t.TempDir(), "out.tsv")}
		set(c)
		if err := run(context.Background(), c); err == nil || err.Error() != "-bulge does not support "+flag {
			t.Errorf("%s: got %v, want -bulge does not support %s", flag, err, flag)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestRunReportsLoadPhase pins that batch and -index runs charge
// reading the reference to the load phase of the scan's recorder, so
// -stats and /metrics show ingest time, and that -trace carries a
// "load" span.
func TestRunReportsLoadPhase(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 821)
	idxPath := indexFixture(t, genomePath)
	dir := t.TempDir()
	for name, cfg := range map[string]*config{
		"batch":        {genomePath: genomePath},
		"index":        {indexPath: idxPath},
		"index-stream": {indexPath: idxPath, stream: true},
		"stream":       {genomePath: genomePath, stream: true},
	} {
		t.Run(name, func(t *testing.T) {
			reg := newScanRegistry()
			cfg.guidesPath, cfg.k, cfg.pam, cfg.workers = guidesPath, 2, "NGG", 1
			cfg.outPath = filepath.Join(dir, name+".tsv")
			cfg.tracePath = filepath.Join(dir, name+".trace.json")
			cfg.httpAddr, cfg.reg = "127.0.0.1:0", reg
			cfg.log = slog.New(slog.NewTextHandler(io.Discard, nil))
			if err := run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			merged, _, _, completed := reg.collect()
			if completed != 1 {
				t.Fatalf("%d scans completed, want 1", completed)
			}
			if merged.Phases.Load <= 0 {
				t.Errorf("load phase = %v s, want > 0 (phases %+v)", merged.Phases.Load, merged.Phases)
			}
			trace, err := os.ReadFile(cfg.tracePath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(trace, []byte(`{"name":"load","ph":"X"`)) {
				t.Errorf("trace has no load span:\n%.400s", trace)
			}
		})
	}
}

// TestRunStatsReportSameForStream pins the shared -stats report: a
// -stream run of a modeled engine logs the modeled device time and
// device resources exactly as the batch run does.
func TestRunStatsReportSameForStream(t *testing.T) {
	genomePath, guidesPath, _ := cliFixture(t, 831)
	dir := t.TempDir()
	for _, stream := range []bool{false, true} {
		var logs bytes.Buffer
		cfg := &config{
			genomePath: genomePath, guidesPath: guidesPath, k: 2, pam: "NGG", workers: 1,
			engineName: string(crisprscan.EngineAP), stats: true, stream: stream,
			outPath: filepath.Join(dir, fmt.Sprintf("stream-%v.tsv", stream)),
			log:     slog.New(slog.NewTextHandler(&logs, nil)),
		}
		if err := run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		for _, msg := range []string{"scan complete", "scan metrics", "modeled device time", "device resources"} {
			if !strings.Contains(logs.String(), "msg=\""+msg+"\"") {
				t.Errorf("stream=%v: -stats did not log %q:\n%s", stream, msg, logs.String())
			}
		}
	}
}

// TestRunTraceKeepsEveryChunkSpan pins that batch -trace lifts the
// tracer's span budget: a genome of 2100 short chromosomes opens a scan
// span and a chunk span per chromosome, over 4096 spans in all, and the
// Chrome timeline still holds every one.
func TestRunTraceKeepsEveryChunkSpan(t *testing.T) {
	const chroms = 2100
	dir := t.TempDir()
	var fa bytes.Buffer
	fw := fasta.NewWriter(&fa, 60)
	g := crisprscan.SynthesizeGenome(crisprscan.SynthConfig{Seed: 841, ChromLen: 60, NumChroms: chroms})
	for _, rec := range g.ToFasta() {
		if err := fw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	genomePath := filepath.Join(dir, "genome.fa")
	if err := os.WriteFile(genomePath, fa.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := &config{
		genomePath: genomePath, guideSeq: "ACGTACGTACGTACGTACGT", k: 1, pam: "NGG", workers: 1,
		outPath: filepath.Join(dir, "sites.tsv"), tracePath: filepath.Join(dir, "trace.json"),
		log: slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if err := run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace is not a JSON array: %v", err)
	}
	var scans, chunks int
	for _, ev := range events {
		switch {
		case strings.Contains(ev.Name, " chunk "):
			chunks++
		case strings.HasPrefix(ev.Name, "scan "):
			scans++
		}
	}
	if scans != chroms || chunks != chroms {
		t.Fatalf("trace holds %d scan and %d chunk spans, want %d of each", scans, chunks, chroms)
	}
}
