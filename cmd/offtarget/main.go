// Command offtarget is the end-user search tool: given a FASTA genome
// and a guide list, it reports every potential off-target site within
// the mismatch (and optional bulge) budget, on a selectable execution
// engine.
//
// Usage:
//
//	offtarget -genome genome.fa -guides guides.txt -k 3
//	offtarget -genome genome.fa -guide GGGTGGGGGGAGTTTGCTCC -k 4 -pam NRG
//	offtarget -genome genome.fa -guides guides.txt -k 2 -bulge 1
//	offtarget -genome genome.fa -guides guides.txt -engine ap -stats
//	offtarget -genome hg.fa -guides g.txt -stream -checkpoint scan.ckpt -o sites.tsv
//	offtarget -genome genome.fa -guides guides.txt -trace scan.json -http localhost:6060
//	offtarget -serve -serve-dir jobs/ -genome genome.fa -http localhost:6060
//	offtarget -version
//
// The guides file holds one spacer per line, optionally preceded by a
// name and whitespace; '#' starts a comment.
//
// Diagnostics go to stderr as structured logs (-log-format text|json,
// -log-level debug|info|warn|error). With -http, an admin endpoint
// serves /metrics (Prometheus text format), /healthz, /readyz,
// /debug/scans (JSON progress with throughput and ETA), and the
// standard /debug/pprof profiling handlers; -http-linger keeps it up
// after the scan finishes so a scraper can collect the final state.
//
// Robustness: -timeout bounds the whole search; SIGINT/SIGTERM trigger
// a graceful shutdown (complete output is flushed, the checkpoint
// journal stays valid, exit status is nonzero). With -stream
// -checkpoint -o, an interrupted or killed run resumed with identical
// arguments cuts -o back to its last committed chromosome and appends
// exactly the missing ones, so the final output equals an
// uninterrupted run's byte for byte.
//
// With -serve, offtarget runs as a long-lived multi-tenant scan
// service instead: jobs are submitted to POST /v1/jobs on the -http
// address, run on a bounded worker pool with per-tenant admission
// quotas, persist their state and checkpointed output under
// -serve-dir (a killed service resumes interrupted jobs on restart,
// byte-identically), and SIGTERM drains gracefully with exit 0.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/report"
)

// config carries every flag so run stays testable without a flag.Parse.
type config struct {
	genomePath string
	indexPath  string
	guidesPath string
	guideSeq   string
	k          int
	bulge      int
	pam        string
	altPAM     string
	engineName string
	plusOnly   bool
	workers    int
	stats      bool
	stream     bool
	bed        bool
	summary    bool
	region     string
	outPath    string
	ckptPath   string
	timeout    time.Duration
	tracePath  string
	httpAddr   string
	httpLinger time.Duration
	logFormat  string
	logLevel   string

	serve           bool
	serveDir        string
	serveGenomeDir  string
	serveWorkers    int
	serveQueue      int
	serveQuotaRate  float64
	serveQuotaBurst int
	serveRetries    int
	serveDrain      time.Duration

	log     *slog.Logger      // defaults to slog.Default()
	onAdmin func(addr string) // test hook: observes the bound -http address
	reg     *scanRegistry     // test hook: shared registry; run creates one if nil
}

func (c *config) logger() *slog.Logger {
	if c.log != nil {
		return c.log
	}
	return slog.Default()
}

// newLogger builds the process logger from -log-format / -log-level.
func newLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if level == "" {
		level = "info"
	}
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
}

func main() {
	var cfg config
	var showVersion bool
	flag.StringVar(&cfg.genomePath, "genome", "", "reference genome FASTA (required)")
	flag.StringVar(&cfg.indexPath, "index", "", "prebuilt genome seed index (genomeindex build); selects the seed-index engine")
	flag.StringVar(&cfg.guidesPath, "guides", "", "guide list file (one spacer per line)")
	flag.StringVar(&cfg.guideSeq, "guide", "", "single guide spacer (alternative to -guides)")
	flag.IntVar(&cfg.k, "k", 3, "maximum spacer mismatches")
	flag.IntVar(&cfg.bulge, "bulge", 0, "maximum bulges (enables edit-distance search)")
	flag.StringVar(&cfg.pam, "pam", "NGG", "PAM pattern (IUPAC)")
	flag.StringVar(&cfg.altPAM, "alt-pam", "", "comma-separated additional PAMs (e.g. NAG)")
	flag.StringVar(&cfg.engineName, "engine", string(crisprscan.EngineHyperscan), "execution engine")
	flag.BoolVar(&cfg.plusOnly, "plus-only", false, "search the plus strand only")
	flag.IntVar(&cfg.workers, "workers", 1, "data-parallel width for CPU engines")
	flag.BoolVar(&cfg.stats, "stats", false, "log execution statistics when the scan completes")
	flag.BoolVar(&cfg.stream, "stream", false, "stream the genome chromosome-by-chromosome (constant memory)")
	flag.BoolVar(&cfg.bed, "bed", false, "emit BED6 instead of TSV")
	flag.BoolVar(&cfg.summary, "summary", false, "print a per-guide specificity summary to stderr")
	flag.StringVar(&cfg.region, "region", "", "restrict to 'chrom' or 'chrom:start-end' (0-based half-open)")
	flag.StringVar(&cfg.outPath, "o", "", "output TSV path (default stdout)")
	flag.StringVar(&cfg.ckptPath, "checkpoint", "", "checkpoint journal path (with -stream: resume by skipping completed chromosomes)")
	flag.DurationVar(&cfg.timeout, "timeout", 0, "abort the search after this duration (e.g. 30m; 0 = no limit)")
	flag.StringVar(&cfg.tracePath, "trace", "", "write a Chrome trace-event timeline of the scan to this file (view in chrome://tracing or Perfetto); with -serve, the file name for each job's per-job trace inside its spool directory")
	flag.StringVar(&cfg.httpAddr, "http", "", "serve the admin endpoint (/metrics, /healthz, /readyz, /debug/scans, /debug/pprof) on this address (e.g. localhost:6060)")
	flag.DurationVar(&cfg.httpLinger, "http-linger", 0, "keep the -http endpoint up this long after the scan completes")
	flag.StringVar(&cfg.logFormat, "log-format", "text", "log output format: text or json")
	flag.StringVar(&cfg.logLevel, "log-level", "info", "minimum log level: debug, info, warn, or error")
	flag.BoolVar(&cfg.serve, "serve", false, "run the multi-tenant scan service (job API under /v1/ on -http) instead of a one-shot scan")
	flag.StringVar(&cfg.serveDir, "serve-dir", "", "durable job-state directory for -serve (required with -serve)")
	flag.StringVar(&cfg.serveGenomeDir, "serve-genome-dir", "", "directory jobs may name genomes from (relative paths); with -genome as the default reference")
	flag.IntVar(&cfg.serveWorkers, "serve-workers", 2, "concurrent jobs the service runs")
	flag.IntVar(&cfg.serveQueue, "serve-queue", 64, "queued jobs before submissions are shed with 429")
	flag.Float64Var(&cfg.serveQuotaRate, "serve-quota-rate", 1, "per-tenant sustained submissions per second (0 disables quotas)")
	flag.IntVar(&cfg.serveQuotaBurst, "serve-quota-burst", 8, "per-tenant submission burst size")
	flag.IntVar(&cfg.serveRetries, "serve-retries", 3, "transient-failure retries per job")
	flag.DurationVar(&cfg.serveDrain, "serve-drain", 30*time.Second, "grace window for in-flight jobs on SIGTERM before they are checkpointed for resume")
	flag.BoolVar(&showVersion, "version", false, "print version information and exit")
	flag.Parse()

	if showVersion {
		version, revision := buildVersion()
		fmt.Printf("offtarget %s (revision %s, %s)\n", version, revision, runtime.Version())
		return
	}

	logger, err := newLogger(cfg.logFormat, cfg.logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "offtarget: %v\n", err)
		os.Exit(2)
	}
	cfg.log = logger

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, &cfg); err != nil {
		logger.Error("offtarget failed", "err", err)
		os.Exit(1)
	}
}

// run executes one search. All output paths funnel through the
// deferred flush/close below, so an error return (including a
// cancellation) still delivers every row produced so far and still
// reports flush/close failures instead of silently truncating -o.
func run(ctx context.Context, cfg *config) (err error) {
	if cfg.serve {
		return runServe(ctx, cfg)
	}
	if cfg.genomePath == "" && cfg.indexPath == "" {
		return fmt.Errorf("missing -genome (or -index)")
	}
	if cfg.bulge > 0 {
		if name := bulgeIgnores(cfg); name != "" {
			return fmt.Errorf("-bulge does not support %s", name)
		}
	}
	if cfg.ckptPath != "" {
		switch {
		case !cfg.stream:
			return fmt.Errorf("-checkpoint requires -stream")
		case cfg.genomePath == "":
			// The journal names FASTA records; without the file there is
			// nothing to resume against.
			return fmt.Errorf("-stream -checkpoint requires -genome")
		case cfg.outPath == "":
			// A resume cuts the output back to its last commit, which
			// stdout cannot do.
			return fmt.Errorf("-checkpoint requires -o")
		}
	}
	// A prebuilt index forces the seed-index engine: the point of -index
	// is to skip the genome sweep, and silently scanning with another
	// engine would ignore the file the user handed us. The engine is
	// resolved once, here, so the log, /debug/scans and /metrics name
	// the engine that runs.
	engine := crisprscan.Engine(cfg.engineName)
	if cfg.indexPath != "" {
		if cfg.bulge > 0 {
			return fmt.Errorf("-index does not support -bulge")
		}
		if cfg.region != "" {
			// The region would be scanned as a chromosome of its own,
			// which the index would reject as a stale reference.
			return fmt.Errorf("-index does not support -region")
		}
		switch engine {
		case "", crisprscan.EngineSeedIndex, crisprscan.EngineHyperscan: // explicit or the flag default
			engine = crisprscan.EngineSeedIndex
		default:
			return fmt.Errorf("-index requires the seed-index engine, not -engine %s", cfg.engineName)
		}
	}
	logger := cfg.logger().With("engine", string(engine), "k", cfg.k, "pam", cfg.pam)
	guides, err := loadGuides(cfg.guidesPath, cfg.guideSeq)
	if err != nil {
		return err
	}

	// The admin endpoint binds before any work starts, so a bad -http
	// fails fast and never truncates -o. It outlives the scan by
	// -http-linger (see the scan-completion defer below).
	var adm *adminServer
	if cfg.httpAddr != "" {
		if cfg.reg == nil {
			cfg.reg = newScanRegistry()
		}
		adm, err = newAdminServer(cfg.httpAddr, cfg.reg, logger, nil)
		if err != nil {
			return fmt.Errorf("admin endpoint: %w", err)
		}
		defer adm.Close()
		logger.Info("admin endpoint listening", "addr", adm.Addr())
		if cfg.onAdmin != nil {
			cfg.onAdmin(adm.Addr())
		}
	}

	// The linger window is bounded by the signal context, not the scan
	// -timeout: a scan that timed out still exposes its final metrics.
	lingerCtx := ctx
	if cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, cfg.timeout)
		defer cancel()
	}

	out := io.Writer(os.Stdout)
	var outFile *os.File
	if cfg.outPath != "" {
		// A checkpointed run keeps the output of the run it resumes: the
		// journal's output writer cuts it back to the last commit.
		mode := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
		if cfg.ckptPath != "" {
			mode = os.O_RDWR | os.O_CREATE
		}
		outFile, err = os.OpenFile(cfg.outPath, mode, 0o644)
		if err != nil {
			return err
		}
		out = outFile
	}
	w := bufio.NewWriter(out)
	defer func() {
		// Flush before close, and surface either failure: os.Exit in
		// the old fail() helper used to skip both, truncating -o.
		if ferr := w.Flush(); ferr != nil && err == nil {
			err = fmt.Errorf("flushing output: %w", ferr)
		}
		if outFile != nil {
			if cerr := outFile.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing %s: %w", cfg.outPath, cerr)
			}
		}
	}()

	var alts []string
	if cfg.altPAM != "" {
		alts = strings.Split(cfg.altPAM, ",")
	}
	// The recorder exists before anything is loaded, so reading the
	// genome or index is charged to its load phase (and traced as a
	// "load" span) rather than left out of -stats and /metrics.
	params := crisprscan.Params{
		MaxMismatches: cfg.k, PAM: cfg.pam, AltPAMs: alts, Region: cfg.region, PlusStrandOnly: cfg.plusOnly,
		Engine: engine, Workers: cfg.workers,
		Metrics: crisprscan.NewMetricsRecorder(),
	}

	if cfg.tracePath != "" {
		tf, terr := os.Create(cfg.tracePath)
		if terr != nil {
			return terr
		}
		tracer := crisprscan.NewTracer()
		// A scan opens one span per 64K-position chunk; a whole genome
		// must drop none of them.
		tracer.SetMaxSpans(math.MaxInt)
		params.Metrics.SetTracer(tracer)
		defer func() {
			tracer.Root().End()
			tw := bufio.NewWriter(tf)
			werr := tracer.WriteChrome(tw)
			if werr == nil {
				werr = tw.Flush()
			}
			if werr != nil && err == nil {
				err = fmt.Errorf("writing trace: %w", werr)
			}
			if cerr := tf.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing %s: %w", cfg.tracePath, cerr)
			}
		}()
	}

	if cfg.indexPath != "" {
		endLoad := params.Metrics.StartPhase(metrics.PhaseLoad)
		ix, err := crisprscan.LoadSeedIndex(cfg.indexPath)
		endLoad()
		if err != nil {
			return err
		}
		defer ix.Close()
		params.SeedIndex = ix
		logger.Info("loaded genome seed index",
			"index", cfg.indexPath, "chromosomes", len(ix.Chroms), "seed_len", ix.SeedLen)
	}

	if adm != nil {
		// Every admin-visible scan carries its recorder (for /metrics)
		// and a progress tracker (for /debug/scans). In streaming mode
		// the FASTA file size seeds the denominator — a slight
		// overestimate (headers, newlines), which the tracker reconciles
		// per finished chromosome and pins below 1.0 until the scan
		// completes.
		prog := crisprscan.NewProgressTracker()
		if cfg.stream {
			if fi, serr := os.Stat(cfg.genomePath); serr == nil {
				prog.SetTotalBytes(fi.Size())
			}
		}
		params.Progress = prog
		finishScan := cfg.reg.begin(&scanState{
			Engine: string(engine), K: cfg.k, PAM: cfg.pam, Genome: cfg.genomePath,
			rec: params.Metrics, prog: prog,
		})
		defer func() {
			// Deliver buffered rows before lingering, then fold the scan
			// into the lifetime aggregator so a final scrape sees it.
			if ferr := w.Flush(); ferr != nil && err == nil {
				err = fmt.Errorf("flushing output: %w", ferr)
			}
			finishScan()
			if cfg.httpLinger > 0 {
				logger.Info("scan registered complete; admin endpoint lingering",
					"addr", adm.Addr(), "linger", cfg.httpLinger)
				t := time.NewTimer(cfg.httpLinger)
				select {
				case <-t.C:
				case <-lingerCtx.Done():
					t.Stop()
				}
			}
		}()
	}

	if cfg.stream {
		return runStream(ctx, cfg, guides, params, w, outFile, logger)
	}

	var g *crisprscan.Genome
	endLoad := params.Metrics.StartPhase(metrics.PhaseLoad)
	if cfg.genomePath != "" {
		g, err = crisprscan.LoadGenome(cfg.genomePath)
	} else {
		// The index is self-contained: reconstruct the reference from its
		// packed sequence sections.
		g = params.SeedIndex.Genome()
	}
	endLoad()
	if err != nil {
		return err
	}
	// Both given: prove the pair matches before scanning a single
	// window. A reference edited after indexing must not run.
	if cfg.genomePath != "" && params.SeedIndex != nil {
		if err := params.SeedIndex.ValidateGenome(g); err != nil {
			return err
		}
	}

	if cfg.bulge > 0 {
		sites, err := crisprscan.SearchBulge(g, guides, crisprscan.BulgeParams{
			MaxMismatches: cfg.k, MaxBulge: cfg.bulge, PAM: cfg.pam, PlusStrandOnly: cfg.plusOnly,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "guide\tchrom\tpos\tlen\tstrand\tmismatches\tbulges\tsite")
		for _, s := range sites {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%c\t%d\t%d\t%s\n",
				s.Guide, s.Chrom, s.Pos, s.Len, s.Strand, s.Mismatches, s.Bulges, s.SiteSeq)
		}
		if cfg.stats {
			logger.Info("bulge scan complete", "sites", len(sites), "bulge", cfg.bulge)
		}
		return nil
	}

	res, err := crisprscan.SearchContext(ctx, g, guides, params)
	if res == nil {
		return err
	}
	// A failed scan's Result still holds the sites of the chromosomes it
	// completed: write them, header first, before returning the error,
	// as -stream does.
	werr := writeSites(w, res.Sites, cfg.bed)
	if err != nil {
		return err
	}
	if werr != nil {
		return werr
	}
	if cfg.summary {
		if err := report.WriteSummary(os.Stderr, report.Summarize(res.Sites, len(guides)), cfg.k); err != nil {
			return err
		}
	}
	if cfg.stats {
		logStats(logger, len(res.Sites), &res.Stats)
	}
	return nil
}

// logStats writes the -stats report of a completed (or aborted) scan;
// batch and -stream runs share it. Extra attributes go on the "scan
// complete" line.
func logStats(logger *slog.Logger, sites int, st *crisprscan.Stats, extra ...any) {
	logger.Info("scan complete", append([]any{
		"sites", sites, "events", st.Events, "elapsed_sec", st.ElapsedSec}, extra...)...)
	if st.Metrics != nil {
		logger.Info("scan metrics", "metrics", st.Metrics.String())
	}
	if st.Modeled != nil {
		logger.Info("modeled device time", "modeled", st.Modeled.String())
	}
	if st.Resources != nil {
		r := st.Resources
		logger.Info("device resources",
			"states", r.States, "passes", r.Passes, "utilization", r.Utilization())
	}
}

// runStream executes the constant-memory streaming mode: rows are
// written from the yield callback as each chromosome completes (never
// buffered genome-wide). With -checkpoint the rows go to outFile
// through the journal's exactly-once writer instead of w.
func runStream(ctx context.Context, cfg *config, guides []crisprscan.Guide, params crisprscan.Params, w *bufio.Writer, outFile *os.File, logger *slog.Logger) error {
	if cfg.bulge > 0 {
		return fmt.Errorf("-stream does not support -bulge")
	}
	if cfg.region != "" {
		return fmt.Errorf("-stream does not support -region")
	}
	var f *os.File
	if cfg.genomePath != "" {
		var err error
		f, err = os.Open(cfg.genomePath)
		if err != nil {
			return err
		}
		defer f.Close()
	}

	count := 0
	ctrl := &crisprscan.StreamControl{
		ChromDone: func(name string, sites int, scannedBases int64) error {
			count += sites
			logger.Debug("chromosome complete",
				"chrom", name, "sites", sites, "scanned_bases", scannedBases)
			return nil
		},
	}
	var st *crisprscan.Stats
	var err error
	if cfg.ckptPath != "" {
		st, err = crisprscan.SearchStreamCheckpoint(ctx, f, guides, params, ctrl, cfg.ckptPath, outFile, cfg.bed)
	} else {
		if !cfg.bed {
			if err := crisprscan.WriteSitesTSVHeader(w); err != nil {
				return err
			}
		}
		emit := func(s crisprscan.Site) error {
			if cfg.bed {
				return crisprscan.WriteSiteBED(w, s)
			}
			return crisprscan.WriteSiteTSV(w, s)
		}
		if f != nil {
			st, err = crisprscan.SearchStreamContext(ctx, f, guides, params, ctrl, emit)
		} else {
			// -index without -genome: drive the same streaming pipeline
			// from the reference reconstructed out of the index.
			endLoad := params.Metrics.StartPhase(metrics.PhaseLoad)
			g := params.SeedIndex.Genome()
			endLoad()
			st, err = crisprscan.SearchGenomeStreamContext(ctx, g, guides, params, ctrl, emit)
		}
	}
	if cfg.stats && st != nil {
		logStats(logger, count, st, "streamed", true)
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if cfg.ckptPath != "" {
				return fmt.Errorf("%w (progress saved; rerun the same command to resume from %s)", err, cfg.ckptPath)
			}
		}
		return err
	}
	return nil
}

// bulgeIgnores names the first flag set that the -bulge search would
// ignore, or "" when there is none.
func bulgeIgnores(cfg *config) string {
	for _, f := range []struct {
		name string
		set  bool
	}{
		{"-engine", cfg.engineName != "" && cfg.engineName != string(crisprscan.EngineHyperscan)},
		{"-alt-pam", cfg.altPAM != ""},
		{"-region", cfg.region != ""},
		{"-bed", cfg.bed},
		{"-summary", cfg.summary},
		{"-workers", cfg.workers > 1},
		{"-timeout", cfg.timeout != 0},
	} {
		if f.set {
			return f.name
		}
	}
	return ""
}

// loadGuides reads guides from a file, a literal flag, or both.
func loadGuides(path, literal string) ([]crisprscan.Guide, error) {
	var guides []crisprscan.Guide
	if literal != "" {
		guides = append(guides, crisprscan.Guide{Name: "guide", Spacer: literal})
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		lineNo := 0
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			fields := strings.Fields(line)
			switch len(fields) {
			case 1:
				guides = append(guides, crisprscan.Guide{Name: fmt.Sprintf("g%d", len(guides)), Spacer: fields[0]})
			case 2:
				guides = append(guides, crisprscan.Guide{Name: fields[0], Spacer: fields[1]})
			default:
				return nil, fmt.Errorf("%s:%d: expected 'spacer' or 'name spacer'", path, lineNo)
			}
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	if len(guides) == 0 {
		return nil, fmt.Errorf("no guides given (use -guides or -guide)")
	}
	return guides, nil
}

// writeSites emits sites in TSV or BED form.
func writeSites(w *bufio.Writer, sites []crisprscan.Site, bed bool) error {
	if bed {
		return crisprscan.WriteSitesBED(w, sites)
	}
	return crisprscan.WriteSitesTSV(w, sites)
}
