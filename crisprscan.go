// Package crisprscan finds potential CRISPR/Cas9 gRNA off-target sites
// in a reference genome using automata processing, reproducing the
// system of Bo, Dang, Sadredini & Skadron, "Searching for Potential
// gRNA Off-Target Sites for CRISPR/Cas9 Using Automata Processing
// Across Different Platforms" (HPCA 2018).
//
// The search compiles each guide into a Hamming-lattice nondeterministic
// finite automaton (protospacer with up to K mismatches, followed by an
// exactly matched PAM, both strands) and executes it on a selectable
// platform: measured CPU engines (the HyperScan-class bit-parallel
// engine and the Cas-OFFinder/CasOT baselines) or modeled accelerators
// (Micron AP, FPGA overlay, iNFAnt2-style GPU). Every engine that
// accepts the guides returns the identical site set; they differ only
// in performance. Cas-OFFinder refuses partially degenerate spacer
// positions and spacers over 32 nt. Every engine also honors
// cancellation the same way: the ctx-taking searches stop within one
// 64 Ki-position chunk of a cancel or deadline, on any engine.
//
// Params, Result and BulgeParams are the orchestrator's own types under
// public names, so their fields are documented in one place.
//
// Quick start:
//
//	g, _ := crisprscan.LoadGenome("genome.fa")
//	guides := []crisprscan.Guide{{Name: "g1", Spacer: "GGGTGGGGGGAGTTTGCTCC"}}
//	res, _ := crisprscan.Search(g, guides, crisprscan.Params{MaxMismatches: 3})
//	for _, site := range res.Sites {
//		fmt.Println(site.Chrom, site.Pos, site.Strand, site.Mismatches)
//	}
package crisprscan

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/cap-repro/crisprscan/internal/checkpoint"
	"github.com/cap-repro/crisprscan/internal/core"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fasta"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/report"
	"github.com/cap-repro/crisprscan/internal/seedindex"
)

// Genome is a loaded reference genome.
type Genome = genome.Genome

// Site is one resolved off-target site; see the fields' documentation
// in the report package.
type Site = report.Site

// BulgeSite is one bulge-tolerant site.
type BulgeSite = core.BulgeSite

// Stats describes a search execution (wall-clock, event counts, the
// instrumentation snapshot in Stats.Metrics and, for modeled
// accelerator platforms, the device-time breakdown).
type Stats = core.Stats

// MetricsRecorder accumulates instrumentation for one or more searches:
// per-phase timers, event counters, the chunk-latency sketch and
// optional trace spans. Construct with NewMetricsRecorder, attach via
// Params.Metrics, and read results from Stats.Metrics (or call Snapshot
// directly, e.g. mid-scan from another goroutine).
type MetricsRecorder = metrics.Recorder

// MetricsSnapshot is the immutable instrumentation record carried by
// Stats.Metrics; all fields serialize to stable JSON.
type MetricsSnapshot = metrics.Snapshot

// Tracer records an instrumented search's span tree: phases,
// per-chromosome scans and worker chunks. Attach one with
// MetricsRecorder.SetTracer; after the search, WriteChrome renders it
// in the Chrome trace-event JSON format (chrome://tracing, Perfetto,
// speedscope) and Tree as a nested span tree. It keeps at most 4096
// spans unless SetMaxSpans lifts the budget.
type Tracer = metrics.SpanTracer

// NewMetricsRecorder returns an empty metrics recorder.
func NewMetricsRecorder() *MetricsRecorder { return metrics.NewRecorder() }

// ProgressTracker follows a scan's advance through the genome for live
// operational telemetry: bytes scanned versus total, per-chromosome
// completion, EWMA throughput and ETA. Attach one via Params.Progress
// and call Snapshot from any goroutine while the scan runs; successive
// snapshots have non-decreasing Fraction, reaching exactly 1.0 when
// the scan completes.
type ProgressTracker = metrics.Progress

// ProgressSnapshot is one immutable view of a ProgressTracker.
type ProgressSnapshot = metrics.ProgressSnapshot

// NewProgressTracker returns an idle progress tracker.
func NewProgressTracker() *ProgressTracker { return metrics.NewProgress() }

// NewTracer starts a trace with a fresh trace identity and a root span
// named "scan".
func NewTracer() *Tracer {
	return metrics.NewSpanTracer(metrics.NewTraceID(), "scan", metrics.SpanID{})
}

// Engine selects the execution platform.
type Engine = core.EngineKind

// The available engines: the paper's six systems plus variants.
const (
	// EngineHyperscan is the measured CPU automata engine (default). It
	// runs the literal-prefilter hybrid path, or the bitap automaton
	// when the guides do not fit the prefilter (a spacer over 32 nt or
	// a partially degenerate spacer position); Stats.Engine names the
	// path that ran.
	EngineHyperscan = core.EngineHyperscan
	// EngineHyperscanNFA runs its bitset-NFA execution path, the
	// reference oracle.
	EngineHyperscanNFA = core.EngineHyperscanNFA
	// EngineCasOffinder is the brute-force baseline (measured, CPU);
	// EngineCasOffinderGPU is its analytic GPU timing model.
	EngineCasOffinder    = core.EngineCasOffinder
	EngineCasOffinderGPU = core.EngineCasOffinderGPU
	// EngineCasOT is the single-thread seed-region baseline.
	EngineCasOT = core.EngineCasOT
	// EngineSeedIndex is the pigeonhole seed-index engine: attach a
	// persistent index via Params.SeedIndex (index once, query
	// millions), or let it self-index per chromosome when none is set.
	EngineSeedIndex = core.EngineSeedIndex
	// EngineAP, EngineFPGA and EngineInfant are the modeled
	// accelerator platforms. Every modeled engine runs the
	// EngineHyperscan scan and prices it with its device cost model
	// (Stats.Modeled, Stats.Resources).
	EngineAP     = core.EngineAP
	EngineFPGA   = core.EngineFPGA
	EngineInfant = core.EngineInfant
)

// Guide is one gRNA: a protospacer sequence (typically 20 nt, 5'→3',
// PAM-adjacent end last). IUPAC N is allowed (it matches anything and
// never counts as a mismatch).
type Guide struct {
	Name   string
	Spacer string
}

// Params configures a search. The zero value searches both strands
// for NGG sites with zero mismatches on the default CPU engine; see the
// fields' documentation in the core package.
type Params = core.Params

// Result is a completed search: verified sites plus execution stats.
type Result = core.Result

// LoadGenome reads a (multi-)FASTA reference genome from a file.
func LoadGenome(path string) (*Genome, error) { return genome.LoadFasta(path) }

// ReadGenome reads FASTA from a stream.
func ReadGenome(r io.Reader) (*Genome, error) {
	recs, err := fasta.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return genome.FromFasta(recs)
}

// SeedIndex is a persistent genome seed index: the packed 2-bit
// sequence plus one genome-wide k-mer table with per-seed posting lists, built
// once offline and shared across every scan of that reference (the
// index-once, query-millions shape). Build with BuildSeedIndex or the
// genomeindex CLI, persist with WriteFile, reload with LoadSeedIndex,
// and attach via Params.SeedIndex with Params.Engine = EngineSeedIndex.
// The indexed engine is hit-for-hit identical to the full-scan engines:
// candidates are always re-verified against the live sequence, and
// content hashes (ValidateGenome) detect a reference edited after
// indexing.
type SeedIndex = seedindex.Index

// BuildSeedIndex constructs the seed index for a loaded genome.
// seedLen 0 selects the default seed width; widths run 4..12, and the
// genome may total at most 2^32-1 bases.
func BuildSeedIndex(g *Genome, seedLen int) (*SeedIndex, error) {
	return seedindex.Build(g, seedLen)
}

// LoadSeedIndex opens a genomeindex-built index file. It checks the
// magic, version, TOC and sequence checksums here, so a damaged or
// version-skewed file fails closed before any scan; the seed table is
// read as queries need it, and each block is checked against its
// checksum before use, so damage there fails the query that reads it.
// SeedIndex.Verify proves the whole file up front. The index keeps the
// file open: call Close when done with it.
func LoadSeedIndex(path string) (*SeedIndex, error) {
	return seedindex.Load(path)
}

// SynthConfig re-exports the synthetic-genome generator configuration.
type SynthConfig = genome.SynthConfig

// SynthesizeGenome generates a deterministic random genome, the
// substitute for distributing a multi-gigabase reference (DESIGN.md).
func SynthesizeGenome(cfg SynthConfig) *Genome { return genome.Synthesize(cfg) }

// SampleGuides extracts n spacers of the given length that occur in the
// genome immediately 5' of a PAM site — the way real gRNAs are designed
// against on-target loci. It returns an error if the genome is too
// small to supply n guides.
func SampleGuides(g *Genome, n, spacerLen int, pamStr string, seed int64) ([]Guide, error) {
	pam, err := dna.ParsePattern(pamStr)
	if err != nil {
		return nil, err
	}
	raw := genome.SampleGuides(g, n, spacerLen, pam, seed)
	if len(raw) < n {
		return nil, fmt.Errorf("crisprscan: only %d/%d guides could be sampled", len(raw), n)
	}
	guides := make([]Guide, n)
	for i, r := range raw {
		guides[i] = Guide{Name: fmt.Sprintf("g%d", i), Spacer: r.String()}
	}
	return guides, nil
}

// parseGuides validates and converts guides.
func parseGuides(guides []Guide) ([]dna.Pattern, error) {
	if len(guides) == 0 {
		return nil, fmt.Errorf("crisprscan: no guides")
	}
	pats := make([]dna.Pattern, len(guides))
	for i, g := range guides {
		p, err := dna.ParsePattern(g.Spacer)
		if err != nil {
			return nil, fmt.Errorf("crisprscan: guide %q: %w", g.Name, err)
		}
		if len(p) != len(pats[0]) && i > 0 {
			return nil, fmt.Errorf("crisprscan: guide %q length %d differs from guide 0 (%d)", g.Name, len(p), len(pats[0]))
		}
		pats[i] = p
	}
	return pats, nil
}

// Search finds every genomic site matching any guide within the
// mismatch budget, PAM-adjacent, on the selected engine. Sites are
// verified against the sequence, deduplicated and sorted.
func Search(g *Genome, guides []Guide, p Params) (*Result, error) {
	return SearchContext(context.Background(), g, guides, p)
}

// SearchContext is Search bounded by ctx: the scan honors cancellation
// and deadlines between chromosomes, and, on every engine, at chunk
// granularity inside a chromosome, so even a single-chromosome
// multi-gigabase scan aborts promptly. On
// cancellation the returned Result is non-nil and holds the sites and
// stats accumulated before the abort, and the error wraps
// context.Canceled or context.DeadlineExceeded (test with errors.Is).
func SearchContext(ctx context.Context, g *Genome, guides []Guide, p Params) (*Result, error) {
	pats, err := parseGuides(guides)
	if err != nil {
		return nil, err
	}
	return core.SearchContext(ctx, g, pats, p)
}

// BulgeParams configures SearchBulge; see the fields' documentation in
// the core package.
type BulgeParams = core.BulgeParams

// SearchBulge finds bulge-tolerant off-target sites using the
// edit-distance automata (the paper's extension experiment). It always
// runs on the automata simulation engine.
func SearchBulge(g *Genome, guides []Guide, p BulgeParams) ([]BulgeSite, error) {
	pats, err := parseGuides(guides)
	if err != nil {
		return nil, err
	}
	return core.SearchBulge(g, pats, p)
}

// WriteSitesTSV writes sites in a Cas-OFFinder-like TSV layout.
func WriteSitesTSV(w io.Writer, sites []Site) error { return report.WriteTSV(w, sites) }

// WriteSitesBED writes sites as BED6 intervals.
func WriteSitesBED(w io.Writer, sites []Site) error { return report.WriteBED(w, sites) }

// WriteSitesTSVHeader writes the TSV column header; pair it with
// WriteSiteTSV to emit rows incrementally from a SearchStream yield
// callback (constant memory, byte-identical to WriteSitesTSV).
func WriteSitesTSVHeader(w io.Writer) error { return report.WriteTSVHeader(w) }

// WriteSiteTSV writes one site as a TSV row.
func WriteSiteTSV(w io.Writer, s Site) error { return report.WriteTSVRow(w, s) }

// WriteSiteBED writes one site as a BED6 row.
func WriteSiteBED(w io.Writer, s Site) error { return report.WriteBEDRow(w, s) }

// SearchStream scans a FASTA stream one chromosome at a time, keeping
// memory proportional to the largest chromosome — the mode a full
// 3.1 Gbp reference requires. Verified sites are delivered to yield as
// each chromosome completes; returning an error from yield aborts the
// scan.
func SearchStream(r io.Reader, guides []Guide, p Params, yield func(Site) error) (*Stats, error) {
	return SearchStreamContext(context.Background(), r, guides, p, nil, yield)
}

// StreamControl customizes a streaming search for checkpoint/resume;
// see the core package's documentation of the identical type. A nil
// control streams every chromosome with no completion hook.
type StreamControl = core.StreamControl

// SearchStreamContext is SearchStream bounded by ctx and tunable with
// ctrl. Every site delivered to yield belongs to a fully completed
// chromosome: a chromosome aborted mid-scan (cancellation, engine
// fault) yields nothing, which is what makes chromosome-granularity
// checkpointing sound. On any error after startup the returned Stats
// is non-nil and describes the work completed before the failure; the
// error wraps its cause (context.Canceled, the reader's error, ...).
func SearchStreamContext(ctx context.Context, r io.Reader, guides []Guide, p Params, ctrl *StreamControl, yield func(Site) error) (*Stats, error) {
	pats, err := parseGuides(guides)
	if err != nil {
		return nil, err
	}
	return core.SearchStreamContext(ctx, r, pats, p, ctrl, yield)
}

// SearchGenomeStreamContext runs the streaming-shaped search over an
// already-loaded genome: chromosomes are visited in genome order
// through the identical per-chromosome pipeline as SearchStreamContext,
// so the two produce byte-identical output for the same reference. A
// long-lived service uses it to keep one parsed genome resident and
// share it across concurrent (checkpointed) scans instead of re-reading
// multi-gigabyte FASTA per request.
func SearchGenomeStreamContext(ctx context.Context, g *Genome, guides []Guide, p Params, ctrl *StreamControl, yield func(Site) error) (*Stats, error) {
	pats, err := parseGuides(guides)
	if err != nil {
		return nil, err
	}
	return core.SearchGenomeStreamContext(ctx, g, pats, p, ctrl, yield)
}

// FingerprintParams renders the checkpoint identity of a (guides,
// params) combination: every knob that changes the produced site set
// participates, so two searches fingerprint equal exactly when their
// outputs are interchangeable.
func FingerprintParams(guides []Guide, p Params) string {
	spacers := make([]string, len(guides))
	for i, g := range guides {
		spacers[i] = strings.ToUpper(g.Spacer)
	}
	eng := p.Engine
	if eng == "" {
		eng = EngineHyperscan
	}
	pam := p.PAM
	if pam == "" {
		pam = "NGG"
	}
	alts := append([]string(nil), p.AltPAMs...)
	fields := checkpoint.CanonicalFields(spacers, map[string]string{
		"k":        strconv.Itoa(p.MaxMismatches),
		"pam":      strings.ToUpper(pam),
		"altpams":  strings.ToUpper(strings.Join(alts, ",")),
		"pam5":     strconv.FormatBool(p.PAM5),
		"plusonly": strconv.FormatBool(p.PlusStrandOnly),
		"engine":   string(eng),
		"seed":     strconv.Itoa(p.SeedLen) + "/" + strconv.Itoa(p.MaxSeedMismatches),
	})
	return checkpoint.Fingerprint(fields...)
}

// SearchStreamCheckpoint is SearchStreamContext with chromosome-
// granularity checkpoint/resume journaled at path, writing the sites to
// out as TSV (or BED6 when bed is set) exactly once. Chromosomes the
// journal already lists are skipped. Completed chromosomes are
// group-committed: at the first one, then at most about once a second,
// and always before the call returns, whether it fails or not. A
// commit flushes the rows and, for a file, syncs them, then journals
// each chromosome since the last commit with the output size at its
// last row; a resume cuts a file back to the last journaled size first,
// so rows a crash left past it are re-emitted, not duplicated. A kill -9
// re-scans at most about a second of work plus the chromosome in
// flight. out must be the same file on every run, opened without
// truncation; a destination that cannot be truncated must hold exactly
// the committed bytes. A journal written under different guides or
// Params is rejected with a fingerprint error before any scanning
// starts. ctrl, when non-nil, may set ChromDone to observe each
// chromosome when it is recorded; it becomes durable at the next
// commit. The journal decides which chromosomes to skip, so
// ctrl.SkipChrom must be nil.
func SearchStreamCheckpoint(ctx context.Context, r io.Reader, guides []Guide, p Params, ctrl *StreamControl, path string, out io.Writer, bed bool) (*Stats, error) {
	if ctrl != nil && ctrl.SkipChrom != nil {
		return nil, fmt.Errorf("crisprscan: SearchStreamCheckpoint: the journal decides which chromosomes to skip")
	}
	j, err := checkpoint.Open(path, FingerprintParams(guides, p))
	if err != nil {
		return nil, err
	}
	var st *Stats
	_, err = j.Stream(out, bed, func(skip func(string) bool, commit func(string, int, int64) error, yield func(Site) error) error {
		done := commit
		if ctrl != nil && ctrl.ChromDone != nil {
			done = func(name string, sites int, scannedBases int64) error {
				if err := commit(name, sites, scannedBases); err != nil {
					return err
				}
				return ctrl.ChromDone(name, sites, scannedBases)
			}
		}
		var err error
		st, err = SearchStreamContext(ctx, r, guides, p, &StreamControl{SkipChrom: skip, ChromDone: done}, yield)
		return err
	})
	return st, err
}
