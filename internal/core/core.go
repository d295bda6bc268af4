// Package core orchestrates the off-target search: it expands guides
// into both-strand pattern specs, instantiates the requested execution
// engine, drives the scan across chromosomes, and resolves events into
// verified sites. A modeled accelerator platform runs the reference
// scan and adds its cost model, charged per chromosome. This is the
// layer the public crisprscan API wraps.
package core

import (
	"context"
	"errors"
	"fmt"

	"github.com/cap-repro/crisprscan/internal/ap"
	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/casoffinder"
	"github.com/cap-repro/crisprscan/internal/casot"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fpga"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/hscan"
	"github.com/cap-repro/crisprscan/internal/infant"
	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/report"
	"github.com/cap-repro/crisprscan/internal/seedindex"
)

// EngineKind selects the execution platform.
type EngineKind string

// The six systems of the paper's evaluation, plus auxiliary variants.
const (
	// EngineHyperscan is the measured CPU automata engine. It runs the
	// HyperScan-style literal-prefilter hybrid path, and the bitap
	// automaton when the guides do not fit the prefilter.
	EngineHyperscan EngineKind = "hyperscan"
	// EngineHyperscanNFA runs its bitset NFA simulator, the oracle.
	EngineHyperscanNFA EngineKind = "hyperscan-nfa"
	// EngineCasOffinder is the measured CPU form of the brute-force
	// baseline; EngineCasOffinderGPU is its analytic GPU timing model.
	EngineCasOffinder    EngineKind = "cas-offinder"
	EngineCasOffinderGPU EngineKind = "cas-offinder-gpu"
	// EngineCasOT is the measured single-thread baseline.
	EngineCasOT EngineKind = "casot"
	// EngineSeedIndex is the pigeonhole seed-index engine: bound to a
	// persistent genome index via Params.SeedIndex it queries candidate
	// loci instead of rescanning the genome; without one it
	// self-indexes per chromosome through the identical query path.
	EngineSeedIndex EngineKind = "seed-index"
	// EngineAP, EngineFPGA and EngineInfant are the modeled accelerator
	// platforms. Like EngineCasOffinderGPU they run the reference scan
	// (EngineHyperscan's engine) and report their cost model's device
	// time.
	EngineAP     EngineKind = "ap"
	EngineFPGA   EngineKind = "fpga"
	EngineInfant EngineKind = "infant2"
)

// AllEngines lists every selectable engine kind.
var AllEngines = []EngineKind{
	EngineHyperscan, EngineHyperscanNFA,
	EngineCasOffinder, EngineCasOffinderGPU,
	EngineCasOT,
	EngineSeedIndex,
	EngineAP, EngineFPGA, EngineInfant,
}

// Params configures a search; the public crisprscan.Params is this
// type. The zero value searches both strands for NGG sites with zero
// mismatches on the default CPU engine.
type Params struct {
	// MaxMismatches is the protospacer Hamming budget k (paper: 1-5).
	MaxMismatches int
	// PAM is the IUPAC PAM pattern (default "NGG"; "NRG" and "NAG" are
	// common alternatives).
	PAM string
	// AltPAMs lists additional accepted PAMs of the same length as PAM,
	// so one search can cover NGG and NAG sites simultaneously.
	AltPAMs []string
	// PAM5 selects Cas12a/Cpf1 geometry: the PAM sits 5' of the spacer
	// on the plus strand (e.g. PAM "TTTV"). Default is Cas9's 3' PAM.
	PAM5 bool
	// Region restricts an in-memory search to "chrom" or
	// "chrom:start-end" (0-based half-open). Only windows entirely
	// inside the region are reported; positions stay in full-chromosome
	// coordinates. The streaming searches ignore it.
	Region string
	// PlusStrandOnly restricts the search to the forward strand (both
	// strands is the default and the paper's setting).
	PlusStrandOnly bool
	// Engine selects the platform (default EngineHyperscan).
	Engine EngineKind
	// Workers widens the data-parallel engines (default 1, matching the
	// paper's single-thread CPU baselines).
	Workers int
	// SeedLen and MaxSeedMismatches enable CasOT's seed-region
	// constraint. Both zero means no constraint (the seed budget is k),
	// the setting under which all engines return identical sites.
	SeedLen           int
	MaxSeedMismatches int
	// MergeStates and Stride2 toggle the spatial-platform optimizations
	// the paper proposes.
	MergeStates bool
	Stride2     bool
	// SeedIndex, when non-nil, binds EngineSeedIndex to a persistent
	// genome index (crisprscan.BuildSeedIndex or LoadSeedIndex, or
	// cmd/genomeindex), so a scan touches only candidate loci. The index
	// must describe the genome being scanned: validate one loaded from
	// disk with its ValidateGenome; a mismatched chromosome fails the
	// scan closed. Nil makes the engine self-index per chromosome. Other
	// engines ignore it.
	SeedIndex *seedindex.Index
	// Metrics, when non-nil, is the recorder the search reports into:
	// supply one to attach a Tracer or to aggregate several searches.
	// When nil a private recorder is created; either way the result's
	// Stats.Metrics carries the final snapshot.
	Metrics *metrics.Recorder
	// Progress, when non-nil, is advanced live as the search runs:
	// per-chunk byte counts from the worker pools, chromosome completion
	// from the orchestrator. In-memory searches set the exact
	// total-bytes denominator; streaming callers should supply an
	// estimate (e.g. the FASTA file size) via SetTotalBytes. Snapshot it
	// from another goroutine for live progress and ETA. Nil disables
	// tracking at the cost of one nil check per chunk.
	Progress *metrics.Progress
}

func (p *Params) defaults() {
	if p.PAM == "" {
		p.PAM = "NGG"
	}
	if p.Engine == "" {
		p.Engine = EngineHyperscan
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	if p.Metrics == nil {
		p.Metrics = metrics.NewRecorder()
	}
	// The worker pool only sees the recorder, so the progress tracker
	// rides on it (a nil tracker stays a no-op sink).
	p.Metrics.SetProgress(p.Progress)
}

// Stats describes one search execution.
type Stats struct {
	Engine string
	// ElapsedSec is measured wall-clock for the scan. For a modeled
	// platform it is the reference scan's time; the device time is in
	// Modeled.
	ElapsedSec float64
	// Events is the raw match-event count before deduplication.
	Events int
	// BytesScanned is the total number of reference bases streamed
	// through the engine (the throughput denominator in tables).
	BytesScanned int
	// Modeled holds the analytic device-time breakdown for modeled
	// platforms (nil for measured engines).
	Modeled *arch.Breakdown
	// Resources holds spatial resource usage for modeled platforms.
	Resources *arch.ResourceUsage
	// Metrics is the instrumentation snapshot for this execution:
	// per-phase timings, event counters and the chunk-latency sketch
	// (see metrics.Snapshot). Populated on every Search* result; when
	// the caller supplied Params.Metrics, the snapshot covers everything
	// that recorder accumulated, including prior searches.
	Metrics *metrics.Snapshot
}

// Result is a completed search: verified sites plus execution stats.
type Result struct {
	Sites []report.Site
	Stats Stats
}

// BuildSpecs expands guides into engine pattern specs: one plus-strand
// spec per guide and, unless plusOnly, one minus-strand spec whose
// window is the reverse complement with the PAM side flipped. Codes
// follow report.CodeFor.
func BuildSpecs(guides []dna.Pattern, pam dna.Pattern, k int, plusOnly bool) []arch.PatternSpec {
	return BuildSpecsOriented(guides, pam, k, plusOnly, false)
}

// BuildSpecsOriented is BuildSpecs with a selectable plus-strand PAM
// side: pam5 = true compiles Cas12a-style patterns whose PAM precedes
// the spacer.
func BuildSpecsOriented(guides []dna.Pattern, pam dna.Pattern, k int, plusOnly, pam5 bool) []arch.PatternSpec {
	var specs []arch.PatternSpec
	for gi, g := range guides {
		plus := arch.PatternSpec{Spacer: g, PAM: pam, PAMLeft: pam5, K: k, Code: report.CodeFor(gi, '+')}
		specs = append(specs, plus)
		if !plusOnly {
			specs = append(specs, plus.MinusSpec(report.CodeFor(gi, '-')))
		}
	}
	return specs
}

// NewEngine instantiates the requested engine for the spec set. A
// modeled kind gets the reference engine, EngineHyperscan's; its cost
// model comes from newModel. That engine is the hscan prefilter, or
// the bitap automaton when the set does not fit the prefilter.
func NewEngine(kind EngineKind, specs []arch.PatternSpec, p Params) (arch.Engine, error) {
	switch kind {
	case EngineHyperscan, EngineHyperscanNFA,
		EngineCasOffinderGPU, EngineAP, EngineFPGA, EngineInfant:
		mode := hscan.ModePrefilter
		if kind == EngineHyperscanNFA {
			mode = hscan.ModeNFA
		}
		e, err := hscan.New(specs, mode)
		if fitErr := err; errors.Is(fitErr, hscan.ErrPrefilterFit) {
			e, err = hscan.New(specs, hscan.ModeBitap)
			if err != nil {
				err = fmt.Errorf("%w; bitap fallback: %w", fitErr, err)
			}
		}
		if err != nil {
			return nil, err
		}
		e.Parallelism = p.Workers
		return e, nil
	case EngineCasOffinder:
		return casoffinder.New(specs, p.Workers)
	case EngineCasOT:
		opt := casot.Options{SeedLen: p.SeedLen, MaxSeedMismatches: p.MaxSeedMismatches}
		if opt.SeedLen == 0 {
			// No seed constraint: budgets equal the total budget so the
			// constraint is inert.
			opt.MaxSeedMismatches = p.MaxMismatches
		}
		return casot.New(specs, opt)
	case EngineSeedIndex:
		e, err := seedindex.New(specs, p.SeedIndex, seedindex.Options{})
		if err != nil {
			return nil, err
		}
		e.Workers = p.Workers
		return e, nil
	}
	return nil, fmt.Errorf("core: unknown engine %q", kind)
}

// newModel returns the cost model of a modeled kind, and nil for a
// measured engine.
func newModel(kind EngineKind, specs []arch.PatternSpec, p Params) (arch.Modeled, error) {
	switch kind {
	case EngineCasOffinderGPU:
		return casoffinder.NewGPUModel(specs, casoffinder.DefaultGPU)
	case EngineAP:
		return ap.Compile(specs, ap.Options{MergeStates: p.MergeStates, Stride2: p.Stride2})
	case EngineFPGA:
		return fpga.Compile(specs, fpga.Options{MergeStates: p.MergeStates, Stride2: p.Stride2})
	case EngineInfant:
		return infant.Compile(specs, infant.Options{MergeStates: p.MergeStates})
	}
	return nil, nil
}

// engineHook, when non-nil, wraps the freshly built engine before any
// scanning begins. Tests use it to splice fault-injecting engines into
// the orchestrator; production code must leave it nil.
var engineHook func(arch.Engine) arch.Engine

// search is the state one search carries across chromosomes. Every
// entry point shares it: SearchContext scans into one collector for
// the whole genome, the streaming entry points into one per chromosome.
type search struct {
	engine   arch.Engine
	model    arch.Modeled // nil for a measured engine
	resolver *report.Resolver
	rec      *metrics.Recorder
	prog     *metrics.Progress
	stats    Stats
	// events buffers one chromosome's scan events for the verify loop;
	// chrom reuses it across chromosomes.
	events []automata.Report
}

// newSearch validates params, builds the engine, cost model and
// resolver, and charges the compile phase (plus, for a modeled kind,
// the model's one-time compile step).
func newSearch(guides []dna.Pattern, p *Params) (*search, error) {
	swCompile := metrics.NewStopwatch()
	endCompile := p.Metrics.TraceSpan("compile")
	s, err := prepare(guides, p)
	endCompile()
	if err != nil {
		return nil, err
	}
	s.rec.AddPhaseNanos(metrics.PhaseCompile, swCompile.ElapsedNanos())
	if s.model != nil {
		s.rec.SetModeledSeconds("compile", s.model.EstimateBreakdown(0, 0).Compile)
	}
	return s, nil
}

// prepare validates params and builds the engine, cost model and
// resolver; newSearch times it as the compile phase.
func prepare(guides []dna.Pattern, p *Params) (*search, error) {
	p.defaults()
	if len(guides) == 0 {
		return nil, fmt.Errorf("core: no guides")
	}
	pam, err := dna.ParsePattern(p.PAM)
	if err != nil {
		return nil, err
	}
	if p.MaxMismatches < 0 || p.MaxMismatches > len(guides[0]) {
		return nil, fmt.Errorf("core: mismatch budget %d out of range", p.MaxMismatches)
	}
	pams := []dna.Pattern{pam}
	for _, alt := range p.AltPAMs {
		ap, err := dna.ParsePattern(alt)
		if err != nil {
			return nil, err
		}
		if len(ap) != len(pam) {
			return nil, fmt.Errorf("core: alternative PAM %s length differs from %s", alt, p.PAM)
		}
		pams = append(pams, ap)
	}
	var specs []arch.PatternSpec
	for _, pm := range pams {
		specs = append(specs, BuildSpecsOriented(guides, pm, p.MaxMismatches, p.PlusStrandOnly, p.PAM5)...)
	}
	engine, err := NewEngine(p.Engine, specs, *p)
	if err != nil {
		return nil, err
	}
	model, err := newModel(p.Engine, specs, *p)
	if err != nil {
		return nil, err
	}
	// Install the recorder before any test hook wraps the engine: a
	// fault-injection wrapper must not hide the Instrumented interface.
	arch.SetMetrics(engine, p.Metrics)
	if engineHook != nil {
		engine = engineHook(engine)
	}
	resolver, err := report.NewResolverOriented(guides, p.PAM5, pams...)
	if err != nil {
		return nil, err
	}
	resolver.MaxMismatches = p.MaxMismatches
	name := engine.Name()
	if model != nil {
		name = model.Name()
	}
	return &search{
		engine:   engine,
		model:    model,
		resolver: resolver,
		rec:      p.Metrics,
		prog:     p.Progress,
		//crisprlint:allow statsdiscipline accumulated across methods: Events and BytesScanned in chrom, ElapsedSec in finish
		stats: Stats{Engine: name},
	}, nil
}

// chrom is the one per-chromosome step every entry point runs: it scans c
// into col, the caller's collector, and charges prefilter and verify
// time, bytes and events and, for a modeled kind, the model's transfer,
// kernel and report time. It marks the chromosome started; the caller
// marks it finished once done with its sites.
//
// The scan only buffers its events; one loop after it verifies them
// into col, so the clock is read per phase rather than per event. An
// aborted scan verifies nothing.
func (s *search) chrom(ctx context.Context, c *genome.Chromosome, col *report.Collector) error {
	s.prog.StartChrom(c.Name, int64(len(c.Seq)))
	endSpan := s.rec.TraceSpan("scan " + c.Name)
	s.events = s.events[:0]
	swScan := metrics.NewStopwatch()
	err := arch.ScanChrom(ctx, s.engine, c, func(r automata.Report) {
		s.events = append(s.events, r)
	})
	scanNs := swScan.ElapsedNanos()
	events := len(s.events)
	s.stats.Events += events
	var verifyNs int64
	if err == nil {
		swVerify := metrics.NewStopwatch()
		for _, ev := range s.events {
			if err = col.Add(c, ev); err != nil {
				break
			}
		}
		verifyNs = swVerify.ElapsedNanos()
	}
	endSpan()
	if err != nil {
		return fmt.Errorf("core: chromosome %s: %w", c.Name, err)
	}
	s.rec.AddPhaseNanos(metrics.PhasePrefilter, scanNs)
	s.rec.AddPhaseNanos(metrics.PhaseVerify, verifyNs)
	// Bytes are counted here, per completed chromosome — never per
	// chunk, where overlap regions would double-count (see the
	// accounting regression tests).
	s.stats.BytesScanned += len(c.Seq)
	s.rec.Add(metrics.CounterBytesScanned, int64(len(c.Seq)))
	if s.model != nil {
		b := s.model.EstimateBreakdown(len(c.Seq), events)
		s.rec.AddModeledSeconds("transfer", b.Transfer)
		s.rec.AddModeledSeconds("kernel", b.Kernel)
		s.rec.AddModeledSeconds("report", b.Report)
	}
	return nil
}

// finish stamps the elapsed time, the modeled breakdown and resources
// (modeled kinds only) and the metrics snapshot onto the stats.
func (s *search) finish(start metrics.Stopwatch) *Stats {
	s.stats.ElapsedSec = start.Seconds()
	if s.model != nil {
		b := s.model.EstimateBreakdown(s.stats.BytesScanned, s.stats.Events)
		r := s.model.Resources()
		s.stats.Modeled, s.stats.Resources = &b, &r
	}
	s.stats.Metrics = s.rec.Snapshot()
	return &s.stats
}

// Search runs the full pipeline and returns verified, deduplicated,
// sorted sites. It is the ctx-less compatibility wrapper around
// SearchContext — the one place a background context enters the
// pipeline (see the ctxflow analyzer).
func Search(g *genome.Genome, guides []dna.Pattern, p Params) (*Result, error) {
	return SearchContext(context.Background(), g, guides, p)
}

// SearchContext is Search bounded by ctx. Cancellation and deadlines
// are honored between chromosomes here, and inside every engine at
// least every arch.DefaultChunk positions (the arch.Engine contract).
// On cancellation the returned Result is non-nil and carries the sites
// and stats of the chromosomes completed before the abort, alongside an
// error wrapping context.Canceled / context.DeadlineExceeded.
func SearchContext(ctx context.Context, g *genome.Genome, guides []dna.Pattern, p Params) (*Result, error) {
	s, err := newSearch(guides, &p)
	if err != nil {
		return nil, err
	}
	offset := 0
	if p.Region != "" {
		region, err := ParseRegion(p.Region)
		if err != nil {
			return nil, err
		}
		g, offset, err = region.Slice(g)
		if err != nil {
			return nil, err
		}
	}
	col := report.NewCollector(s.resolver)
	if s.prog.TotalBytes() == 0 {
		// In-memory searches know the exact denominator (after region
		// slicing); don't override a caller-supplied estimate.
		s.prog.SetTotalBytes(int64(g.TotalLen()))
	}
	s.prog.SetChromCount(len(g.Chroms))
	start := metrics.NewStopwatch()
	var scanErr error
	for ci := range g.Chroms {
		c := &g.Chroms[ci]
		if err := ctx.Err(); err != nil {
			scanErr = fmt.Errorf("core: search canceled after %d/%d chromosomes: %w", ci, len(g.Chroms), err)
			break
		}
		if scanErr = s.chrom(ctx, c, col); scanErr != nil {
			break
		}
		s.prog.FinishChrom(c.Name)
	}
	if scanErr == nil {
		s.prog.Finish()
	}
	// On failure the Result still carries the sites and stats of the
	// chromosomes completed before it.
	endReport := s.rec.StartPhase(metrics.PhaseReport)
	sites := col.Sites()
	if offset != 0 {
		for i := range sites {
			sites[i].Pos += offset
		}
	}
	endReport()
	s.rec.Add(metrics.CounterSitesEmitted, int64(len(sites)))
	return &Result{Sites: sites, Stats: *s.finish(start)}, scanErr
}
