package core

import (
	"context"
	"fmt"
	"io"

	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fasta"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/report"
)

// StreamControl customizes SearchStreamContext for checkpoint/resume.
// The zero value (or a nil pointer) streams every chromosome with no
// completion hook.
type StreamControl struct {
	// SkipChrom, when non-nil, is consulted per chromosome: returning
	// true means the chromosome is already complete (a resumed run) —
	// it is parsed and duplicate-checked but neither scanned, counted in
	// stats, nor yielded.
	SkipChrom func(name string) bool
	// ChromDone, when non-nil, runs after every non-skipped chromosome's
	// sites have all been yielded: name, the number of sites the
	// chromosome produced, and the cumulative reference bases scanned so
	// far (Stats.BytesScanned at that point). Returning an error aborts
	// the stream. Checkpoint journaling hangs off this hook: the
	// checkpointed searches record each chromosome here and make it
	// durable at their next group commit, always before they return.
	ChromDone func(name string, sites int, scannedBases int64) error
}

// SearchStream runs the search over a FASTA stream one chromosome at a
// time, so memory stays proportional to the largest chromosome rather
// than the whole genome — the mode a 3.1 Gbp reference requires. Sites
// are emitted to the callback per chromosome (verified and
// deduplicated within the chromosome); stats are returned at the end.
// It is the ctx-less compatibility wrapper around SearchStreamContext.
func SearchStream(r io.Reader, guides []dna.Pattern, p Params, yield func(report.Site) error) (*Stats, error) {
	return SearchStreamContext(context.Background(), r, guides, p, nil, yield)
}

// newStreamSearch is newSearch for the two streaming entry points, which
// also need a yield callback and a (possibly empty) StreamControl.
func newStreamSearch(guides []dna.Pattern, p *Params, ctrl *StreamControl, yield func(report.Site) error) (*search, *StreamControl, error) {
	if yield == nil {
		return nil, nil, fmt.Errorf("core: nil yield callback")
	}
	if ctrl == nil {
		ctrl = &StreamControl{}
	}
	s, err := newSearch(guides, p)
	return s, ctrl, err
}

// streamChrom runs the shared step over one chromosome into its own
// collector, yields the chromosome's verified sites, and fires the
// ChromDone hook. Every site delivered belongs to a fully completed
// chromosome: an aborted scan yields nothing, which is what makes
// chromosome-granularity checkpointing sound.
func (s *search) streamChrom(ctx context.Context, chrom *genome.Chromosome, ctrl *StreamControl, yield func(report.Site) error) error {
	col := report.NewCollector(s.resolver)
	if err := s.chrom(ctx, chrom, col); err != nil {
		return err
	}
	endReport := s.rec.StartPhase(metrics.PhaseReport)
	sites := col.Sites()
	for _, site := range sites {
		if err := yield(site); err != nil {
			endReport()
			return fmt.Errorf("core: yield on %s: %w", chrom.Name, err)
		}
	}
	endReport()
	s.rec.Add(metrics.CounterSitesEmitted, int64(len(sites)))
	if ctrl.ChromDone != nil {
		if err := ctrl.ChromDone(chrom.Name, len(sites), int64(s.stats.BytesScanned)); err != nil {
			return fmt.Errorf("core: completing %s: %w", chrom.Name, err)
		}
	}
	s.prog.FinishChrom(chrom.Name)
	return nil
}

// SearchStreamContext is SearchStream bounded by ctx and tunable with
// ctrl. Cancellation is honored between chromosomes here and at chunk
// granularity inside the data-parallel engines; an aborted
// chromosome yields no sites, so every site delivered to yield belongs
// to a fully completed chromosome. On any error the returned Stats is
// non-nil and describes the work completed before the failure.
func SearchStreamContext(ctx context.Context, r io.Reader, guides []dna.Pattern, p Params, ctrl *StreamControl, yield func(report.Site) error) (*Stats, error) {
	s, ctrl, err := newStreamSearch(guides, &p, ctrl, yield)
	if err != nil {
		return nil, err
	}
	fr := fasta.NewReader(r)
	start := metrics.NewStopwatch()
	seen := make(map[string]bool)
	for {
		if err := ctx.Err(); err != nil {
			return s.finish(start), fmt.Errorf("core: stream search canceled after %d chromosomes: %w", len(seen), err)
		}
		// The streaming pipeline decodes inside the measured region, so
		// FASTA parsing and sequence packing are charged to PhaseLoad.
		endLoad := s.rec.StartPhase(metrics.PhaseLoad)
		rec, err := fr.Next()
		if err == io.EOF {
			endLoad()
			break
		}
		if err != nil {
			endLoad()
			return s.finish(start), fmt.Errorf("core: reading genome stream: %w", err)
		}
		if seen[rec.ID] {
			endLoad()
			return s.finish(start), fmt.Errorf("core: duplicate chromosome %q in stream", rec.ID)
		}
		seen[rec.ID] = true
		if ctrl.SkipChrom != nil && ctrl.SkipChrom(rec.ID) {
			endLoad()
			continue
		}
		seq, packed := dna.Encode(rec.Seq)
		chrom := genome.Chromosome{Name: rec.ID, Seq: seq, Packed: packed}
		endLoad()
		if err := s.streamChrom(ctx, &chrom, ctrl, yield); err != nil {
			return s.finish(start), err
		}
	}
	s.prog.Finish()
	return s.finish(start), nil
}

// SearchGenomeStreamContext runs the streaming-shaped search over an
// already-loaded genome: chromosomes are visited in genome order through
// the same per-chromosome pipeline as SearchStreamContext, so the two
// drivers yield identical sites in identical order for the same
// reference — which lets a long-lived service keep one parsed genome
// resident and share it across concurrent checkpointed scans instead of
// re-reading FASTA per request. SkipChrom and ChromDone behave exactly
// as in the stream driver; PhaseLoad is not charged (the genome is
// already decoded and packed).
func SearchGenomeStreamContext(ctx context.Context, g *genome.Genome, guides []dna.Pattern, p Params, ctrl *StreamControl, yield func(report.Site) error) (*Stats, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil genome")
	}
	s, ctrl, err := newStreamSearch(guides, &p, ctrl, yield)
	if err != nil {
		return nil, err
	}
	start := metrics.NewStopwatch()
	for i := range g.Chroms {
		chrom := &g.Chroms[i]
		if err := ctx.Err(); err != nil {
			return s.finish(start), fmt.Errorf("core: stream search canceled after %d chromosomes: %w", i, err)
		}
		if ctrl.SkipChrom != nil && ctrl.SkipChrom(chrom.Name) {
			continue
		}
		if err := s.streamChrom(ctx, chrom, ctrl, yield); err != nil {
			return s.finish(start), err
		}
	}
	s.prog.Finish()
	return s.finish(start), nil
}
