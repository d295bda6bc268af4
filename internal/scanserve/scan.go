package scanserve

import (
	"context"
	"fmt"
	"os"
	"strconv"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/checkpoint"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// scanAttempt is the production scan path for one attempt: resolve the
// genome through the resident cache, open (or resume) the job's
// checkpoint journal, and stream the scan chromosome by chromosome
// through the journal's exactly-once output — which flushes and fsyncs
// the rows before it group-commits the chromosomes completed since its
// last commit, so a crash at any instant resumes to byte-identical
// output. Every exit, including drain, deadline and cancel, commits
// what completed, and the attempt span's "commits" attribute counts
// the durable commits.
func (s *Service) scanAttempt(ctx context.Context, job *Job, rec *metrics.Recorder, prog *metrics.Progress) error {
	guides := job.Spec.guides()
	params := job.Spec.params()
	var g *crisprscan.Genome
	var hit bool
	var err error
	// The cache-load span hangs under the attempt span carried by ctx
	// and is annotated hit/miss — the first question for a slow job.
	cspan, cacheEnd := metrics.SpanFromContext(ctx).StartChild("cache-load")
	if params.Engine == crisprscan.EngineSeedIndex {
		// Seed-index jobs share one table per resident genome; the build
		// is single-flight inside the cache entry.
		var ix *crisprscan.SeedIndex
		g, ix, hit, err = s.cache.getIndex(ctx, job.ResolvedGenome)
		params.SeedIndex = ix
	} else {
		g, hit, err = s.cache.get(ctx, job.ResolvedGenome)
	}
	if hit {
		cspan.SetAttr("cache", "hit")
	} else {
		cspan.SetAttr("cache", "miss")
	}
	if err != nil {
		cspan.SetAttr("error", err.Error())
	}
	cacheEnd()
	if err != nil {
		return err
	}
	if params.Workers > s.cfg.Workers*4 && s.cfg.Workers > 0 {
		// A tenant cannot commandeer the host by asking for 10k workers.
		params.Workers = s.cfg.Workers * 4
	}
	params.Metrics = rec
	params.Progress = prog

	j, err := checkpoint.Open(s.store.ckptPath(job.ID), crisprscan.FingerprintParams(guides, params))
	if err != nil {
		// A corrupt or mismatched journal will not heal on retry.
		return MarkPermanent(fmt.Errorf("scanserve: job %s: %w", job.ID, err))
	}

	f, err := os.OpenFile(s.store.outPath(job), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("scanserve: opening output for job %s: %w", job.ID, err)
	}
	defer f.Close()
	commits, err := j.Stream(f, job.Spec.BED, func(skip func(string) bool, commit func(string, int, int64) error, yield func(crisprscan.Site) error) error {
		_, err := crisprscan.SearchGenomeStreamContext(ctx, g, guides, params, &crisprscan.StreamControl{SkipChrom: skip, ChromDone: commit}, yield)
		return err
	})
	metrics.SpanFromContext(ctx).SetAttr("commits", strconv.Itoa(commits))
	if err != nil {
		return err
	}
	if _, err := s.store.update(job.ID, func(rec *Job) { rec.Sites = j.Sites() }); err != nil {
		return fmt.Errorf("scanserve: recording site count for job %s: %w", job.ID, err)
	}
	return nil
}

// OutputPath returns the output artifact path of a job, for download
// streaming. The bool reports whether the job exists.
func (s *Service) OutputPath(id string) (string, Job, bool) {
	job, ok := s.store.get(id)
	if !ok {
		return "", Job{}, false
	}
	return s.store.outPath(&job), job, true
}
