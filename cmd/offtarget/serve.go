package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"

	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/scanserve"
)

// runServe runs the long-lived multi-tenant scan service: the job API
// and the admin endpoint share one listener, jobs and their outputs
// live durably under -serve-dir, and shutdown is graceful — SIGTERM
// stops admission (/readyz flips to 503 so load balancers drain), gives
// in-flight jobs -serve-drain to finish, checkpoints whatever remains,
// and exits 0. A job interrupted by a crash instead of a drain is
// re-queued on the next start and resumes from its checkpoint journal
// to byte-identical output.
func runServe(ctx context.Context, cfg *config) error {
	logger := cfg.logger()
	if cfg.httpAddr == "" {
		return fmt.Errorf("-serve requires -http (the job API and admin endpoint share the address)")
	}
	if cfg.serveDir == "" {
		return fmt.Errorf("-serve requires -serve-dir (durable job state)")
	}
	if cfg.reg == nil {
		cfg.reg = newScanRegistry()
	}
	// In serve mode -trace names the per-job Chrome trace artifact each
	// finished job leaves in its spool directory (one file per job, not
	// one shared timeline), so only the base name is meaningful.
	traceFile := ""
	if cfg.tracePath != "" {
		traceFile = filepath.Base(cfg.tracePath)
	}
	// -serve-quota-rate 0 disables quotas, as its help says; the
	// service reads a zero rate as "use the default", so pass a negative
	// one.
	quotaRate := cfg.serveQuotaRate
	if quotaRate == 0 {
		quotaRate = -1
	}
	svc, err := scanserve.New(scanserve.Config{
		Dir:            cfg.serveDir,
		DefaultGenome:  cfg.genomePath,
		GenomeDir:      cfg.serveGenomeDir,
		Workers:        cfg.serveWorkers,
		MaxQueue:       cfg.serveQueue,
		QuotaRate:      quotaRate,
		QuotaBurst:     cfg.serveQuotaBurst,
		MaxRetries:     cfg.serveRetries,
		AttemptTimeout: cfg.timeout,
		Seed:           metrics.Now(),
		Log:            logger,
		TraceFile:      traceFile,
		// Every job attempt registers with the scan registry, so
		// /metrics and /debug/scans show service jobs exactly like
		// one-shot scans (live progress while running, folded into the
		// lifetime aggregator when finished).
		OnScanStart: func(job scanserve.Job, rec *metrics.Recorder, prog *metrics.Progress) func() {
			engine := job.Spec.Engine
			if engine == "" {
				engine = cfg.engineName
			}
			return cfg.reg.begin(&scanState{
				Engine: engine, K: job.Spec.K, PAM: job.Spec.PAM,
				Genome: job.ResolvedGenome, rec: rec, prog: prog,
			})
		},
	})
	if err != nil {
		return err
	}
	svc.Start()
	adm, err := newAdminServer(cfg.httpAddr, cfg.reg, logger, &adminHooks{
		ready: func() (bool, string) {
			// A daemon is ready when it is initialized and admitting
			// jobs — not when it has happened to run one already.
			if svc.Accepting() {
				return true, ""
			}
			return false, "scan service is not accepting jobs (draining)"
		},
		metrics: svc.WriteMetrics,
		mount: map[string]http.Handler{
			"/v1/":          svc.Handler(),
			"/debug/trace/": svc.TraceHandler(),
		},
	})
	if err != nil {
		return fmt.Errorf("admin endpoint: %w", err)
	}
	defer adm.Close()
	logger.Info("scan service listening",
		"addr", adm.Addr(), "dir", cfg.serveDir, "workers", cfg.serveWorkers,
		"default_genome", cfg.genomePath, "genome_dir", cfg.serveGenomeDir)
	if cfg.onAdmin != nil {
		cfg.onAdmin(adm.Addr())
	}

	<-ctx.Done()
	logger.Info("shutdown signal received; draining", "window", cfg.serveDrain)
	requeued := svc.Drain(cfg.serveDrain)
	logger.Info("scan service stopped", "requeued_for_resume", requeued)
	return nil
}
