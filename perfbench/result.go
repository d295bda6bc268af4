package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of offtarget or of the service sees;
// every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_s", "s"},
	{"latency_p75_s", "s"},
	{"throughput_mbp_s", "Mbp/s"},
	{"cpu_s_per_op", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. Times are medians over traced
// ops of a layer's self time; counts are per op. A layer a workload does
// not run reports 0.
var perLayer = []metricDef{
	{"fasta.parse_s", "s"},
	{"genome.pack_s", "s"},
	{"core.compile_s", "s"},
	{"hscan.scan_s", "s"},
	{"hscan.bytes_scanned", "count"},
	{"hscan.pam_hits", "count"},
	{"hscan.verifications", "count"},
	{"hscan.pam_hits_per_base", "ratio"},
	{"hscan.verifications_per_hit", "ratio"},
	{"report.resolve_s", "s"},
	{"report.sort_s", "s"},
	{"report.write_s", "s"},
	{"report.sites", "count"},
	{"report.out_bytes", "bytes"},
	{"report.sites_per_verification", "ratio"},
	{"seedindex.build_s", "s"},
	{"seedindex.load_s", "s"},
	{"seedindex.genome_s", "s"},
	{"seedindex.query_s", "s"},
	{"seedindex.candidates", "count"},
	{"seedindex.sites_per_candidate", "ratio"},
	{"scanserve.admit_s", "s"},
	{"scanserve.queue_wait_s", "s"},
	{"scanserve.cache_load_s", "s"},
	{"scanserve.scan_s", "s"},
	{"scanserve.commit_s", "s"},
	{"scanserve.output_s", "s"},
	{"scanserve.notice_s", "s"},
	{"scanserve.commits_per_job", "count"},
	{"residual_s", "s"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cycles_per_op", "count"},
	{"trace.e2e_p50_s", "s"},
	{"trace.traced_p50_s", "s"},
	{"trace.overhead_s", "s"},
}

// result accumulates one run's op accounting and metrics.
type result struct {
	attempted, failed int
	errs              []string
	metrics           map[string]float64
	aside             map[string]bool // per-layer times outside the op
}

func newResult() *result { return &result{metrics: make(map[string]float64)} }

// record counts one op; a non-nil err marks it failed. It reports
// whether the op succeeded.
func (r *result) record(err error) bool {
	r.attempted++
	if err == nil {
		return true
	}
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
	return false
}

func (r *result) put(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = v
}

// pass is one run through a workload's fixed op list.
type pass struct {
	wall, cpu float64 // seconds to finish the list; program CPU seconds
	ops       int
	failed    bool // a pass with a failed op yields no throughput sample
}

// setE2E stores the end-to-end metrics and prints their sample counts.
// Throughput and CPU per op are medians over the complete passes, so
// one slow pass does not move them.
func (r *result) setE2E(b *bench, setups, lat []float64, passes []pass, genomeLen int, rssMB float64) {
	var mbps, cpu []float64
	for _, p := range passes {
		if !p.failed && p.ops > 0 {
			mbps = append(mbps, float64(genomeLen)/1e6*float64(p.ops)/p.wall)
			cpu = append(cpu, p.cpu/float64(p.ops))
		}
	}
	p75 := quantile(lat, 0.75)
	r.put("setup_s", median(setups))
	r.put("latency_p50_s", median(lat))
	r.put("latency_p75_s", p75)
	r.put("throughput_mbp_s", median(mbps))
	r.put("cpu_s_per_op", median(cpu))
	r.put("peak_rss_mb", rssMB)
	b.printf("samples: %d set-ups %.3f s, %d timed ops (%d above p75), %d complete passes of the op list, %d attempted, %d failed",
		len(setups), setups, len(lat), above(lat, p75), len(mbps), r.attempted, r.failed)
}

// layerTable collects per-op samples of each layer metric.
type layerTable struct {
	samples map[string][]float64
	counts  map[string]float64
	// aside names layers timed outside the measured op (in set-up, or
	// in an in-process replay of a service job); they stay out of the
	// layer sum the residual is taken against.
	aside map[string]bool
}

func newLayerTable() *layerTable {
	return &layerTable{samples: make(map[string][]float64), counts: make(map[string]float64), aside: make(map[string]bool)}
}

func (t *layerTable) add(name string, v float64) { t.samples[name] = append(t.samples[name], v) }

// addAside records a layer sample timed outside the measured op.
func (t *layerTable) addAside(name string, v float64) {
	t.add(name, v)
	t.aside[name] = true
}

func (t *layerTable) count(name string, v float64) { t.counts[name] = v }

// layers stores the per-layer metrics: layer self-time medians, counts,
// the residual against the untraced end-to-end median, and the traced
// and plain medians whose difference is the tracing overhead.
func (r *result) layers(b *bench, t *layerTable, e2e, traced, plain []float64) {
	names := make([]string, 0, len(t.samples))
	for name := range t.samples {
		names = append(names, name)
	}
	sort.Strings(names)
	layerSum := 0.0
	for _, name := range names {
		m := median(t.samples[name])
		r.put(name, m)
		if strings.HasSuffix(name, "_s") && !t.aside[name] {
			layerSum += m
		}
	}
	r.aside = t.aside
	for name, v := range t.counts {
		r.put(name, v)
	}
	e2eMed := median(e2e)
	r.put("residual_s", e2eMed-layerSum)
	r.put("trace.e2e_p50_s", e2eMed)
	r.put("trace.traced_p50_s", median(traced))
	r.put("trace.overhead_s", median(traced)-median(plain))
	b.printf("layers: %d traced ops; layer sum %.4f s + residual %.4f s = untraced e2e median %.4f s (IQR %.4f s over %d ops); tracing overhead %.4f s",
		len(traced), layerSum, e2eMed-layerSum, e2eMed, quantile(e2e, 0.75)-quantile(e2e, 0.25), len(e2e), median(traced)-median(plain))
}

// printTable writes the metrics of defs this workload set, with units
// and, for per-layer times, their share of the untraced end-to-end
// median.
func (r *result) printTable(w io.Writer, defs []metricDef) {
	e2e := r.metrics["trace.e2e_p50_s"]
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			continue
		}
		share := ""
		switch {
		case r.aside[d.name]:
			share = "  (outside the op)"
		case e2e > 0 && d.unit == "s" && !strings.HasPrefix(d.name, "trace."):
			share = fmt.Sprintf("  (%5.1f%% of e2e)", 100*v/e2e)
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s%s\n", d.name, v, d.unit, share)
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// emit prints the final JSON line with every metric of defs.
func (r *result) emit(w io.Writer, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value)}
	for _, d := range defs {
		out.Metrics[d.name] = value{Value: r.metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
