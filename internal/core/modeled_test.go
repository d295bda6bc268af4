package core

import (
	"bytes"
	"context"
	"slices"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fasta"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/metrics"
	"github.com/cap-repro/crisprscan/internal/report"
)

// modeledKinds are the engine kinds that price the reference scan with
// a cost model.
var modeledKinds = []EngineKind{EngineAP, EngineFPGA, EngineInfant, EngineCasOffinderGPU}

// TestModeledStatsSameOnEveryPath pins the modeled accounting of the
// one per-chromosome step: for every modeled kind, the batch search and
// both streaming searches report the same Stats.Modeled and
// Stats.Resources; Stats.Modeled is the model's price of the whole
// reference scan; and the recorder's modeled_sec steps are the model's
// per-chromosome prices, summed in genome order.
func TestModeledStatsSameOnEveryPath(t *testing.T) {
	g, guides, _ := plantedFixture(t, 210, 3, 50000, genome.PlantPlan{0: 2, 1: 1})
	var fa bytes.Buffer
	w := fasta.NewWriter(&fa, 0)
	for _, rec := range g.ToFasta() {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	specs := BuildSpecs(guides, dna.MustParsePattern("NGG"), 2, false)
	discard := func(report.Site) error { return nil }

	for _, kind := range modeledKinds {
		t.Run(string(kind), func(t *testing.T) {
			p := Params{MaxMismatches: 2, Engine: kind, MergeStates: true}
			model, err := newModel(kind, specs, p)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewEngine(kind, specs, p)
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]float64{"compile": model.EstimateBreakdown(0, 0).Compile}
			for ci := range g.Chroms {
				c := &g.Chroms[ci]
				events := 0
				if err := ref.ScanChrom(context.Background(), c, func(automata.Report) { events++ }); err != nil {
					t.Fatal(err)
				}
				b := model.EstimateBreakdown(len(c.Seq), events)
				want["transfer"] += b.Transfer
				want["kernel"] += b.Kernel
				want["report"] += b.Report
			}

			paths := map[string]func(p Params) (*Stats, error){
				"batch": func(p Params) (*Stats, error) {
					res, err := Search(g, guides, p)
					if err != nil {
						return nil, err
					}
					return &res.Stats, nil
				},
				"stream": func(p Params) (*Stats, error) {
					return SearchStreamContext(context.Background(), bytes.NewReader(fa.Bytes()), guides, p, nil, discard)
				},
				"genome-stream": func(p Params) (*Stats, error) {
					return SearchGenomeStreamContext(context.Background(), g, guides, p, nil, discard)
				},
			}
			var batch *Stats
			for _, name := range []string{"batch", "stream", "genome-stream"} {
				p := p
				p.Metrics = metrics.NewRecorder()
				st, err := paths[name](p)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if st.Modeled == nil || st.Resources == nil {
					t.Fatalf("%s: modeled kind reported no breakdown or resources", name)
				}
				if st.Engine != model.Name() {
					t.Errorf("%s: Stats.Engine = %q, want the model's %q", name, st.Engine, model.Name())
				}
				if wantB := model.EstimateBreakdown(st.BytesScanned, st.Events); *st.Modeled != wantB {
					t.Errorf("%s: Stats.Modeled = %+v, want EstimateBreakdown(%d, %d) = %+v",
						name, *st.Modeled, st.BytesScanned, st.Events, wantB)
				}
				if *st.Resources != model.Resources() {
					t.Errorf("%s: Stats.Resources = %+v, want %+v", name, *st.Resources, model.Resources())
				}
				got := st.Metrics.ModeledSec
				if len(got) != len(want) {
					t.Errorf("%s: modeled_sec = %v, want %v", name, got, want)
				}
				for step, sec := range want {
					if got[step] != sec {
						t.Errorf("%s: modeled_sec[%s] = %g, want %g", name, step, got[step], sec)
					}
				}
				if batch == nil {
					batch = st
					continue
				}
				if *st.Modeled != *batch.Modeled || *st.Resources != *batch.Resources {
					t.Errorf("%s: modeled %+v / %+v, batch %+v / %+v",
						name, *st.Modeled, *st.Resources, *batch.Modeled, *batch.Resources)
				}
			}
		})
	}
}

// TestModeledKindsAreCostModels pins the structural split: a modeled
// kind's engine is the reference scan, and its cost model is not an
// engine at all.
func TestModeledKindsAreCostModels(t *testing.T) {
	specs := BuildSpecs([]dna.Pattern{dna.MustParsePattern("ACGTACGTACGTACGTACGT")}, dna.MustParsePattern("NGG"), 1, false)
	ref, err := NewEngine(EngineHyperscan, specs, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range AllEngines {
		m, err := newModel(kind, specs, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(modeledKinds, kind) {
			if m != nil {
				t.Errorf("%s: measured engine got cost model %T", kind, m)
			}
			continue
		}
		if _, ok := any(m).(arch.Engine); ok || m == nil {
			t.Errorf("%s: cost model %T is missing or also implements arch.Engine", kind, m)
		}
		e, err := NewEngine(kind, specs, Params{})
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != ref.Name() {
			t.Errorf("%s: NewEngine returned %q, want the reference engine %q", kind, e.Name(), ref.Name())
		}
	}
}
