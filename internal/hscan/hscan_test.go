package hscan

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

func randSpecs(rng *rand.Rand, n, m, k int) []PatternSpec {
	pam := dna.MustParsePattern("NGG")
	specs := make([]PatternSpec, n)
	for i := range specs {
		spacer := make(dna.Seq, m)
		for j := range spacer {
			spacer[j] = dna.Base(rng.Intn(4))
		}
		specs[i] = PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: k, Code: int32(i)}
	}
	return specs
}

func chromOf(rng *rand.Rand, n int, ambRate float64) *genome.Chromosome {
	seq := make(dna.Seq, n)
	for i := range seq {
		if rng.Float64() < ambRate {
			seq[i] = dna.BadBase
		} else {
			seq[i] = dna.Base(rng.Intn(4))
		}
	}
	c := genome.Chromosome{Name: "t", Seq: seq, Packed: dna.Pack(seq)}
	return &c
}

func collect(t *testing.T, e *Engine, c *genome.Chromosome) []automata.Report {
	t.Helper()
	var out []automata.Report
	if err := e.ScanChrom(context.Background(), c, func(r automata.Report) { out = append(out, r) }); err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Code < out[j].Code
	})
	// Dedup: parallel chunks and multi-engine paths must already be
	// unique; keep the check strict by NOT deduping here.
	return out
}

func oracle(specs []PatternSpec, seq dna.Seq) []automata.Report {
	var out []automata.Report
	for _, spec := range specs {
		site := spec.SiteLen()
		for p := 0; p+site <= len(seq); p++ {
			if seq[p : p+site].HasAmbiguous() {
				continue
			}
			if spec.Spacer.Mismatches(seq[p:p+len(spec.Spacer)]) > spec.K {
				continue
			}
			if !spec.PAM.Matches(seq[p+len(spec.Spacer) : p+site]) {
				continue
			}
			out = append(out, automata.Report{Code: spec.Code, End: p + site - 1})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Code < out[j].Code
	})
	return out
}

func equal(a, b []automata.Report) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBitapMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		specs := randSpecs(rng, 3, 6+rng.Intn(6), rng.Intn(4))
		c := chromOf(rng, 4000, 0.01)
		e, err := New(specs, ModeBitap)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, e, c)
		want := oracle(specs, c.Seq)
		if !equal(got, want) {
			t.Fatalf("trial %d: bitap %d reports, oracle %d", trial, len(got), len(want))
		}
	}
}

func TestModesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	specs := randSpecs(rng, 4, 8, 2)
	c := chromOf(rng, 6000, 0.02)
	var results [][]automata.Report
	for _, mode := range []Mode{ModeBitap, ModeNFA} {
		e, err := New(specs, mode)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, collect(t, e, c))
	}
	if len(results[0]) == 0 {
		t.Fatal("fixture produced no matches; weak test")
	}
	if !equal(results[0], results[1]) {
		t.Fatalf("modes disagree: bitap=%d nfa=%d", len(results[0]), len(results[1]))
	}
}

func TestFullLengthGuides(t *testing.T) {
	// Realistic shape: 20-mers + NGG, k up to 5.
	rng := rand.New(rand.NewSource(63))
	for _, k := range []int{0, 3, 5} {
		specs := randSpecs(rng, 2, 20, k)
		c := chromOf(rng, 50000, 0)
		e, err := New(specs, ModeBitap)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, e, c)
		want := oracle(specs, c.Seq)
		if !equal(got, want) {
			t.Fatalf("k=%d: %d vs oracle %d", k, len(got), len(want))
		}
	}
}

func TestParallelEqualsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	specs := randSpecs(rng, 5, 8, 2)
	c := chromOf(rng, 30000, 0.01)
	serial, err := New(specs, ModeBitap)
	if err != nil {
		t.Fatal(err)
	}
	par, err := New(specs, ModeBitap)
	if err != nil {
		t.Fatal(err)
	}
	par.Parallelism = 4
	a := collect(t, serial, c)
	b := collect(t, par, c)
	if len(a) == 0 {
		t.Fatal("no matches; weak test")
	}
	if !equal(a, b) {
		t.Fatalf("parallel scan differs: %d vs %d", len(b), len(a))
	}
}

// TestBitapMixedGeometryChunkEdges checks bitap on a mixed-geometry
// set, which the prefilter refuses, across chunk edges. A chunk scans
// from MaxSiteLen-1 positions before its start, so a short site ending
// just before a chunk edge lies wholly in the next chunk's overlap; the
// ownership filter must report it once.
func TestBitapMixedGeometryChunkEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	specs := append(randSpecs(rng, 2, 20, 2), randSpecs(rng, 2, 12, 1)...)
	for i := range specs {
		specs[i].Code = int32(i)
	}
	if _, err := New(specs, ModePrefilter); !errors.Is(err, ErrPrefilterFit) {
		t.Fatalf("prefilter took a mixed-geometry set: %v", err)
	}
	long, short := specs[0], specs[2]
	n := 3*arch.DefaultChunk + 501
	c := chromOf(rng, n, 0.001)
	// Before each edge: a short site ending 2..8 positions short of it,
	// then a long site straddling it.
	var planted []automata.Report
	for edge := arch.DefaultChunk; edge < n; edge += arch.DefaultChunk {
		s := edge - long.SiteLen() + 7 - rng.Intn(7)
		end := plantSite(rng, c.Seq, short, s, rng.Intn(short.K+1))
		planted = append(planted, automata.Report{Code: short.Code, End: end})
		end = plantSite(rng, c.Seq, long, end+1, rng.Intn(long.K+1))
		planted = append(planted, automata.Report{Code: long.Code, End: end})
	}
	c.Packed = dna.Pack(c.Seq)
	want := oracleGeneric(specs, c.Seq)
	sortReports(want)
	for _, r := range planted {
		if !slices.Contains(want, r) {
			t.Fatalf("planted site %+v missing from the oracle", r)
		}
	}
	for _, par := range []int{1, 3} {
		e, err := New(specs, ModeBitap)
		if err != nil {
			t.Fatal(err)
		}
		e.Parallelism = par
		if got := collect(t, e, c); !equal(got, want) {
			t.Fatalf("Parallelism %d: %d reports, oracle %d, or they differ", par, len(got), len(want))
		}
	}
}

func TestParallelTinyInputFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	specs := randSpecs(rng, 1, 6, 1)
	c := chromOf(rng, 15, 0)
	e, _ := New(specs, ModeBitap)
	e.Parallelism = 8
	got := collect(t, e, c)
	want := oracle(specs, c.Seq)
	if !equal(got, want) {
		t.Fatalf("tiny input: %v vs %v", got, want)
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil, ModeBitap); err == nil {
		t.Error("empty pattern set must error")
	}
	long := PatternSpec{Spacer: make(dna.Pattern, 70), PAM: nil, K: 0}
	for i := range long.Spacer {
		long.Spacer[i] = dna.MaskA
	}
	if _, err := New([]PatternSpec{long}, ModeBitap); err == nil {
		t.Error("pattern > 64 must error")
	}
	bad := PatternSpec{Spacer: dna.MustParsePattern("ACGT"), K: 9}
	if _, err := New([]PatternSpec{bad}, ModeBitap); err == nil {
		t.Error("k out of range must error")
	}
	deep := PatternSpec{Spacer: dna.MustParsePattern("ACGTACGTACGT"), K: maxBitapK + 1}
	if _, err := New([]PatternSpec{deep}, ModeBitap); err == nil {
		t.Error("k over the bitap rows must error in bitap mode")
	}
	if _, err := New(randSpecs(rand.New(rand.NewSource(1)), 1, 6, 1), Mode(42)); err == nil {
		t.Error("unknown mode must error")
	}
}

func TestStatsAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	specs := randSpecs(rng, 2, 6, 1)
	b, _ := New(specs, ModeBitap)
	nf, _ := New(specs, ModeNFA)
	if b.Name() != "hyperscan-bitap" || nf.Name() != "hyperscan-nfa" {
		t.Errorf("names: %s / %s", b.Name(), nf.Name())
	}
}
