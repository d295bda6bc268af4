package casoffinder

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/hscan"
)

func randSpecs(rng *rand.Rand, n, m, k int) []arch.PatternSpec {
	pam := dna.MustParsePattern("NGG")
	specs := make([]arch.PatternSpec, n)
	for i := range specs {
		spacer := make(dna.Seq, m)
		for j := range spacer {
			spacer[j] = dna.Base(rng.Intn(4))
		}
		specs[i] = arch.PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: k, Code: int32(i)}
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
	return &genome.Chromosome{Name: "t", Seq: seq, Packed: dna.Pack(seq)}
}

func collect(t *testing.T, e arch.Engine, c *genome.Chromosome) []automata.Report {
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
	return out
}

func TestAgreesWithHscan(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 8; trial++ {
		specs := randSpecs(rng, 4, 8+rng.Intn(8), rng.Intn(4))
		c := chromOf(rng, 8000, 0.01)
		co, err := New(specs, 1)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := hscan.New(specs, hscan.ModeBitap)
		if err != nil {
			t.Fatal(err)
		}
		a := collect(t, co, c)
		b := collect(t, hs, c)
		if len(a) != len(b) {
			t.Fatalf("trial %d: casoffinder %d vs hscan %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d report %d: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestParallelWorkersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	specs := randSpecs(rng, 3, 10, 2)
	c := chromOf(rng, 20000, 0.005)
	serial, _ := New(specs, 1)
	par, _ := New(specs, 8)
	a := collect(t, serial, c)
	b := collect(t, par, c)
	if len(a) == 0 {
		t.Fatal("no matches; weak fixture")
	}
	if len(a) != len(b) {
		t.Fatalf("parallel differs: %d vs %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report %d differs", i)
		}
	}
}

func TestDegenerateGuidePositions(t *testing.T) {
	// Guide with a leading N: that position never mismatches.
	spec := []arch.PatternSpec{{
		Spacer: dna.MustParsePattern("NCGTACGT"),
		PAM:    dna.MustParsePattern("NGG"), K: 0, Code: 5,
	}}
	seq := dna.MustParseSeq("TTGCGTACGTAGGTT") // GCGTACGT + AGG at pos 2
	c := &genome.Chromosome{Name: "t", Seq: seq, Packed: dna.Pack(seq)}
	e, err := New(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, e, c)
	if len(got) != 1 || got[0].End != 12 {
		t.Fatalf("got %v, want one site ending at 12", got)
	}
}

func TestNewErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	if _, err := New(nil, 1); err == nil {
		t.Error("empty specs must error")
	}
	long := randSpecs(rng, 1, 33, 0)
	if _, err := New(long, 1); err == nil {
		t.Error("spacer > 32 must error")
	}
	mixed := append(randSpecs(rng, 1, 10, 1), randSpecs(rng, 1, 12, 1)...)
	if _, err := New(mixed, 1); err == nil {
		t.Error("mixed lengths must error")
	}
	partial := []arch.PatternSpec{{
		Spacer: dna.MustParsePattern("ACGR"),
		PAM:    dna.MustParsePattern("NGG"), K: 0, Code: 0,
	}}
	if _, err := New(partial, 1); err == nil {
		t.Error("partially degenerate spacer (R) must error")
	}
}

func TestComparisons(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	e, _ := New(randSpecs(rng, 10, 20, 3), 1)
	pamTests, compares := e.Comparisons(1000000, 1.0/16)
	if pamTests != float64(1000000-23+1) {
		t.Errorf("pamTests = %f", pamTests)
	}
	want := pamTests / 16 * 10
	if math.Abs(compares-want) > 1e-6 {
		t.Errorf("compares = %f, want %f", compares, want)
	}
}

func TestGPUModel(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	specs := randSpecs(rng, 100, 20, 3)
	m, err := NewGPUModel(specs, DefaultGPU)
	if err != nil {
		t.Fatal(err)
	}
	var _ arch.Modeled = m
	b := m.EstimateBreakdown(10_000_000, 1000)
	if b.Kernel <= 0 || b.Transfer <= 0 || b.Compile <= 0 {
		t.Fatalf("breakdown has zero phases: %+v", b)
	}
	// Brute force: kernel time grows linearly with guides.
	m2, _ := NewGPUModel(randSpecs(rng, 1000, 20, 3), DefaultGPU)
	b2 := m2.EstimateBreakdown(10_000_000, 1000)
	ratio := b2.Kernel / b.Kernel
	if ratio < 5 || ratio > 11 {
		t.Errorf("10x guides should scale kernel ~10x (PAM scan amortized); got %.2fx", ratio)
	}
	// ... and does NOT grow with k (same guides, higher k).
	hiK := randSpecs(rng, 100, 20, 5)
	m3, _ := NewGPUModel(hiK, DefaultGPU)
	b3 := m3.EstimateBreakdown(10_000_000, 1000)
	if math.Abs(b3.Kernel-b.Kernel)/b.Kernel > 1e-9 {
		t.Errorf("brute-force kernel must be k-independent: %g vs %g", b3.Kernel, b.Kernel)
	}
	if m.Name() != "cas-offinder-gpu" {
		t.Errorf("name = %s", m.Name())
	}
	if m.Resources() != (arch.ResourceUsage{}) {
		t.Error("GPU resources must be empty")
	}
}
