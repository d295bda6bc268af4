package infant

import (
	"context"
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

func TestFunctionalAgreesWithHscan(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	specs := randSpecs(rng, 3, 8, 2)
	seq := make(dna.Seq, 6000)
	for i := range seq {
		seq[i] = dna.Base(rng.Intn(4))
	}
	c := &genome.Chromosome{Name: "t", Seq: seq, Packed: dna.Pack(seq)}
	m, err := Compile(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	hs, _ := hscan.New(specs, hscan.ModeBitap)
	// The compiled automaton is what the frontier measurement describes.
	var a, b []automata.Report
	automata.NewSim(m.nfa).Scan(automata.SymbolsOfSeq(c.Seq), func(r automata.Report) { a = append(a, r) })
	if err := hs.ScanChrom(context.Background(), c, func(r automata.Report) { b = append(b, r) }); err != nil {
		t.Fatal(err)
	}
	for _, s := range [][]automata.Report{a, b} {
		sort.Slice(s, func(i, j int) bool {
			if s[i].End != s[j].End {
				return s[i].End < s[j].End
			}
			return s[i].Code < s[j].Code
		})
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("infant %d vs hscan %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report %d differs", i)
		}
	}
}

func TestFrontierGrowsWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(112))
	prev := 0.0
	for _, k := range []int{0, 2, 4} {
		m, err := Compile(randSpecs(rng, 10, 20, k), Options{})
		if err != nil {
			t.Fatal(err)
		}
		f := m.avgActive
		if f <= prev {
			t.Errorf("k=%d: frontier %.1f not larger than previous %.1f", k, f, prev)
		}
		prev = f
	}
}

func TestKernelScalesWithFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	small, err := Compile(randSpecs(rng, 10, 20, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Compile(randSpecs(rng, 200, 20, 5), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bs := small.EstimateBreakdown(10_000_000, 0)
	bb := big.EstimateBreakdown(10_000_000, 0)
	if bb.Kernel <= bs.Kernel {
		t.Errorf("large frontier should be slower: %g vs %g", bb.Kernel, bs.Kernel)
	}
	// Small frontiers hit the serialization floor: kernel never drops
	// below the per-symbol overhead term.
	floor := float64(10_000_000) / float64(DefaultGPU.Blocks) * DefaultGPU.SymbolOverheadSec
	if bs.Kernel < floor {
		t.Errorf("kernel %g below serialization floor %g", bs.Kernel, floor)
	}
}

func TestMergeShrinksFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	specs := randSpecs(rng, 30, 20, 3)
	plain, err := Compile(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Compile(specs, Options{MergeStates: true})
	if err != nil {
		t.Fatal(err)
	}
	if merged.avgActive >= plain.avgActive {
		t.Errorf("merging should shrink the frontier: %.1f -> %.1f", plain.avgActive, merged.avgActive)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil, Options{}); err == nil {
		t.Error("empty specs must error")
	}
}

func TestModeledInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	m, err := Compile(randSpecs(rng, 2, 8, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var _ arch.Modeled = m
	if m.Name() != "infant2" {
		t.Errorf("name = %s", m.Name())
	}
	if m.Resources() != (arch.ResourceUsage{}) {
		t.Error("GPU resources must be empty")
	}
}
