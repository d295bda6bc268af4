package casot

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
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

// oracle applies the seed-constrained reference semantics.
func oracle(specs []arch.PatternSpec, seq dna.Seq, opt Options) []automata.Report {
	var out []automata.Report
	for _, spec := range specs {
		sl := len(spec.Spacer)
		site := spec.SiteLen()
		seedStart := sl - opt.SeedLen
		for p := 0; p+site <= len(seq); p++ {
			w := seq[p : p+site]
			if w.HasAmbiguous() {
				continue
			}
			if !spec.PAM.Matches(w[sl:]) {
				continue
			}
			total, seed := 0, 0
			for i := 0; i < sl; i++ {
				if !spec.Spacer[i].Has(w[i]) {
					total++
					if i >= seedStart {
						seed++
					}
				}
			}
			if total <= spec.K && seed <= opt.MaxSeedMismatches {
				out = append(out, automata.Report{Code: spec.Code, End: p + site - 1})
			}
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

func TestNaiveMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		m := 8 + rng.Intn(6)
		opt := Options{SeedLen: 4 + rng.Intn(4), MaxSeedMismatches: rng.Intn(3)}
		specs := randSpecs(rng, 3, m, rng.Intn(4))
		c := chromOf(rng, 5000, 0.01)
		e, err := New(specs, opt)
		if err != nil {
			t.Fatal(err)
		}
		got := collect(t, e, c)
		want := oracle(specs, c.Seq, opt)
		if !equal(got, want) {
			t.Fatalf("trial %d: %d vs oracle %d", trial, len(got), len(want))
		}
	}
}

func TestIndexMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for trial := 0; trial < 8; trial++ {
		m := 10 + rng.Intn(4)
		k := rng.Intn(4)
		opt := Options{SeedLen: 6, MaxSeedMismatches: rng.Intn(3)}
		specs := randSpecs(rng, 3, m, k)
		c := chromOf(rng, 8000, 0.01)
		naive, err := New(specs, opt)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := NewIndex(specs, opt)
		if err != nil {
			t.Fatal(err)
		}
		a := collect(t, naive, c)
		b := collect(t, indexed, c)
		if !equal(a, b) {
			t.Fatalf("trial %d (k=%d seedmm=%d): naive %d vs index %d", trial, k, opt.MaxSeedMismatches, len(a), len(b))
		}
	}
}

func TestFullSeedBudgetEqualsPlainHamming(t *testing.T) {
	// With MaxSeedMismatches == K the seed constraint is inert, so the
	// output must be the plain <=K Hamming site set.
	rng := rand.New(rand.NewSource(73))
	specs := randSpecs(rng, 2, 10, 2)
	c := chromOf(rng, 6000, 0)
	opt := Options{SeedLen: 6, MaxSeedMismatches: 2}
	e, err := New(specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, e, c)
	want := oracle(specs, c.Seq, Options{SeedLen: 0, MaxSeedMismatches: 99})
	if !equal(got, want) {
		t.Fatalf("seed==K should be inert: %d vs %d", len(got), len(want))
	}
}

func TestSeedConstraintFilters(t *testing.T) {
	// A site with 2 mismatches both in the seed must pass with
	// MaxSeedMismatches=2 and fail with 1.
	spacer := dna.MustParseSeq("ACGTACGTAC")
	site := dna.MustParseSeq("ACGTACGTGG") // mismatches at positions 8,9
	g := append(append(dna.Seq{}, site...), dna.MustParseSeq("AGG")...)
	g = append(dna.MustParseSeq("TTTT"), g...)
	c := &genome.Chromosome{Name: "t", Seq: g, Packed: dna.Pack(g)}
	spec := []arch.PatternSpec{{Spacer: dna.PatternFromSeq(spacer), PAM: dna.MustParsePattern("NGG"), K: 2, Code: 0}}

	loose, _ := New(spec, Options{SeedLen: 4, MaxSeedMismatches: 2})
	strict, _ := New(spec, Options{SeedLen: 4, MaxSeedMismatches: 1})
	if n := len(collect(t, loose, c)); n != 1 {
		t.Fatalf("loose: %d sites, want 1", n)
	}
	if n := len(collect(t, strict, c)); n != 0 {
		t.Fatalf("strict: %d sites, want 0", n)
	}
}

func TestNewErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	if _, err := New(nil, DefaultOptions); err == nil {
		t.Error("empty specs must error")
	}
	specs := randSpecs(rng, 1, 10, 2)
	if _, err := New(specs, Options{SeedLen: 99}); err == nil {
		t.Error("seed longer than spacer must error")
	}
	if _, err := New(specs, Options{SeedLen: 4, MaxSeedMismatches: -1}); err == nil {
		t.Error("negative seed budget must error")
	}
	mixed := append(randSpecs(rng, 1, 10, 2), randSpecs(rng, 1, 12, 2)...)
	if _, err := New(mixed, DefaultOptions); err == nil {
		t.Error("mixed spacer lengths must error")
	}
}

func TestNewIndexErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	specs := randSpecs(rng, 1, 10, 2)
	if _, err := NewIndex(specs, Options{SeedLen: 0, MaxSeedMismatches: 1}); err == nil {
		t.Error("seed length 0 must error for index variant")
	}
	degenerate := []arch.PatternSpec{{
		Spacer: dna.MustParsePattern("ACGTACGTNN"),
		PAM:    dna.MustParsePattern("NGG"), K: 1, Code: 0,
	}}
	if _, err := NewIndex(degenerate, Options{SeedLen: 4, MaxSeedMismatches: 1}); err == nil {
		t.Error("degenerate seed must error for index variant")
	}
}

func TestSeedVariantCount(t *testing.T) {
	if SeedVariantCount(12, 0) != 1 {
		t.Error("budget 0 -> 1 variant")
	}
	if SeedVariantCount(12, 1) != 1+36 {
		t.Errorf("budget 1 = %d, want 37", SeedVariantCount(12, 1))
	}
	if SeedVariantCount(12, 2) != 1+36+594 {
		t.Errorf("budget 2 = %d, want 631", SeedVariantCount(12, 2))
	}
	// Enumeration count must agree with the closed form.
	seed := dna.MustParseSeq("ACGTAC")
	count := 0
	enumerateVariants(seed, 2, func(dna.Seq, int) { count++ })
	if count != SeedVariantCount(6, 2) {
		t.Errorf("enumerated %d, formula %d", count, SeedVariantCount(6, 2))
	}
}
