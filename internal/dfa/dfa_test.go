package dfa

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
)

func guideNFA(t *testing.T, rng *rand.Rand, m, k int, code int32) *automata.NFA {
	t.Helper()
	spacer := make(dna.Seq, m)
	for i := range spacer {
		spacer[i] = dna.Base(rng.Intn(4))
	}
	n, err := automata.CompileHamming(dna.PatternFromSeq(spacer),
		automata.CompileOptions{MaxMismatches: k, PAM: dna.MustParsePattern("NGG"), Code: code})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func randInput(rng *rand.Rand, n int, deadRate float64) []uint8 {
	in := make([]uint8, n)
	for i := range in {
		if rng.Float64() < deadRate {
			in[i] = automata.DeadSymbol
		} else {
			in[i] = uint8(rng.Intn(4))
		}
	}
	return in
}

func canon(r []automata.Report) []automata.Report {
	sort.Slice(r, func(i, j int) bool {
		if r[i].End != r[j].End {
			return r[i].End < r[j].End
		}
		return r[i].Code < r[j].Code
	})
	w := 0
	for i, x := range r {
		if i == 0 || x != r[w-1] {
			r[w] = x
			w++
		}
	}
	return r[:w]
}

func sameReports(a, b []automata.Report) bool {
	a, b = canon(a), canon(b)
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

func TestSubsetConstructionMatchesNFA(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 12; trial++ {
		n := guideNFA(t, rng, 5+rng.Intn(5), rng.Intn(3), int32(trial))
		d, err := FromNFA(n, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		in := randInput(rng, 3000, 0.01)
		want := automata.NewSim(n).ScanCollect(in)
		got := d.ScanCollect(in)
		if !sameReports(got, want) {
			t.Fatalf("trial %d: DFA and NFA disagree (%d vs %d reports)", trial, len(got), len(want))
		}
	}
}

func TestSubsetConstructionUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	var parts []*automata.NFA
	for g := 0; g < 4; g++ {
		parts = append(parts, guideNFA(t, rng, 6, 1, int32(g)))
	}
	u, err := automata.UnionAll("u", parts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := FromNFA(u, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	in := randInput(rng, 5000, 0)
	if !sameReports(d.ScanCollect(in), automata.NewSim(u).ScanCollect(in)) {
		t.Fatal("union DFA disagrees with NFA")
	}
}

func TestMaxStatesGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n := guideNFA(t, rng, 12, 3, 0)
	if _, err := FromNFA(n, BuildOptions{MaxStates: 10}); err == nil {
		t.Error("expected state-limit error")
	}
}

func TestRejectsStartOfData(t *testing.T) {
	n := automata.New(4, "sod")
	s := n.AddState(automata.NewState(automata.ClassOfMask(dna.MaskA), automata.StartOfData))
	n.States[s].Report = 0
	if _, err := FromNFA(n, BuildOptions{}); err == nil {
		t.Error("start-of-data must be rejected")
	}
}

func TestMinimizePreservesLanguage(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for trial := 0; trial < 8; trial++ {
		n := guideNFA(t, rng, 5+rng.Intn(4), rng.Intn(3), int32(trial))
		d, err := FromNFA(n, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := Minimize(d)
		if m.NumStates() > d.NumStates() {
			t.Fatalf("minimization grew the DFA: %d -> %d", d.NumStates(), m.NumStates())
		}
		in := randInput(rng, 4000, 0.02)
		if !sameReports(m.ScanCollect(in), d.ScanCollect(in)) {
			t.Fatalf("trial %d: minimized DFA disagrees", trial)
		}
	}
}

func TestMinimizeIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	n := guideNFA(t, rng, 8, 2, 0)
	d, err := FromNFA(n, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	m1 := Minimize(d)
	m2 := Minimize(m1)
	if m2.NumStates() != m1.NumStates() {
		t.Fatalf("minimize not idempotent: %d -> %d", m1.NumStates(), m2.NumStates())
	}
}

func TestMinimizeMergesRedundantStates(t *testing.T) {
	// Build a 2-state-equivalent DFA by hand: states 1 and 2 behave
	// identically (both report nothing and go to 0 on everything).
	d := &DFA{
		Alphabet: 2,
		Trans:    []int32{1, 2, 0, 0, 0, 0},
		Reports:  [][]int32{{7}, nil, nil},
		Start:    0,
		Empty:    0,
	}
	m := Minimize(d)
	if m.NumStates() != 2 {
		t.Fatalf("want 2 states after minimization, got %d", m.NumStates())
	}
}

func TestMinimizeProperty(t *testing.T) {
	// Property: for random small NFAs, min(DFA) accepts the same report
	// stream as the NFA on random inputs.
	rng := rand.New(rand.NewSource(56))
	f := func(spacerBits uint32, kRaw uint8) bool {
		m := 4 + int(spacerBits>>28)%4
		spacer := make(dna.Seq, m)
		for i := range spacer {
			spacer[i] = dna.Base((spacerBits >> (2 * uint(i))) & 3)
		}
		k := int(kRaw) % 3
		n, err := automata.CompileHamming(dna.PatternFromSeq(spacer),
			automata.CompileOptions{MaxMismatches: k, Code: 1})
		if err != nil {
			return false
		}
		d, err := FromNFA(n, BuildOptions{})
		if err != nil {
			return false
		}
		mm := Minimize(d)
		in := randInput(rng, 600, 0.05)
		return sameReports(mm.ScanCollect(in), automata.NewSim(n).ScanCollect(in))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestDFASizesReasonable(t *testing.T) {
	// The E1 table reports DFA sizes; sanity-check growth with k.
	rng := rand.New(rand.NewSource(58))
	spacer := make(dna.Seq, 20)
	for i := range spacer {
		spacer[i] = dna.Base(rng.Intn(4))
	}
	prev := 0
	for k := 0; k <= 3; k++ {
		n, err := automata.CompileHamming(dna.PatternFromSeq(spacer),
			automata.CompileOptions{MaxMismatches: k, PAM: dna.MustParsePattern("NGG"), Code: 0})
		if err != nil {
			t.Fatal(err)
		}
		d, err := FromNFA(n, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		m := Minimize(d)
		if m.NumStates() <= prev {
			t.Errorf("k=%d: minimal DFA (%d states) not larger than k-1 (%d)", k, m.NumStates(), prev)
		}
		prev = m.NumStates()
	}
}
