package ap

import (
	"math/rand"
	"testing"

	"github.com/cap-repro/crisprscan/internal/dna"
)

func TestTraceScan(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	specs := randSpecs(rng, 4, 8, 2)
	m, err := Compile(specs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq := make(dna.Seq, 20000)
	for i := range seq {
		seq[i] = dna.Base(rng.Intn(4))
	}
	tr := m.TraceScan(seq, 0)
	if tr.Cycles != len(seq) {
		t.Errorf("cycles = %d", tr.Cycles)
	}
	if tr.WindowCycles != 1024 {
		t.Errorf("default window = %d", tr.WindowCycles)
	}
	if tr.AvgActive <= 0 || tr.MaxActive < int(tr.AvgActive) {
		t.Errorf("activity stats implausible: %+v", tr)
	}
	if tr.Reports == 0 {
		t.Fatal("fixture should produce reports")
	}
	if tr.MaxReportsPerCycle < 1 || tr.BusiestWindow < tr.MaxReportsPerCycle {
		t.Errorf("report stats implausible: %+v", tr)
	}
	if tr.BusiestWindow > tr.Reports {
		t.Errorf("window cannot exceed total: %+v", tr)
	}
	// The trace's report count must agree with a plain simulator scan.
	if count := len(simulate(m, seq)); count != tr.Reports {
		t.Errorf("trace reports %d != simulator reports %d", tr.Reports, count)
	}
}

func TestEstimateEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	m, err := Compile(randSpecs(rng, 10, 20, 3), Options{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := m.EstimateEnergy(1_000_000, 0)
	e10 := m.EstimateEnergy(10_000_000, 0)
	if e1 <= 0 || e10 < 9*e1 {
		t.Errorf("energy must scale with input: %g vs %g", e1, e10)
	}
}
