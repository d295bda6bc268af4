package seedindex

import (
	"bytes"
	"context"
	"testing"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// BenchmarkQuery120GuidesK5 is a one-shot query past the index's
// crossover: 120 guides on both strands at k = 5 against a 6 × 1 Mbp
// index read back from its encoding. Each op compiles the engine,
// resolves its keys and scans every chromosome of the index's genome.
// Run it with -benchtime 8x -count 3.
func BenchmarkQuery120GuidesK5(b *testing.B) {
	g := genome.Synthesize(genome.SynthConfig{Seed: 77, NumChroms: 6, ChromLen: 1_000_000})
	built, err := Build(g, 0)
	if err != nil {
		b.Fatal(err)
	}
	ix, err := Read(bytes.NewReader(built.Encode()))
	if err != nil {
		b.Fatal(err)
	}
	pam := dna.MustParsePattern("NGG")
	var specs []arch.PatternSpec
	for gi, spacer := range genome.SampleGuides(g, 120, 20, pam, 78) {
		plus := arch.PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: 5, Code: int32(2 * gi)}
		specs = append(specs, plus, plus.MinusSpec(int32(2*gi+1)))
	}
	own := ix.Genome()
	sites := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := New(specs, ix, Options{})
		if err != nil {
			b.Fatal(err)
		}
		for ci := range own.Chroms {
			if err := e.ScanChrom(context.Background(), &own.Chroms[ci], func(automata.Report) { sites++ }); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(sites)/float64(b.N), "events/op")
}
