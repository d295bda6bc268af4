// Cas12a (Cpf1) off-target search: the same automata machinery with the
// enzyme's 5' TTTV PAM geometry — the PAM chain simply sits at the
// automaton's entry instead of its exit (the orientation machinery the
// minus strand already required). Also demonstrates the per-guide
// specificity summary used to rank guides.
//
//	go run ./examples/cas12a
package main

import (
	"fmt"
	"log"
	"os"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/report"
)

func main() {
	g := crisprscan.SynthesizeGenome(crisprscan.SynthConfig{
		Seed: 31, ChromLen: 2_000_000, RepeatRate: 0.15,
	})

	// Sample Cas12a guides: 23-nt spacers immediately 3' of a TTTV PAM.
	// SampleGuides finds spacers 5' of a PAM, so sample against the
	// minus strand's view: a plus-strand TTTV+spacer site reads, on the
	// minus strand, revcomp(spacer)+BAAA. Simpler: scan directly here.
	guides := sampleCas12a(g, 8)
	if len(guides) == 0 {
		log.Fatal("no Cas12a sites found in the synthetic genome")
	}

	res, err := crisprscan.Search(g, guides, crisprscan.Params{
		MaxMismatches: 3,
		PAM:           "TTTV",
		PAM5:          true, // Cas12a: PAM precedes the spacer
		Workers:       4,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Cas12a search: %d guides (23nt, TTTV 5' PAM), genome %d bp, k<=3\n", len(guides), g.TotalLen())
	fmt.Printf("sites found: %d in %.3f s on %s\n\n", len(res.Sites), res.Stats.ElapsedSec, res.Stats.Engine)

	summaries := report.Summarize(res.Sites, len(guides))
	fmt.Println("per-guide specificity (most specific first):")
	if err := report.WriteSummary(os.Stdout, orderSummaries(summaries), 3); err != nil {
		log.Fatal(err)
	}
}

// sampleCas12a extracts spacers that occur 3' of a genomic TTTV.
func sampleCas12a(g *crisprscan.Genome, n int) []crisprscan.Guide {
	const spacerLen = 23
	tttv := dna.MustParsePattern("TTTV")
	var guides []crisprscan.Guide
	for ci := range g.Chroms {
		seq := g.Chroms[ci].Bases()
		for i := 0; i+4+spacerLen <= len(seq) && len(guides) < n; i += 997 { // stride for diversity
			spacer := seq[i+4 : i+4+spacerLen]
			if tttv.Matches(seq[i:i+4]) && !spacer.HasAmbiguous() {
				guides = append(guides, crisprscan.Guide{
					Name:   fmt.Sprintf("cas12a-g%d", len(guides)),
					Spacer: spacer.String(),
				})
			}
		}
	}
	return guides
}

// orderSummaries applies the specificity ranking.
func orderSummaries(in []report.GuideSummary) []report.GuideSummary {
	order := report.RankBySpecificity(in)
	out := make([]report.GuideSummary, len(order))
	for rank, gi := range order {
		out[rank] = in[gi]
	}
	return out
}
