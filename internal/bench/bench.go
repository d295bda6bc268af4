// Package bench is the experiment harness: it generates the paper-shaped
// workloads, measures the CPU engines, evaluates the accelerator models,
// and renders the E1..E14 table/figure series that EXPERIMENTS.md
// documents. cmd/benchtab and the repository-level Go benchmarks drive
// it.
package bench

import (
	"context"
	"fmt"
	"io"
	"strings"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/core"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/hscan"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// Scale bundles the workload sizes of one run profile. The paper ran
// hg19 (3.1 Gbp); laptop-scale profiles shrink the genome while keeping
// every other dimension (guides, mismatches, PAM) at paper values, which
// preserves all per-base and per-guide ratios.
type Scale struct {
	Name      string
	GenomeLen int   // bases for E2/E3/E4/E6..E10
	GenomeSet []int // genome sweep for E5
	GuideSet  []int // guide sweep for E3
	Guides    int   // default guide count
	KSet      []int // mismatch sweep
	K         int   // default mismatch budget
}

// Scales are the selectable profiles.
var Scales = map[string]Scale{
	"test": {
		Name: "test", GenomeLen: 300_000,
		GenomeSet: []int{100_000, 300_000, 1_000_000},
		GuideSet:  []int{2, 10, 50}, Guides: 10,
		KSet: []int{1, 2, 3, 4, 5}, K: 3,
	},
	"default": {
		Name: "default", GenomeLen: 10_000_000,
		GenomeSet: []int{1_000_000, 10_000_000, 30_000_000},
		GuideSet:  []int{10, 100, 1000}, Guides: 100,
		KSet: []int{1, 2, 3, 4, 5}, K: 3,
	},
	"large": {
		Name: "large", GenomeLen: 100_000_000,
		GenomeSet: []int{10_000_000, 100_000_000, 300_000_000},
		GuideSet:  []int{10, 100, 1000}, Guides: 100,
		KSet: []int{1, 2, 3, 4, 5, 6}, K: 3,
	},
}

// SpacerLen and the PAM are fixed at Cas9 values throughout.
const SpacerLen = 20

// PAMString is the canonical Cas9 PAM.
const PAMString = "NGG"

// Workload is one experiment configuration: a synthetic genome and a
// guide set sampled from it (so each guide has an on-target site, as in
// real usage).
type Workload struct {
	Genome *genome.Genome
	Guides []dna.Pattern
	PAM    dna.Pattern
	K      int
	Seed   int64
}

// NewWorkload builds a deterministic workload.
func NewWorkload(genomeLen, numGuides, k int, seed int64) *Workload {
	g := genome.Synthesize(genome.SynthConfig{Seed: seed, ChromLen: genomeLen})
	pam := dna.MustParsePattern(PAMString)
	raw := genome.SampleGuides(g, numGuides, SpacerLen, pam, seed+1)
	if len(raw) < numGuides {
		// Tiny genomes may lack enough PAM sites; fall back to random
		// guides for the remainder.
		raw = append(raw, genome.RandomGuides(numGuides-len(raw), SpacerLen, seed+2)...)
	}
	guides := make([]dna.Pattern, len(raw))
	for i, r := range raw {
		guides[i] = dna.PatternFromSeq(r)
	}
	return &Workload{Genome: g, Guides: guides, PAM: pam, K: k, Seed: seed}
}

// Specs expands the workload into both-strand engine specs.
func (w *Workload) Specs() []arch.PatternSpec {
	return core.BuildSpecs(w.Guides, w.PAM, w.K, false)
}

// MeasureEngine wall-clocks one functional scan and returns seconds and
// the raw event count. Timing goes through the metrics package's
// monotonic clock, the module's single clock authority.
func MeasureEngine(w *Workload, e arch.Engine) (seconds float64, events int, err error) {
	seconds, err = metrics.MeasureSeconds(func() error {
		for ci := range w.Genome.Chroms {
			c := &w.Genome.Chroms[ci]
			if serr := arch.ScanChrom(context.Background(), e, c, func(automata.Report) { events++ }); serr != nil {
				return serr
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	return seconds, events, nil
}

// CountEvents runs the reference scan (the hscan prefilter, eight
// workers) to obtain the event count the accelerator models need,
// without charging its time to anyone.
func CountEvents(w *Workload) (int, error) {
	e, err := hscan.New(w.Specs(), hscan.ModePrefilter)
	if err != nil {
		return 0, err
	}
	e.Parallelism = 8
	events := 0
	for ci := range w.Genome.Chroms {
		c := &w.Genome.Chroms[ci]
		if err := arch.ScanChrom(context.Background(), e, c, func(automata.Report) { events++ }); err != nil {
			return 0, err
		}
	}
	return events, nil
}

// Table is one rendered experiment.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderCSV writes the table as CSV (header + rows).
func (t *Table) RenderCSV(w io.Writer) error {
	rows := append([][]string{t.Header}, t.Rows...)
	for _, row := range rows {
		for i, c := range row {
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			if _, err := io.WriteString(w, c); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// F renders a float compactly.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 1e-3:
		return fmt.Sprintf("%.3g", v)
	case v < 10:
		return fmt.Sprintf("%.3f", v)
	case v < 1000:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// I renders an int.
func I(v int) string { return fmt.Sprintf("%d", v) }

// X renders a speedup factor.
func X(v float64) string { return fmt.Sprintf("%.1fx", v) }
