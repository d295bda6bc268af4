package bench

import (
	"fmt"
	"io"

	"github.com/cap-repro/crisprscan/internal/ap"
	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/casoffinder"
	"github.com/cap-repro/crisprscan/internal/casot"
	"github.com/cap-repro/crisprscan/internal/core"
	"github.com/cap-repro/crisprscan/internal/dfa"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/fpga"
	"github.com/cap-repro/crisprscan/internal/genome"
	"github.com/cap-repro/crisprscan/internal/hscan"
	"github.com/cap-repro/crisprscan/internal/infant"
)

// measureCapBases bounds the genome prefix the single-thread measured
// engines scan directly; longer genomes are measured on the prefix and
// extrapolated linearly (their cost is strictly linear in bases). The
// cap keeps the full E-series runnable in minutes at default scale.
const measureCapBases = 2_000_000

// SystemTime is one system's kernel-level result on a workload.
type SystemTime struct {
	Name    string
	Seconds float64
	Modeled bool
}

// sliceWorkload returns a prefix-limited copy of w (first chromosome
// truncated to at most capBases) and the extrapolation factor.
func sliceWorkload(w *Workload, capBases int) (*Workload, float64) {
	total := w.Genome.TotalLen()
	if total <= capBases {
		return w, 1
	}
	c := w.Genome.Chroms[0]
	n := capBases
	if n > len(c.Seq) {
		n = len(c.Seq)
	}
	sub := genome.New(genome.Chromosome{Name: c.Name, Seq: c.Seq[:n]})
	return &Workload{Genome: sub, Guides: w.Guides, PAM: w.PAM, K: w.K, Seed: w.Seed}, float64(total) / float64(n)
}

// measureScaled measures e on a capped prefix and extrapolates.
func measureScaled(w *Workload, e arch.Engine) (float64, error) {
	sub, scale := sliceWorkload(w, measureCapBases)
	sec, _, err := MeasureEngine(sub, e)
	return sec * scale, err
}

// estimateEvents counts events on a capped prefix and extrapolates.
func estimateEvents(w *Workload) (int, error) {
	sub, scale := sliceWorkload(w, measureCapBases)
	n, err := CountEvents(sub)
	return int(float64(n) * scale), err
}

// AllSystems evaluates the paper's six systems on one workload and
// returns kernel-level seconds for each: measured wall-clock for the
// CPU engines (CasOT, the HyperScan-class engine), modeled device time
// for Cas-OFFinder's GPU, iNFAnt2, the FPGA and the AP.
func AllSystems(w *Workload) ([]SystemTime, error) {
	specs := w.Specs()
	events, err := estimateEvents(w)
	if err != nil {
		return nil, err
	}
	inputLen := w.Genome.TotalLen()
	var out []SystemTime

	co, err := casot.New(specs, casot.Options{SeedLen: 0, MaxSeedMismatches: w.K})
	if err != nil {
		return nil, err
	}
	sec, err := measureScaled(w, co)
	if err != nil {
		return nil, err
	}
	out = append(out, SystemTime{"casot (cpu, measured)", sec, false})

	gpu, err := casoffinder.NewGPUModel(specs, casoffinder.DefaultGPU)
	if err != nil {
		return nil, err
	}
	out = append(out, SystemTime{"cas-offinder (gpu, modeled)", gpu.EstimateBreakdown(inputLen, events).Kernel, true})

	hs, err := hscan.New(specs, hscan.ModePrefilter)
	if err != nil {
		return nil, err
	}
	sec, err = measureScaled(w, hs)
	if err != nil {
		return nil, err
	}
	out = append(out, SystemTime{"hyperscan (cpu, measured)", sec, false})

	inf, err := infant.Compile(specs, infant.Options{})
	if err != nil {
		return nil, err
	}
	out = append(out, SystemTime{"infant2 (gpu, modeled)", inf.EstimateBreakdown(inputLen, events).Kernel, true})

	fm, err := fpga.Compile(specs, fpga.Options{MergeStates: true})
	if err != nil {
		return nil, err
	}
	out = append(out, SystemTime{"fpga (modeled)", fm.EstimateBreakdown(inputLen, events).Kernel, true})

	am, err := ap.Compile(specs, ap.Options{MergeStates: true})
	if err != nil {
		return nil, err
	}
	out = append(out, SystemTime{"ap (modeled)", am.EstimateBreakdown(inputLen, events).Kernel, true})

	return out, nil
}

// E1 characterizes the automata per guide across mismatch budgets.
func E1(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E1",
		Title:  "Automata characterization per guide (20nt spacer + NGG, both strands)",
		Header: []string{"k", "NFA states", "merged STEs", "FPGA LUTs", "min-DFA states", "bitap words", "casot seed variants(k)"},
		Notes: []string{
			"NFA states: 2 strands x Hamming lattice + PAM chain, before merging.",
			"merged STEs: per-guide share of a 10-guide union after prefix/suffix merging.",
			"casot seed variants: Hamming ball enumerated for a 12nt seed at full budget k.",
		},
	}
	w := NewWorkload(100_000, 10, 0, 42)
	for _, k := range sc.KSet {
		if k > SpacerLen {
			continue
		}
		perGuide := 2 * automata.HammingStateCount(SpacerLen, k, len(w.PAM))
		specs := core.BuildSpecs(w.Guides, w.PAM, k, false)
		u, err := ap.Compile(specs, ap.Options{MergeStates: true})
		if err != nil {
			return nil, err
		}
		merged := u.Resources().States / len(w.Guides)
		fm, err := fpga.Compile(specs, fpga.Options{MergeStates: true})
		if err != nil {
			return nil, err
		}
		luts := fm.LUTsUsed() / len(w.Guides)
		single, err := automata.CompileHamming(w.Guides[0], automata.CompileOptions{MaxMismatches: k, PAM: w.PAM, Code: 0})
		if err != nil {
			return nil, err
		}
		d, err := dfa.FromNFA(single, dfa.BuildOptions{})
		if err != nil {
			return nil, err
		}
		minDFA := dfa.Minimize(d).NumStates()
		t.Rows = append(t.Rows, []string{
			I(k), I(perGuide), I(merged), I(luts), I(minDFA), I(2 * (k + 1)),
			I(casot.SeedVariantCount(12, k)),
		})
	}
	return t, nil
}

// E2 is the main figure: kernel time versus mismatch budget for all six
// systems.
func E2(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E2",
		Title:  fmt.Sprintf("Kernel time (s) vs mismatches, genome=%d bp, guides=%d", sc.GenomeLen, sc.Guides),
		Header: []string{"system"},
		Notes: []string{
			"measured = wall-clock on this host; modeled = analytic device time (DESIGN.md).",
			fmt.Sprintf("measured engines scan a %d bp prefix and extrapolate linearly.", measureCapBases),
		},
	}
	rows := make(map[string][]string)
	var order []string
	for _, k := range sc.KSet {
		t.Header = append(t.Header, fmt.Sprintf("k=%d", k))
		w := NewWorkload(sc.GenomeLen, sc.Guides, k, 1000+int64(k))
		systems, err := AllSystems(w)
		if err != nil {
			return nil, err
		}
		for _, s := range systems {
			if _, ok := rows[s.Name]; !ok {
				rows[s.Name] = []string{s.Name}
				order = append(order, s.Name)
			}
			rows[s.Name] = append(rows[s.Name], F(s.Seconds))
		}
	}
	for _, name := range order {
		t.Rows = append(t.Rows, rows[name])
	}
	return t, nil
}

// E3 sweeps the guide count at fixed k.
func E3(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E3",
		Title:  fmt.Sprintf("Kernel time (s) vs guide count, genome=%d bp, k=%d", sc.GenomeLen, sc.K),
		Header: []string{"system"},
		Notes:  []string{"brute force scales linearly with guides; spatial automata pay in capacity (passes), not time, until the board fills."},
	}
	rows := make(map[string][]string)
	var order []string
	for _, n := range sc.GuideSet {
		t.Header = append(t.Header, fmt.Sprintf("N=%d", n))
		w := NewWorkload(sc.GenomeLen, n, sc.K, 2000+int64(n))
		systems, err := AllSystems(w)
		if err != nil {
			return nil, err
		}
		for _, s := range systems {
			if _, ok := rows[s.Name]; !ok {
				rows[s.Name] = []string{s.Name}
				order = append(order, s.Name)
			}
			rows[s.Name] = append(rows[s.Name], F(s.Seconds))
		}
	}
	for _, name := range order {
		t.Rows = append(t.Rows, rows[name])
	}
	return t, nil
}

// E4 reports the headline speedups next to the abstract's targets.
func E4(sc Scale) (*Table, error) {
	w := NewWorkload(sc.GenomeLen, sc.Guides, sc.K, 4000)
	systems, err := AllSystems(w)
	if err != nil {
		return nil, err
	}
	byName := map[string]float64{}
	for _, s := range systems {
		byName[s.Name] = s.Seconds
	}
	casotT := byName["casot (cpu, measured)"]
	casoffT := byName["cas-offinder (gpu, modeled)"]
	hsT := byName["hyperscan (cpu, measured)"]
	infT := byName["infant2 (gpu, modeled)"]
	fpgaT := byName["fpga (modeled)"]
	apT := byName["ap (modeled)"]
	// The bitap path is a generic automaton, like the HyperScan library
	// the paper ran; the prefilter's PAM mask and pigeonhole screen have
	// no counterpart there. Timed as AllSystems times the prefilter.
	bitap, err := hscan.New(w.Specs(), hscan.ModeBitap)
	if err != nil {
		return nil, err
	}
	bitapT, err := measureScaled(w, bitap)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E4",
		Title:  fmt.Sprintf("Headline speedups, genome=%d bp, guides=%d, k=%d", sc.GenomeLen, sc.Guides, sc.K),
		Header: []string{"comparison", "measured/modeled here", "paper (abstract)"},
		Rows: [][]string{
			{"fpga vs cas-offinder(gpu)", X(casoffT / fpgaT), ">= 83x"},
			{"fpga vs casot(cpu)", X(casotT / fpgaT), ">= 600x"},
			{"ap vs fpga (kernel)", X(fpgaT / apT), "~1.5x"},
			{"hyperscan vs casot", X(casotT / hsT), ">= 29.7x"},
			{"infant2 vs hyperscan", X(hsT / infT), "<= 4.4x (best case)"},
			{"infant2 vs hyperscan (bitap)", X(bitapT / infT), "<= 4.4x (best case)"},
			{"infant2 vs cas-offinder(gpu)", X(casoffT / infT), "not consistently > 1x"},
		},
		Notes: []string{
			"measured CPU engines here are Go reimplementations; the paper's CasOT was Perl,",
			"which compresses the hyperscan/casot gap relative to the paper (see EXPERIMENTS.md).",
		},
	}
	return t, nil
}

// E5 sweeps genome size.
func E5(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  fmt.Sprintf("Kernel time (s) vs genome size, guides=%d, k=%d", sc.Guides, sc.K),
		Header: []string{"system"},
		Notes:  []string{"all systems are linear in genome length; ratios are size-invariant, which is what lets reduced-scale runs stand in for hg19."},
	}
	rows := make(map[string][]string)
	var order []string
	for _, gl := range sc.GenomeSet {
		t.Header = append(t.Header, fmt.Sprintf("G=%gMbp", float64(gl)/1e6))
		w := NewWorkload(gl, sc.Guides, sc.K, 5000+int64(gl%997))
		systems, err := AllSystems(w)
		if err != nil {
			return nil, err
		}
		for _, s := range systems {
			if _, ok := rows[s.Name]; !ok {
				rows[s.Name] = []string{s.Name}
				order = append(order, s.Name)
			}
			rows[s.Name] = append(rows[s.Name], F(s.Seconds))
		}
	}
	for _, name := range order {
		t.Rows = append(t.Rows, rows[name])
	}
	return t, nil
}

// E6 decomposes end-to-end time for the modeled platforms.
func E6(sc Scale) (*Table, error) {
	w := NewWorkload(sc.GenomeLen, sc.Guides, sc.K, 6000)
	events, err := estimateEvents(w)
	if err != nil {
		return nil, err
	}
	specs := w.Specs()
	inputLen := w.Genome.TotalLen()
	t := &Table{
		ID:     "E6",
		Title:  fmt.Sprintf("End-to-end breakdown (s), genome=%d bp, guides=%d, k=%d, events~%d", inputLen, sc.Guides, sc.K, events),
		Header: []string{"platform", "compile(offline)", "transfer", "kernel", "report", "online", "online(overlap)"},
		Notes: []string{
			"compile is a one-time cost (FPGA synthesis, AP place&route) excluded from the online totals, as in the paper's kernel comparisons.",
			"online(overlap) double-buffers input against the kernel — the paper's proposed transfer hiding; max(transfer,kernel)+report.",
		},
	}
	add := func(name string, b arch.Breakdown) {
		t.Rows = append(t.Rows, []string{name, F(b.Compile), F(b.Transfer), F(b.Kernel), F(b.Report), F(b.Online()), F(b.OnlineOverlapped())})
	}
	gpu, err := casoffinder.NewGPUModel(specs, casoffinder.DefaultGPU)
	if err != nil {
		return nil, err
	}
	add("cas-offinder-gpu", gpu.EstimateBreakdown(inputLen, events))
	inf, err := infant.Compile(specs, infant.Options{})
	if err != nil {
		return nil, err
	}
	add("infant2", inf.EstimateBreakdown(inputLen, events))
	fm, err := fpga.Compile(specs, fpga.Options{MergeStates: true})
	if err != nil {
		return nil, err
	}
	add("fpga", fm.EstimateBreakdown(inputLen, events))
	am, err := ap.Compile(specs, ap.Options{MergeStates: true})
	if err != nil {
		return nil, err
	}
	add("ap", am.EstimateBreakdown(inputLen, events))
	return t, nil
}

// E7 sweeps guide count into AP capacity overflow.
func E7(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("AP capacity and multi-pass behavior, k=%d, genome=%d bp", sc.K, sc.GenomeLen),
		Header: []string{"guides", "STEs", "board util", "streams", "passes", "kernel (s)"},
		Notes:  []string{"one D480 board = 32 chips x 49,152 STEs; small designs replicate across chips, oversized designs re-stream the input."},
	}
	// Calibrate the merged per-guide STE cost on a 100-guide union, then
	// plan larger placements analytically (cross-guide merging beyond
	// shared start states is negligible for random guides, so the
	// per-guide cost is stable in N).
	raw := genome.RandomGuides(100, SpacerLen, 7000)
	guides := make([]dna.Pattern, len(raw))
	for i, r := range raw {
		guides[i] = dna.PatternFromSeq(r)
	}
	specs := core.BuildSpecs(guides, dna.MustParsePattern(PAMString), sc.K, false)
	m, err := ap.Compile(specs, ap.Options{MergeStates: true})
	if err != nil {
		return nil, err
	}
	perGuide := float64(m.Resources().States) / 100
	for _, n := range []int{100, 1000, 4000, 12000, 30000, 100000} {
		states := int(perGuide * float64(n))
		res, streams := ap.PlaceStates(states, ap.D480Board)
		kernel := ap.KernelSeconds(sc.GenomeLen, res, streams, ap.D480Board)
		t.Rows = append(t.Rows, []string{
			I(n), I(states), fmt.Sprintf("%.1f%%", res.Utilization()*100),
			I(streams), I(res.Passes), F(kernel),
		})
	}
	return t, nil
}

// E8 is the prefix/suffix-merging ablation.
func E8(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E8",
		Title:  fmt.Sprintf("Ablation: state merging (proposed STE reduction), guides=%d", sc.Guides),
		Header: []string{"k", "STEs unmerged", "STEs merged", "reduction", "AP kernel unmerged (s)", "AP kernel merged (s)"},
	}
	w := NewWorkload(200_000, sc.Guides, 0, 8000)
	for _, k := range sc.KSet {
		specs := core.BuildSpecs(w.Guides, w.PAM, k, false)
		plain, err := ap.Compile(specs, ap.Options{})
		if err != nil {
			return nil, err
		}
		merged, err := ap.Compile(specs, ap.Options{MergeStates: true})
		if err != nil {
			return nil, err
		}
		ps, ms := plain.Resources().States, merged.Resources().States
		bp := plain.EstimateBreakdown(sc.GenomeLen, 0)
		bm := merged.EstimateBreakdown(sc.GenomeLen, 0)
		t.Rows = append(t.Rows, []string{
			I(k), I(ps), I(ms), fmt.Sprintf("%.1f%%", 100*(1-float64(ms)/float64(ps))),
			F(bp.Kernel), F(bm.Kernel),
		})
	}
	return t, nil
}

// E9 is the multi-striding ablation on the FPGA.
func E9(sc Scale) (*Table, error) {
	t := &Table{
		ID:     "E9",
		Title:  fmt.Sprintf("Ablation: 2-striding on the FPGA, guides=%d, k=%d, genome=%d bp", sc.Guides, sc.K, sc.GenomeLen),
		Header: []string{"design", "states", "LUTs", "streams", "kernel (s)", "vs stride-1"},
		Notes:  []string{"striding halves cycles per base but costs fabric; the win depends on whether replication head-room absorbs the state growth."},
	}
	w := NewWorkload(200_000, sc.Guides, sc.K, 9000)
	specs := core.BuildSpecs(w.Guides, w.PAM, sc.K, false)
	s1, err := fpga.Compile(specs, fpga.Options{MergeStates: true})
	if err != nil {
		return nil, err
	}
	s2, err := fpga.Compile(specs, fpga.Options{MergeStates: true, Stride2: true})
	if err != nil {
		return nil, err
	}
	b1 := s1.EstimateBreakdown(sc.GenomeLen, 0)
	b2 := s2.EstimateBreakdown(sc.GenomeLen, 0)
	t.Rows = append(t.Rows, []string{"stride-1", I(s1.Resources().States), I(s1.LUTsUsed()), I(s1.Streams()), F(b1.Kernel), "1.0x"})
	t.Rows = append(t.Rows, []string{"stride-2", I(s2.Resources().States), I(s2.LUTsUsed()), I(s2.Streams()), F(b2.Kernel), X(b1.Kernel / b2.Kernel)})
	return t, nil
}

// E10 is the reporting-bottleneck study: how output-event density
// interacts with the AP's drain granularity. Off-target search is
// normally report-sparse, but repeat-rich genomes and permissive
// budgets push the event rate up, and the AP's output path (not its
// compute) becomes the wall — the bottleneck Wadden et al. (HPCA 2018)
// characterize and that the paper's report-aggregation proposal
// addresses.
func E10(sc Scale) (*Table, error) {
	w := NewWorkload(200_000, sc.Guides, sc.K, 10000)
	specs := w.Specs()
	t := &Table{
		ID:     "E10",
		Title:  fmt.Sprintf("AP reporting cost vs event density and drain aggregation, genome=%d bp", sc.GenomeLen),
		Header: []string{"events/base", "drain batch", "report time (s)", "kernel (s)", "report share"},
		Notes: []string{
			"batch=1 models per-event draining; 64 an output-region vector read;",
			"1024 the paper-proposed on-chip aggregation/compression of report vectors.",
		},
	}
	for _, rate := range []float64{1e-5, 1e-3, 1e-1} {
		events := int(rate * float64(sc.GenomeLen))
		for _, batch := range []int{1, 64, 1024} {
			dev := ap.D480Board
			dev.ReportBatchSize = batch
			m, err := ap.Compile(specs, ap.Options{Device: dev, MergeStates: true})
			if err != nil {
				return nil, err
			}
			b := m.EstimateBreakdown(sc.GenomeLen, events)
			share := b.Report / (b.Report + b.Kernel)
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%.0e", rate), I(batch), F(b.Report), F(b.Kernel),
				fmt.Sprintf("%.1f%%", share*100),
			})
		}
	}
	return t, nil
}

// E12 measures the bulge-tolerant (edit distance) extension.
func E12(sc Scale) (*Table, error) {
	gl := sc.GenomeLen
	if gl > 1_000_000 {
		gl = 1_000_000
	}
	w := NewWorkload(gl, 10, 2, 11000)
	t := &Table{
		ID:     "E12",
		Title:  fmt.Sprintf("Bulge-tolerant search cost, genome=%d bp, 10 guides, k=2", gl),
		Header: []string{"bulge budget", "NFA states/guide", "sites", "time (s)"},
		Notes:  []string{"edit automata run on the NFA simulation engine; state growth and hit growth are the costs of bulge tolerance."},
	}
	for _, b := range []int{0, 1, 2} {
		n, err := automata.CompileEdit(w.Guides[0], automata.EditOptions{
			MaxMismatches: 2, MaxBulge: b, PAM: w.PAM, Code: 0,
		})
		if err != nil {
			return nil, err
		}
		sites, sec, err := core.BulgeElapsed(w.Genome, w.Guides, core.BulgeParams{
			MaxMismatches: 2, MaxBulge: b,
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{I(b), I(2 * n.NumStates()), I(len(sites)), F(sec)})
	}
	return t, nil
}

// E13 measures the seed-and-extend blowup directly: CasOT's naive scan
// versus its seed-index variant as the mismatch budget grows. The index
// wins while the Hamming ball is small and collapses combinatorially at
// high k — the quantitative version of the paper's "especially when one
// allows more differences" motivation.
func E13(sc Scale) (*Table, error) {
	gl := sc.GenomeLen
	if gl > 500_000 {
		gl = 500_000
	}
	w := NewWorkload(gl, 10, 0, 13000)
	t := &Table{
		ID:     "E13",
		Title:  fmt.Sprintf("Seed-index blowup (measured), genome=%d bp, 10 guides, seed=12", gl),
		Header: []string{"k", "seed variants", "casot naive (s)", "casot index (s)", "index vs naive"},
		Notes: []string{
			"the index enumerates the seed's Hamming ball, so its time grows with k while the naive scan stays flat;",
			"at this genome scale the per-chromosome index build dominates — on gigabase genomes (amortized index) the index wins at small k and still collapses at large k.",
		},
	}
	for _, k := range sc.KSet {
		if k > SpacerLen {
			continue
		}
		specs := core.BuildSpecs(w.Guides, w.PAM, k, false)
		naive, err := casot.New(specs, casot.Options{SeedLen: 12, MaxSeedMismatches: k})
		if err != nil {
			return nil, err
		}
		nSec, _, err := MeasureEngine(w, naive)
		if err != nil {
			return nil, err
		}
		indexed, err := casot.NewIndex(specs, casot.Options{SeedLen: 12, MaxSeedMismatches: k})
		if err != nil {
			return nil, err
		}
		iSec, _, err := MeasureEngine(w, indexed)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			I(k), I(casot.SeedVariantCount(12, k)), F(nSec), F(iSec), X(nSec / iSec),
		})
	}
	return t, nil
}

// E14 projects the paper's proposed future automata hardware: the D480
// versus a device with a DDR4-rate symbol clock, denser STE arrays, and
// on-chip report aggregation — with and without native 2-striding. The
// workload is report-heavy (1e-3 events/base) so the output-path
// improvements are visible alongside the clock.
func E14(sc Scale) (*Table, error) {
	w := NewWorkload(200_000, sc.Guides, sc.K, 14000)
	specs := w.Specs()
	events := int(1e-3 * float64(sc.GenomeLen))
	t := &Table{
		ID:     "E14",
		Title:  fmt.Sprintf("Future automata hardware projection, genome=%d bp, guides=%d, k=%d, events/base=1e-3", sc.GenomeLen, sc.Guides, sc.K),
		Header: []string{"device", "STEs", "streams", "kernel (s)", "report (s)", "online total (s)", "vs D480"},
		Notes: []string{
			"future device: 400 MHz symbol clock, 2x STE density, wider+faster report aggregation (the paper's proposed modifications);",
			"stride-2 rows additionally assume native multi-symbol consumption, which the shipped D480 cannot do.",
		},
	}
	var baseline float64
	for _, row := range []struct {
		name    string
		dev     ap.Device
		stride2 bool
	}{
		{"d480", ap.D480Board, false},
		{"d480 + stride-2", ap.D480Board, true},
		{"future", ap.FutureBoard, false},
		{"future + stride-2", ap.FutureBoard, true},
	} {
		m, err := ap.Compile(specs, ap.Options{Device: row.dev, MergeStates: true, Stride2: row.stride2})
		if err != nil {
			return nil, err
		}
		b := m.EstimateBreakdown(sc.GenomeLen, events)
		online := b.Transfer + b.Kernel + b.Report
		if baseline == 0 {
			baseline = online
		}
		t.Rows = append(t.Rows, []string{
			row.name, I(m.Resources().States), I(m.Streams()),
			F(b.Kernel), F(b.Report), F(online), X(baseline / online),
		})
	}
	return t, nil
}

// Experiments maps experiment ids to their implementations.
var Experiments = map[string]func(Scale) (*Table, error){
	"1": E1, "2": E2, "3": E3, "4": E4, "5": E5,
	"6": E6, "7": E7, "8": E8, "9": E9, "10": E10, "12": E12, "13": E13, "14": E14,
}

// Order is the canonical experiment order.
var Order = []string{"1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "12", "13", "14"}

// Run executes one experiment and renders it.
func Run(id string, sc Scale, w io.Writer, csv bool) error {
	fn, ok := Experiments[id]
	if !ok {
		return fmt.Errorf("bench: unknown experiment %q", id)
	}
	t, err := fn(sc)
	if err != nil {
		return err
	}
	if csv {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}

// RunAll executes the full series.
func RunAll(sc Scale, w io.Writer, csv bool) error {
	for _, id := range Order {
		if err := Run(id, sc, w, csv); err != nil {
			return err
		}
	}
	return nil
}
