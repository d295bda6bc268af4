// Package infant models iNFAnt2, the GPU NFA engine the paper evaluated
// (a descendant of iNFAnt, Cascarano et al.). iNFAnt-style engines store
// the NFA as symbol-indexed transition lists in GPU memory; for each
// input symbol, a thread block loads the current active-state frontier,
// gathers the transition list entries whose source is active, and
// scatters the destinations into the next frontier — one global
// synchronization per symbol. Throughput is therefore proportional to
// the number of concurrently active transitions, which is exactly why
// the paper found the mismatch lattice a poor fit for GPUs: unlike
// regex NFAs with small frontiers, the lattice keeps O(k^2) states per
// guide active at all times, and the frontier work dwarfs the symbol
// rate. Multiple thread blocks scan independent input slices.
//
// The package is a cost model: the sites come from the orchestrator's
// reference scan, and EstimateBreakdown prices it with per-transition
// and per-symbol constants set so a small-frontier workload approaches
// published iNFAnt2 throughput (~1 Gbps-class on a mid-2010s discrete
// GPU) and degrades linearly with frontier size. The average frontier
// is not assumed: Compile measures it by running the shared NFA
// simulator over a seeded sample input.
package infant

import (
	"fmt"
	"math/rand"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
)

// Device holds the GPU model constants.
type Device struct {
	// Blocks is the number of independent input slices scanned
	// concurrently (thread blocks with their own frontier).
	Blocks int
	// SymbolOverheadSec is the fixed per-symbol cost per block (frontier
	// swap + the implicit global synchronization).
	SymbolOverheadSec float64
	// TransitionsPerSec is the aggregate gather/scatter rate across the
	// device (global-memory bound).
	TransitionsPerSec float64
	// TransferBytesPerSec is PCIe input streaming.
	TransferBytesPerSec float64
	// CompileSec covers transition-table construction and upload.
	CompileSec float64
	// ReportCostSec is the host-side cost per match event read back.
	ReportCostSec float64
	// SampleLen is the seeded-sample length used to measure the average
	// frontier at compile time.
	SampleLen int
}

// DefaultGPU approximates the paper's discrete GPU.
var DefaultGPU = Device{
	Blocks:              96,
	SymbolOverheadSec:   120e-9,
	TransitionsPerSec:   2.5e10,
	TransferBytesPerSec: 12e9,
	CompileSec:          0.5,
	ReportCostSec:       2e-7,
	SampleLen:           1 << 16,
}

// Options controls compilation.
type Options struct {
	Device Device
	// MergeStates merges equivalent states before building transition
	// lists (shrinks the frontier).
	MergeStates bool
	// SampleSeed seeds the synthetic sample used to estimate frontier
	// size.
	SampleSeed int64
}

// Model is a compiled workload on the GPU NFA engine.
type Model struct {
	opt Options
	nfa *automata.NFA
	// avgActive is the measured mean frontier size (active states per
	// symbol) on the calibration sample.
	avgActive float64
	// avgFanout is the mean out-degree, converting frontier size to
	// transition-list work.
	avgFanout float64
}

// Compile builds the union automaton and measures its frontier.
func Compile(specs []arch.PatternSpec, opt Options) (*Model, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("infant: no patterns")
	}
	if opt.Device.Blocks == 0 {
		opt.Device = DefaultGPU
	}
	var parts []*automata.NFA
	for _, spec := range specs {
		n, err := automata.CompileHamming(spec.Spacer, automata.CompileOptions{
			MaxMismatches: spec.K, PAM: spec.PAM, PAMLeft: spec.PAMLeft, Code: spec.Code,
		})
		if err != nil {
			return nil, err
		}
		parts = append(parts, n)
	}
	u, err := automata.UnionAll("infant", parts)
	if err != nil {
		return nil, err
	}
	if opt.MergeStates {
		u, _ = automata.MergeEquivalent(u)
	}
	m := &Model{opt: opt, nfa: u}
	m.measureFrontier()
	return m, nil
}

// measureFrontier simulates a seeded uniform-random sample and records
// the mean active-state count and fanout.
func (m *Model) measureFrontier() {
	dev := m.opt.Device
	rng := rand.New(rand.NewSource(m.opt.SampleSeed + 1))
	sample := make([]uint8, dev.SampleLen)
	for i := range sample {
		sample[i] = uint8(rng.Intn(dna.AlphabetSize))
	}
	trace := automata.NewSim(m.nfa).ActivityTrace(sample)
	total := 0
	for _, c := range trace {
		total += c
	}
	m.avgActive = float64(total) / float64(len(trace))
	stats := m.nfa.ComputeStats()
	if stats.States > 0 {
		m.avgFanout = float64(stats.Edges) / float64(stats.States)
	}
	if m.avgFanout < 1 {
		m.avgFanout = 1
	}
}

// Name implements arch.Modeled.
func (m *Model) Name() string { return "infant2" }

// Resources implements arch.Modeled; the transition table is memory,
// not fabric, so spatial usage is empty.
func (m *Model) Resources() arch.ResourceUsage { return arch.ResourceUsage{} }

// EstimateBreakdown implements arch.Modeled: per-block fixed symbol
// cost (the serialization term) plus aggregate transition work.
func (m *Model) EstimateBreakdown(inputLen, reportCount int) arch.Breakdown {
	dev := m.opt.Device
	symbolsPerBlock := float64(inputLen) / float64(dev.Blocks)
	serial := symbolsPerBlock * dev.SymbolOverheadSec
	transitions := float64(inputLen) * m.avgActive * m.avgFanout
	gather := transitions / dev.TransitionsPerSec
	kernel := serial
	if gather > kernel {
		kernel = gather // the two resources overlap; the slower binds
	}
	return arch.Breakdown{
		Compile:  dev.CompileSec,
		Transfer: float64(inputLen) / dev.TransferBytesPerSec,
		Kernel:   kernel,
		Report:   float64(reportCount) * dev.ReportCostSec,
	}
}
