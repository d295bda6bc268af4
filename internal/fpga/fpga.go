// Package fpga models the paper's FPGA automata overlay, in the style
// of REAPR (Xie et al.): each homogeneous-NFA state becomes one
// LUT/flip-flop pair (the LUT decodes the character class and gates the
// activation OR-tree, the FF holds the active bit), all states clock in
// lockstep consuming one symbol per cycle, and spare fabric is spent
// replicating the whole design so multiple genome slices stream in
// parallel. The device constants default to a Kintex UltraScale KU115,
// the part REAPR-class overlays were published on.
//
// As with the AP, the hardware is substituted (DESIGN.md) by a cost
// model: Compile builds and maps the network the overlay would run, and
// EstimateBreakdown prices the orchestrator's reference scan with the
// clocked analytic model — which is faithful because a spatial automata
// pipeline has data-independent throughput.
package fpga

import (
	"fmt"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
)

// Device holds the FPGA part and board constants.
type Device struct {
	// LUTs is the part's LUT count (KU115: 663,360).
	LUTs int
	// UsableFraction discounts routing/overlay infrastructure overhead.
	UsableFraction float64
	// LUTsPerState is the fabric cost of one NFA state (class decode +
	// activation OR + FF; fan-in beyond 6 costs extra LUTs, folded into
	// the average here).
	LUTsPerState float64
	// ClockHz is the achieved overlay clock (REAPR-class designs close
	// timing around 250 MHz).
	ClockHz float64
	// MaxStreams caps replication (bounded by memory-interface
	// bandwidth feeding independent input streams).
	MaxStreams int
	// SynthesisSec is the offline place-and-route cost.
	SynthesisSec float64
	// StreamBytesPerSec is the per-board input bandwidth.
	StreamBytesPerSec float64
	// ReportCostSec is the host-side cost per report read-back; the
	// overlay buffers reports in BRAM FIFOs so there is no kernel stall.
	ReportCostSec float64
}

// KU115 is the default device.
var KU115 = Device{
	LUTs:              663360,
	UsableFraction:    0.70,
	LUTsPerState:      1.6,
	ClockHz:           250e6,
	MaxStreams:        16,
	SynthesisSec:      3600,
	StreamBytesPerSec: 4e9,
	ReportCostSec:     1e-7,
}

// Options controls compilation.
type Options struct {
	Device Device
	// MergeStates applies prefix/suffix merging before mapping.
	MergeStates bool
	// Stride2 maps the 2-strided automaton: half the cycles per base
	// for roughly 2.5-3x the states — the throughput optimization the
	// paper proposes for spatial architectures (E9 ablation).
	Stride2 bool
}

// Model is a compiled workload on the FPGA overlay.
type Model struct {
	opt            Options
	nfa            *automata.NFA
	res            arch.ResourceUsage
	streams        int
	symbolsPerBase float64
}

// Compile builds and maps the automata network.
func Compile(specs []arch.PatternSpec, opt Options) (*Model, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("fpga: no patterns")
	}
	if opt.Device.LUTs == 0 {
		opt.Device = KU115
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
	u, err := automata.UnionAll("fpga", parts)
	if err != nil {
		return nil, err
	}
	if opt.MergeStates {
		u, _ = automata.MergeEquivalent(u)
	}
	m := &Model{opt: opt, symbolsPerBase: 1}
	m.nfa = u
	if opt.Stride2 {
		s2, err := automata.Multistride2(u)
		if err != nil {
			return nil, err
		}
		if opt.MergeStates {
			s2, _ = automata.MergeEquivalent(s2)
		}
		m.nfa = s2
		m.symbolsPerBase = 0.5
	}
	m.place()
	return m, nil
}

func (m *Model) place() {
	dev := m.opt.Device
	states := m.nfa.ComputeStats().States
	usable := int(float64(dev.LUTs) * dev.UsableFraction)
	lutsPerCopy := int(float64(states) * dev.LUTsPerState)
	passes := 1
	streams := 1
	if lutsPerCopy <= usable {
		streams = usable / lutsPerCopy
		if streams > dev.MaxStreams {
			streams = dev.MaxStreams
		}
		if streams < 1 {
			streams = 1
		}
	} else {
		passes = (lutsPerCopy + usable - 1) / usable
	}
	m.streams = streams
	m.res = arch.ResourceUsage{
		States:       states,
		Capacity:     int(float64(usable) / dev.LUTsPerState),
		Passes:       passes,
		ReportStates: m.nfa.ComputeStats().ReportStates,
	}
}

// Name implements arch.Modeled.
func (m *Model) Name() string {
	if m.opt.Stride2 {
		return "fpga-stride2"
	}
	return "fpga"
}

// Resources implements arch.Modeled.
func (m *Model) Resources() arch.ResourceUsage { return m.res }

// Streams reports the achieved replication factor.
func (m *Model) Streams() int { return m.streams }

// LUTsUsed reports the fabric demand of one design copy.
func (m *Model) LUTsUsed() int {
	return int(float64(m.res.States) * m.opt.Device.LUTsPerState)
}

// EstimateBreakdown implements arch.Modeled.
func (m *Model) EstimateBreakdown(inputLen, reportCount int) arch.Breakdown {
	dev := m.opt.Device
	symbols := float64(inputLen) * m.symbolsPerBase
	kernel := symbols * float64(m.res.Passes) / (dev.ClockHz * float64(m.streams))
	return arch.Breakdown{
		Compile:  dev.SynthesisSec,
		Transfer: symbols / dev.StreamBytesPerSec,
		Kernel:   kernel,
		Report:   float64(reportCount) * dev.ReportCostSec,
	}
}
