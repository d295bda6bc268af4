package automata

import (
	"math/bits"

	"github.com/cap-repro/crisprscan/internal/dna"
)

// DeadSymbol is an input symbol value that matches no character class.
// Ambiguous genome positions (N) are fed to the simulator as DeadSymbol,
// which kills every in-flight partial match crossing them — the same
// semantics Cas-OFFinder and CasOT apply to reference Ns.
const DeadSymbol uint8 = 0xFF

// Report is one match event from a simulation: the match for report code
// Code ended at input index End (0-based index of the last consumed
// symbol, in stride-1 input coordinates).
type Report struct {
	Code int32
	End  int
	// Mid marks a ReportMid event from a strided automaton: the match
	// ended one stride-1 symbol before the end of the consumed chunk.
	// ScanStride2 consumes this flag when converting coordinates.
	Mid bool
}

// Sim is a bitset-based simulator for a homogeneous NFA. It is the
// functional reference implementation: every platform model produces
// match sets identical to Sim's by construction or by test.
type Sim struct {
	n     *NFA
	words int
	// classHit[s] is the bitset of states whose class contains symbol s.
	classHit [][]uint64
	// startAll is the bitset of AllInput start states; startSOD the
	// bitset of StartOfData starts.
	startAll []uint64
	startSOD []uint64
	// reportAny is the bitset of states with Report or ReportMid set.
	reportAny []uint64

	// scratch buffers reused across Scan calls.
	active, next []uint64
}

// NewSim prepares simulation tables for n.
func NewSim(n *NFA) *Sim {
	words := (len(n.States) + 63) / 64
	s := &Sim{
		n:         n,
		words:     words,
		classHit:  make([][]uint64, n.Alphabet),
		startAll:  make([]uint64, words),
		startSOD:  make([]uint64, words),
		reportAny: make([]uint64, words),
		active:    make([]uint64, words),
		next:      make([]uint64, words),
	}
	for sym := range s.classHit {
		s.classHit[sym] = make([]uint64, words)
	}
	for i := range n.States {
		st := &n.States[i]
		w, b := i/64, uint(i%64)
		for sym := 0; sym < n.Alphabet; sym++ {
			if st.Class.HasSym(uint8(sym)) {
				s.classHit[sym][w] |= 1 << b
			}
		}
		switch st.Start {
		case AllInput:
			s.startAll[w] |= 1 << b
		case StartOfData:
			s.startSOD[w] |= 1 << b
		}
		if st.Report != NoReport || st.ReportMid != NoReport {
			s.reportAny[w] |= 1 << b
		}
	}
	return s
}

// Scan runs the automaton over input and calls emit for every report.
// Input symbols must be < Alphabet or DeadSymbol. emit receives match
// end positions in input-index coordinates. The scratch bitsets are
// preallocated in NewSim, so a scan allocates nothing.
//
//crisprlint:hotpath
func (s *Sim) Scan(input []uint8, emit func(Report)) {
	for i := range s.active {
		s.active[i] = 0
	}
	states := s.n.States
	alphabet := s.n.Alphabet
	// Hoist the bitset fields into locals once: emit is an opaque call,
	// so the compiler would otherwise reload them from s every
	// iteration. The re-slices pin each length to the buffer width so
	// the prove pass can drop the per-word bounds checks (all four
	// bitsets are allocated words long in NewSim).
	active, next := s.active, s.next
	words := len(next)
	startAll := s.startAll
	startAll = startAll[:words]
	reportAny := s.reportAny
	reportAny = reportAny[:words]
	for t, sym := range input {
		next = next[:words]
		// Seed with start states (StartOfData only at t==0).
		if t == 0 {
			copy(next, s.startSOD)
			for w := range next {
				next[w] |= startAll[w]
			}
		} else {
			copy(next, startAll)
		}
		// Union in the successors of currently active states.
		for w, word := range active {
			for word != 0 {
				idx := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				for _, v := range states[idx].Out {
					next[v/64] |= 1 << (v % 64)
				}
			}
		}
		// Gate by the character class of the consumed symbol.
		if sym == DeadSymbol || int(sym) >= alphabet {
			for w := range next {
				next[w] = 0
			}
		} else {
			hit := s.classHit[sym]
			hit = hit[:words]
			anyReport := false
			for w := range next {
				next[w] &= hit[w]
				if next[w]&reportAny[w] != 0 {
					anyReport = true
				}
			}
			if anyReport {
				for w := range next {
					rep := next[w] & reportAny[w]
					for rep != 0 {
						idx := w*64 + bits.TrailingZeros64(rep)
						rep &= rep - 1
						st := &states[idx]
						if st.Report != NoReport {
							emit(Report{Code: st.Report, End: t})
						}
						if st.ReportMid != NoReport {
							emit(Report{Code: st.ReportMid, End: t, Mid: true})
						}
					}
				}
			}
		}
		active, next = next, active
	}
	s.active, s.next = active, next
}

// ScanCollect runs Scan and returns all reports.
func (s *Sim) ScanCollect(input []uint8) []Report {
	var out []Report
	s.Scan(input, func(r Report) { out = append(out, r) })
	return out
}

// ActivityTrace runs the automaton and returns, per input position, the
// number of active states after consuming that symbol. This drives the
// iNFAnt2 GPU cost model, whose per-symbol work is proportional to the
// active transition count.
func (s *Sim) ActivityTrace(input []uint8) []int {
	trace := make([]int, len(input))
	for i := range s.active {
		s.active[i] = 0
	}
	states := s.n.States
	for t, sym := range input {
		next := s.next
		if t == 0 {
			copy(next, s.startSOD)
			for w := range next {
				next[w] |= s.startAll[w]
			}
		} else {
			copy(next, s.startAll)
		}
		for w, word := range s.active {
			for word != 0 {
				idx := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				for _, v := range states[idx].Out {
					next[v/64] |= 1 << (v % 64)
				}
			}
		}
		count := 0
		if sym != DeadSymbol && int(sym) < s.n.Alphabet {
			hit := s.classHit[sym]
			for w := range next {
				next[w] &= hit[w]
				count += bits.OnesCount64(next[w])
			}
		} else {
			for w := range next {
				next[w] = 0
			}
		}
		trace[t] = count
		s.active, s.next = next, s.active
	}
	return trace
}

// SymbolsOfSeq converts base codes to simulator symbols. Ambiguous bases
// (dna.BadBase == 0xFF) become DeadSymbol (also 0xFF) so partial matches
// crossing them die.
func SymbolsOfSeq(seq dna.Seq) []uint8 {
	out := make([]uint8, len(seq))
	for i, b := range seq {
		out[i] = uint8(b)
	}
	return out
}
