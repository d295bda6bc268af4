// Package dfa determinizes homogeneous NFAs and minimizes the result.
// Deterministic automata are how high-performance CPU automata libraries
// (HyperScan's McClellan engines, and classic tools like RE2) execute
// small pattern sets: one table lookup per input byte, no active-set
// bookkeeping. The E1 characterization table reports minimized DFA
// sizes next to NFA/STE counts; Scan runs a DFA so tests can show the
// minimized automaton accepts the NFA's language.
package dfa

import (
	"fmt"
	"math/bits"
	"sort"

	"github.com/cap-repro/crisprscan/internal/automata"
)

// DFA is a dense-table deterministic automaton. Symbol values must be
// < Alphabet; automata.DeadSymbol is handled by an extra implicit column
// that behaves like "no class matches" (all in-flight matches die, the
// always-on starts re-arm).
type DFA struct {
	Alphabet int
	// Trans is row-major: Trans[state*Alphabet + symbol] = next state.
	Trans []int32
	// Reports[state] lists the report codes firing when the automaton
	// enters state (match ends at the consumed symbol).
	Reports [][]int32
	// Start is the state before any input is consumed.
	Start int32
	// Empty is the state representing "no NFA state active"; dead input
	// symbols jump here. For all-input-start automata Empty == Start.
	Empty int32
}

// NumStates returns the DFA state count.
func (d *DFA) NumStates() int { return len(d.Reports) }

// BuildOptions controls subset construction.
type BuildOptions struct {
	// MaxStates aborts construction when exceeded (guards against
	// exponential blowup). 0 means the default of 1<<20.
	MaxStates int
}

// FromNFA determinizes n by subset construction. Only all-input-start
// and plain states are supported (start-of-data anchoring is not needed
// for genome scanning and is rejected).
func FromNFA(n *automata.NFA, opt BuildOptions) (*DFA, error) {
	maxStates := opt.MaxStates
	if maxStates <= 0 {
		maxStates = 1 << 20
	}
	for i := range n.States {
		if n.States[i].Start == automata.StartOfData {
			return nil, fmt.Errorf("dfa: start-of-data states are not supported")
		}
		if n.States[i].ReportMid != automata.NoReport {
			return nil, fmt.Errorf("dfa: mid-symbol reports are not supported")
		}
	}
	words := (len(n.States) + 63) / 64
	classHit := make([][]uint64, n.Alphabet)
	for s := range classHit {
		classHit[s] = make([]uint64, words)
	}
	startAll := make([]uint64, words)
	for i := range n.States {
		st := &n.States[i]
		w, b := i/64, uint(i%64)
		for s := 0; s < n.Alphabet; s++ {
			if st.Class.HasSym(uint8(s)) {
				classHit[s][w] |= 1 << b
			}
		}
		if st.Start == automata.AllInput {
			startAll[w] |= 1 << b
		}
	}

	key := func(set []uint64) string {
		buf := make([]byte, 8*len(set))
		for i, w := range set {
			for j := 0; j < 8; j++ {
				buf[8*i+j] = byte(w >> (8 * j))
			}
		}
		return string(buf)
	}

	d := &DFA{Alphabet: n.Alphabet}
	index := map[string]int32{}
	var sets [][]uint64

	intern := func(set []uint64) int32 {
		k := key(set)
		if id, ok := index[k]; ok {
			return id
		}
		id := int32(len(sets))
		index[k] = id
		sets = append(sets, append([]uint64(nil), set...))
		var reps []int32
		for w, word := range set {
			for word != 0 {
				i := w*64 + bits.TrailingZeros64(word)
				word &= word - 1
				if r := n.States[i].Report; r != automata.NoReport {
					reps = append(reps, r)
				}
			}
		}
		sort.Slice(reps, func(a, b int) bool { return reps[a] < reps[b] })
		d.Reports = append(d.Reports, reps)
		return id
	}

	empty := make([]uint64, words)
	d.Start = intern(empty)
	d.Empty = d.Start

	succ := make([]uint64, words)
	for done := 0; done < len(sets); done++ {
		if len(sets) > maxStates {
			return nil, fmt.Errorf("dfa: state count exceeded limit %d", maxStates)
		}
		cur := sets[done]
		row := make([]int32, n.Alphabet)
		for sym := 0; sym < n.Alphabet; sym++ {
			copy(succ, startAll)
			for w, word := range cur {
				for word != 0 {
					i := w*64 + bits.TrailingZeros64(word)
					word &= word - 1
					for _, v := range n.States[i].Out {
						succ[v/64] |= 1 << (v % 64)
					}
				}
			}
			hit := classHit[sym]
			for w := range succ {
				succ[w] &= hit[w]
			}
			row[sym] = intern(succ)
		}
		d.Trans = append(d.Trans, row...)
	}
	return d, nil
}

// Scan runs the DFA over input and emits a report for every code
// attached to each entered state.
//
//crisprlint:hotpath
func (d *DFA) Scan(input []uint8, emit func(automata.Report)) {
	cur := d.Start
	alpha := int32(d.Alphabet)
	// Locals for the step tables: emit is an opaque call, so without the
	// hoist the compiler reloads d.Trans and d.Reports from d after
	// every reporting state.
	empty := d.Empty
	trans := d.Trans
	reports := d.Reports
	for t, sym := range input {
		if int32(sym) >= alpha {
			cur = empty
			continue
		}
		cur = trans[cur*alpha+int32(sym)]
		for _, code := range reports[cur] {
			emit(automata.Report{Code: code, End: t})
		}
	}
}

// ScanCollect runs Scan and gathers the reports.
func (d *DFA) ScanCollect(input []uint8) []automata.Report {
	var out []automata.Report
	d.Scan(input, func(r automata.Report) { out = append(out, r) })
	return out
}
