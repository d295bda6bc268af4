package automata

import (
	"fmt"

	"github.com/cap-repro/crisprscan/internal/dna"
)

// CompileOptions controls guide-to-automaton compilation.
type CompileOptions struct {
	// MaxMismatches is the spacer Hamming budget k.
	MaxMismatches int
	// PAM is the degenerate PAM pattern matched exactly adjacent to the
	// spacer (for example NGG). Empty means no PAM constraint.
	PAM dna.Pattern
	// PAMLeft places the PAM before the spacer in the scanned window —
	// the orientation of minus-strand patterns, whose plus-strand window
	// reads revcomp(PAM) then revcomp(spacer).
	PAMLeft bool
	// Code is the report code emitted on a match (conventionally the
	// guide index with the strand folded in by the orchestrator).
	Code int32
}

// CompileHamming builds the homogeneous Hamming-lattice NFA for one
// spacer: states (i, j) for pattern position i and mismatch count j ≤ k,
// split into match-entry states (class = spacer base i-1) and
// mismatch-entry states (class = complement set) because in a
// homogeneous automaton the consumed-symbol constraint lives on the
// entered state. The automaton is all-input-start, so a single
// left-to-right pass over the genome tests every alignment; a report
// fires when the final window state activates, with End = the index of
// the window's last base.
//
// The spacer may contain degenerate positions (for example a leading N);
// a "mismatch" at position i means the consumed base is outside the
// position's base set, and positions whose set is N can never mismatch.
func CompileHamming(spacer dna.Pattern, opt CompileOptions) (*NFA, error) {
	m := len(spacer)
	if m == 0 {
		return nil, fmt.Errorf("automata: empty spacer")
	}
	k := opt.MaxMismatches
	if k < 0 || k > m {
		return nil, fmt.Errorf("automata: mismatch budget %d out of range for spacer length %d", k, m)
	}
	side := "3'"
	if opt.PAMLeft {
		side = "5'"
	}
	n := New(dna.AlphabetSize, fmt.Sprintf("hamming(k=%d,%s,pam=%s@%s)", k, spacer, opt.PAM, side))

	// With a left PAM, the window begins with the exact PAM chain and
	// the chain's head is the start state; otherwise the lattice heads
	// are starts and the PAM chain trails.
	var pamTail []uint32 // state(s) feeding the lattice heads (PAMLeft)
	latticeStart := AllInput
	if opt.PAMLeft && len(opt.PAM) > 0 {
		latticeStart = NoStart
		var prev uint32
		for p, mask := range opt.PAM {
			start := NoStart
			if p == 0 {
				start = AllInput
			}
			id := n.AddState(NewState(ClassOfMask(mask), start))
			if p > 0 {
				n.AddEdge(prev, id)
			}
			prev = id
		}
		pamTail = []uint32{prev}
	}

	// matchSt[i][j]: state entered by matching spacer base i-1 with j
	// mismatches so far; missSt[i][j]: entered by mismatching base i-1
	// (the j-th mismatch). Index 0 is unused; positions are 1-based.
	matchSt := make([][]int32, m+1)
	missSt := make([][]int32, m+1)
	for i := 1; i <= m; i++ {
		matchSt[i] = make([]int32, k+1)
		missSt[i] = make([]int32, k+1)
		for j := range matchSt[i] {
			matchSt[i][j] = -1
			missSt[i][j] = -1
		}
		hi := i - 1 // at most i-1 mismatches can precede a match at i
		if hi > k {
			hi = k
		}
		for j := 0; j <= hi; j++ {
			start := NoStart
			if i == 1 {
				start = latticeStart
			}
			id := n.AddState(NewState(ClassOfMask(spacer[i-1]), start))
			matchSt[i][j] = int32(id)
			if i == 1 {
				for _, t := range pamTail {
					n.AddEdge(t, id)
				}
			}
		}
		missClass := ClassOfMask(dna.MaskAny &^ spacer[i-1])
		if missClass != 0 {
			hi = i
			if hi > k {
				hi = k
			}
			for j := 1; j <= hi; j++ {
				start := NoStart
				if i == 1 {
					start = latticeStart
				}
				id := n.AddState(NewState(missClass, start))
				missSt[i][j] = int32(id)
				if i == 1 {
					for _, t := range pamTail {
						n.AddEdge(t, id)
					}
				}
			}
		}
	}

	// Lattice edges: from any state at (i, j) to match(i+1, j) and, with
	// budget left, to miss(i+1, j+1).
	connect := func(from int32, i, j int) {
		if from < 0 || i >= m {
			return
		}
		if to := matchSt[i+1][j]; to >= 0 {
			n.AddEdge(uint32(from), uint32(to))
		}
		if j < k {
			if to := missSt[i+1][j+1]; to >= 0 {
				n.AddEdge(uint32(from), uint32(to))
			}
		}
	}
	for i := 1; i <= m; i++ {
		for j := 0; j <= k; j++ {
			connect(matchSt[i][j], i, j)
			connect(missSt[i][j], i, j)
		}
	}

	// Window-final states: lattice ends for PAMLeft (or no PAM), the PAM
	// chain's tail otherwise.
	finals := make([]uint32, 0, 2*(k+1))
	for j := 0; j <= k; j++ {
		if matchSt[m][j] >= 0 {
			finals = append(finals, uint32(matchSt[m][j]))
		}
		if missSt[m][j] >= 0 {
			finals = append(finals, uint32(missSt[m][j]))
		}
	}
	if !opt.PAMLeft && len(opt.PAM) > 0 {
		prev := finals
		for p, mask := range opt.PAM {
			st := NewState(ClassOfMask(mask), NoStart)
			if p == len(opt.PAM)-1 {
				st.Report = opt.Code
			}
			id := n.AddState(st)
			for _, u := range prev {
				n.AddEdge(u, id)
			}
			prev = []uint32{id}
		}
	} else {
		for _, f := range finals {
			n.States[f].Report = opt.Code
		}
	}
	return n, nil
}

// HammingStateCount predicts the state count CompileHamming produces for
// a concrete spacer, for resource planning without building the
// automaton. Exposed because the AP placement model sizes boards from it.
func HammingStateCount(spacerLen, k, pamLen int) int {
	states := 0
	for i := 1; i <= spacerLen; i++ {
		hi := i - 1
		if hi > k {
			hi = k
		}
		states += hi + 1 // match states
		hi = i
		if hi > k {
			hi = k
		}
		states += hi // mismatch states (j = 1..hi)
	}
	return states + pamLen
}
