package dfa

import "sort"

// Minimize returns the minimal DFA with the same report behavior, using
// Hopcroft's partition-refinement algorithm. States are first grouped by
// their report-code signature (Moore-machine outputs), then refined
// until no block is split by any (block, symbol) pair.
func Minimize(d *DFA) *DFA {
	n := d.NumStates()
	if n == 0 {
		return d
	}
	alpha := d.Alphabet

	// Initial partition: group by report signature.
	sigOf := make([]string, n)
	sigIndex := map[string]int{}
	block := make([]int, n) // state -> block id
	var blocks [][]int32    // block id -> member states
	for s := 0; s < n; s++ {
		sig := reportSig(d.Reports[s])
		sigOf[s] = sig
		id, ok := sigIndex[sig]
		if !ok {
			id = len(blocks)
			sigIndex[sig] = id
			blocks = append(blocks, nil)
		}
		block[s] = id
		blocks[id] = append(blocks[id], int32(s))
	}

	// Inverse transition lists: rev[sym][state] = predecessors.
	rev := make([][][]int32, alpha)
	for sym := 0; sym < alpha; sym++ {
		rev[sym] = make([][]int32, n)
	}
	for s := 0; s < n; s++ {
		for sym := 0; sym < alpha; sym++ {
			t := d.Trans[s*alpha+sym]
			rev[sym][t] = append(rev[sym][t], int32(s))
		}
	}

	// Worklist of (block, symbol) splitters.
	type splitter struct {
		blk int
		sym int
	}
	var work []splitter
	inWork := map[splitter]bool{}
	push := func(blk, sym int) {
		sp := splitter{blk, sym}
		if !inWork[sp] {
			inWork[sp] = true
			work = append(work, sp)
		}
	}
	for b := range blocks {
		for sym := 0; sym < alpha; sym++ {
			push(b, sym)
		}
	}

	touched := make([]bool, n)
	for len(work) > 0 {
		sp := work[len(work)-1]
		work = work[:len(work)-1]
		delete(inWork, sp)

		// X = predecessors (on sym) of the splitter block's members.
		var x []int32
		for _, s := range blocks[sp.blk] {
			x = append(x, rev[sp.sym][s]...)
		}
		if len(x) == 0 {
			continue
		}
		for _, s := range x {
			touched[s] = true
		}
		// Find blocks split by X.
		affected := map[int]bool{}
		for _, s := range x {
			affected[block[s]] = true
		}
		for b := range affected {
			members := blocks[b]
			var in, out []int32
			for _, s := range members {
				if touched[s] {
					in = append(in, s)
				} else {
					out = append(out, s)
				}
			}
			if len(in) == 0 || len(out) == 0 {
				continue
			}
			// Split: smaller half becomes the new block.
			newID := len(blocks)
			if len(in) <= len(out) {
				blocks[b] = out
				blocks = append(blocks, in)
				for _, s := range in {
					block[s] = newID
				}
			} else {
				blocks[b] = in
				blocks = append(blocks, out)
				for _, s := range out {
					block[s] = newID
				}
			}
			// Update worklist per Hopcroft: if (b, sym) pending, both
			// halves are pending; otherwise add the smaller half.
			for sym := 0; sym < alpha; sym++ {
				if inWork[splitter{b, sym}] {
					push(newID, sym)
				} else if len(blocks[newID]) <= len(blocks[b]) {
					push(newID, sym)
				} else {
					push(b, sym)
				}
			}
		}
		for _, s := range x {
			touched[s] = false
		}
	}

	// Build the quotient automaton. Keep block order deterministic by
	// smallest member state.
	order := make([]int, len(blocks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return minMember(blocks[order[a]]) < minMember(blocks[order[b]])
	})
	newID := make([]int32, len(blocks))
	for rank, b := range order {
		newID[b] = int32(rank)
	}
	out := &DFA{
		Alphabet: alpha,
		Trans:    make([]int32, len(blocks)*alpha),
		Reports:  make([][]int32, len(blocks)),
		Start:    newID[block[d.Start]],
		Empty:    newID[block[d.Empty]],
	}
	for _, b := range order {
		rep := blocks[b][0]
		id := newID[b]
		out.Reports[id] = d.Reports[rep]
		for sym := 0; sym < alpha; sym++ {
			out.Trans[int(id)*alpha+sym] = newID[block[d.Trans[int(rep)*alpha+sym]]]
		}
	}
	return out
}

func minMember(states []int32) int32 {
	m := states[0]
	for _, s := range states[1:] {
		if s < m {
			m = s
		}
	}
	return m
}

func reportSig(codes []int32) string {
	buf := make([]byte, 0, 4*len(codes))
	for _, c := range codes {
		buf = append(buf, byte(c), byte(c>>8), byte(c>>16), byte(c>>24))
	}
	return string(buf)
}
