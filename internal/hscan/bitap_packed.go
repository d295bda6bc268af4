package hscan

import (
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
)

// Packed bitap: two patterns evaluated per 64-bit word, lane 0 in bits
// 0..30 and lane 1 in bits 32..62. Guide windows are 23 symbols, so a
// word comfortably holds two lanes, halving ModeBitap's dominant cost.
// Lane isolation needs no masking in the hot loop: a pattern of length
// L <= 31 never sets bit 31 (lane 0's guard) in its eq/subs masks, so a
// shifted-in guard bit dies at the very next AND.

const (
	packedLaneShift = 32
	packedMaxLen    = 31
)

// packedPair is the fused form of two equal-geometry patterns (the
// second may be absent for an odd trailing pattern; its lane masks are
// zero and can never match).
type packedPair struct {
	eq     [dna.AlphabetSize]uint64
	subs   uint64
	accept uint64 // bit L-1 (lane 0) and bit 32+L-1 (lane 1, if present)
	seeds  uint64 // 1 | 1<<32 (or just 1 for a half pair)
	k      int
	code   [2]int32
	accL   [2]uint64 // per-lane accept masks for attribution
}

// buildPackedBitap pairs up the compiled patterns if they share length
// and mismatch budget and fit a lane. Returns false when packing does
// not apply (the scalar path is used instead).
func (e *Engine) buildPackedBitap() bool {
	if len(e.pats) < 2 {
		return false
	}
	L := e.pats[0].length
	k := e.pats[0].k
	if L > packedMaxLen {
		return false
	}
	for i := range e.pats {
		if e.pats[i].length != L || e.pats[i].k != k {
			return false
		}
	}
	for i := 0; i < len(e.pats); i += 2 {
		p0 := &e.pats[i]
		pair := packedPair{k: k, seeds: 1, code: [2]int32{p0.code, -1}}
		for b := 0; b < dna.AlphabetSize; b++ {
			pair.eq[b] = p0.eq[b]
		}
		pair.subs = p0.subsMask
		pair.accL[0] = p0.accept
		pair.accept = p0.accept
		if i+1 < len(e.pats) {
			p1 := &e.pats[i+1]
			for b := 0; b < dna.AlphabetSize; b++ {
				pair.eq[b] |= p1.eq[b] << packedLaneShift
			}
			pair.subs |= p1.subsMask << packedLaneShift
			pair.accL[1] = p1.accept << packedLaneShift
			pair.accept |= pair.accL[1]
			pair.seeds |= 1 << packedLaneShift
			pair.code[1] = p1.code
		}
		e.packed = append(e.packed, pair)
	}
	return true
}

// scanBitapPacked is scanBitap with two lanes per word.
//
//crisprlint:hotpath
func (e *Engine) scanBitapPacked(seq dna.Seq, base int, emit func(automata.Report)) {
	var rows [maxBitapK + 1]uint64
	for pi := range e.packed {
		p := &e.packed[pi]
		k := p.k
		for j := 0; j <= k; j++ {
			rows[j] = 0
		}
		eq := &p.eq
		subs := p.subs
		seeds := p.seeds
		accept := p.accept
		for t, b := range seq {
			if b > dna.T {
				for j := 0; j <= k; j++ {
					rows[j] = 0
				}
				continue
			}
			m := eq[b]
			prev := rows[0]
			rows[0] = (prev<<1 | seeds) & m
			hit := rows[0]
			for j := 1; j <= k; j++ {
				cur := rows[j]
				rows[j] = (cur<<1|seeds)&m | (prev<<1|seeds)&subs
				prev = cur
				hit |= rows[j]
			}
			if hit&accept != 0 {
				if hit&p.accL[0] != 0 {
					emit(automata.Report{Code: p.code[0], End: base + t})
				}
				if hit&p.accL[1] != 0 {
					emit(automata.Report{Code: p.code[1], End: base + t})
				}
			}
		}
	}
}
