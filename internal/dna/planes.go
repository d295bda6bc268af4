package dna

import "math/bits"

// This file reads the packed planes 64 bases at a time as one position
// mask per base. In that form a pattern's mismatches over a window are
// one popcount: the report layer verifies and renders sites this way,
// the seed-index engine confirms its candidates, and hscan's PAM mask
// pass builds its set masks from PlanesOf.

// Planes holds a stretch of up to 64 bases as one position mask per
// base: bit j of Planes[b] is set iff base j of the stretch is b. An
// ambiguous base, like a position past the end of the sequence, is in
// no plane, so no pattern accepts it.
type Planes [4]uint64

// splitCodes splits two code words (64 bases, base j at bits 2j of w0
// and base 32+j at bits 2j of w1) into their high- and low-bit planes:
// bit j of hi and of lo are the two bits of base j's code.
func splitCodes(w0, w1 uint64) (hi, lo uint64) {
	u0, u1 := unzip(w0), unzip(w1)
	return u0>>32 | u1&^0xffffffff, u0&0xffffffff | u1<<32
}

// unzip gathers the even bits of x into its low half and the odd bits
// into its high half (the inverse perfect shuffle, as five delta swaps).
// On a code word that splits the 32 bases' 2-bit codes into a low-bit
// and a high-bit plane.
func unzip(x uint64) uint64 {
	t := (x ^ x>>1) & 0x2222222222222222
	x ^= t ^ t<<1
	t = (x ^ x>>2) & 0x0c0c0c0c0c0c0c0c
	x ^= t ^ t<<2
	t = (x ^ x>>4) & 0x00f000f000f000f0
	x ^= t ^ t<<4
	t = (x ^ x>>8) & 0x0000ff000000ff00
	x ^= t ^ t<<8
	t = (x ^ x>>16) & 0x00000000ffff0000
	x ^= t ^ t<<16
	return x
}

// PlanesOf returns the planes of the 64 bases held in code words w0
// and w1 (as splitCodes reads them) whose ambiguity bits are amb.
func PlanesOf(w0, w1, amb uint64) Planes {
	hi, lo := splitCodes(w0, w1)
	return Planes{^hi &^ lo &^ amb, ^hi & lo &^ amb, hi &^ lo &^ amb, hi & lo &^ amb}
}

// Planes returns the 64 bases of p from pos, 0 <= pos <= Len(), read
// from three code words and two ambiguity words. Positions at or past
// Len() are in no plane.
//
//crisprlint:hotpath
func (p *Packed) Planes(pos int) Planes {
	w, s := pos>>5, uint(pos&31)<<1
	mid := wordAt(p.words, w+1)
	w0 := wordAt(p.words, w)>>s | mid<<(64-s)
	w1 := mid>>s | wordAt(p.words, w+2)<<(64-s)
	a, as := pos>>6, uint(pos&63)
	amb := wordAt(p.amb, a)>>as | wordAt(p.amb, a+1)<<(64-as)
	if rem := p.n - pos; rem < 64 {
		amb |= ^uint64(0) << uint(max(rem, 0))
	}
	return PlanesOf(w0, w1, amb)
}

// wordAt returns ws[i], or zero past either end.
func wordAt(ws []uint64, i int) uint64 {
	if uint(i) < uint(len(ws)) {
		return ws[i]
	}
	return 0
}

// ReverseComplement returns the first n bases of q read on the other
// strand: base j of the result is the complement of base n-1-j. Bits
// at and past n are clear.
func (q Planes) ReverseComplement(n int) Planes {
	s := uint(64 - n)
	return Planes{
		bits.Reverse64(q[T]) >> s, bits.Reverse64(q[G]) >> s,
		bits.Reverse64(q[C]) >> s, bits.Reverse64(q[A]) >> s,
	}
}

// Lanes is a pattern placed in a window, for one 64-base step of it:
// Mask has bit j set for each pattern position over window base j, and
// bit j of Accept[b] is set iff that position accepts base b.
type Lanes struct {
	Mask   uint64
	Accept Planes
}

// Accepted returns the positions of l whose base in q l accepts.
func (l *Lanes) Accepted(q *Planes) uint64 {
	return l.Accept[A]&q[A] | l.Accept[C]&q[C] | l.Accept[G]&q[G] | l.Accept[T]&q[T]
}

// Lanes places pattern p at offset at of an n-base window, read in
// 64-base steps: one Lanes per step, at least one. With minus set the
// pattern reads the window's other strand, in the orientation of a
// reverse-complemented site: its position i lies over window base
// n-1-at-i and accepts a base when it accepts that base's complement.
func (p Pattern) Lanes(n, at int, minus bool) []Lanes {
	out := make([]Lanes, max(1, (n+63)/64))
	for i, m := range p {
		j := at + i
		if minus {
			j = n - 1 - at - i
		}
		l, bit := &out[j/64], uint64(1)<<uint(j%64)
		l.Mask |= bit
		for b := A; b <= T; b++ {
			if !m.Has(b) {
				continue
			}
			if minus {
				l.Accept[b.Complement()] |= bit
			} else {
				l.Accept[b] |= bit
			}
		}
	}
	return out
}

// Misses counts the positions of a pattern placed by Pattern.Lanes
// that reject their base in the window of p at pos, and reports
// whether any of them is ambiguous (an ambiguous base is rejected
// everywhere). q holds p.Planes(pos), the window's first step, so
// callers checking several patterns against one window read it once;
// later steps are read here.
//
//crisprlint:hotpath
func (p *Packed) Misses(l []Lanes, pos int, q *Planes) (misses int, ambiguous bool) {
	var amb uint64
	for s := range l {
		qs := q
		if s > 0 {
			next := p.Planes(pos + 64*s)
			qs = &next
		}
		ls := &l[s]
		misses += bits.OnesCount64(ls.Mask &^ ls.Accepted(qs))
		amb |= ls.Mask &^ (qs[A] | qs[C] | qs[G] | qs[T])
	}
	return misses, amb != 0
}
