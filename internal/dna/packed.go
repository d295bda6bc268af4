package dna

import "fmt"

// Packed is a 2-bit-per-base packed sequence plus an ambiguity bitmap.
// It is the memory layout Cas-OFFinder-style brute force scans use: a
// window comparison is a 64-bit XOR followed by popcount over 2-bit lanes.
type Packed struct {
	words []uint64 // 32 bases per word, base i at bits (2*(i%32)) (little-endian lanes)
	amb   []uint64 // 1 bit per base: set if the source base was BadBase
	n     int
}

// Pack converts a Seq to packed form. BadBase packs as A in the code plane
// and sets the ambiguity bit, so comparisons can force-mismatch it.
func Pack(s Seq) *Packed {
	n := len(s)
	p := &Packed{
		words: make([]uint64, (n+31)/32),
		amb:   make([]uint64, (n+63)/64),
		n:     n,
	}
	for i, b := range s {
		if b == BadBase {
			p.amb[i/64] |= 1 << uint(i%64)
			continue // leaves code bits 00 (A)
		}
		p.words[i/32] |= uint64(b) << uint(2*(i%32))
	}
	return p
}

// Len returns the number of bases.
func (p *Packed) Len() int { return p.n }

// Base returns the base at position i (BadBase if the position was
// ambiguous in the source).
func (p *Packed) Base(i int) Base {
	if p.amb[i/64]&(1<<uint(i%64)) != 0 {
		return BadBase
	}
	return Base(p.words[i/32] >> uint(2*(i%32)) & 3)
}

// Window extracts up to 32 bases starting at position pos into a single
// word (base j of the window in bits 2j), plus a 32-bit ambiguity mask.
// Callers must ensure pos+width <= Len() and width <= 32.
func (p *Packed) Window(pos, width int) (codes uint64, amb uint32) {
	w, off := pos/32, uint(pos%32)
	codes = p.words[w] >> (2 * off)
	if off != 0 && w+1 < len(p.words) {
		codes |= p.words[w+1] << (2 * (32 - off))
	}
	if width < 32 {
		codes &= (1 << uint(2*width)) - 1
	}
	aw, aoff := pos/64, uint(pos%64)
	a := p.amb[aw] >> aoff
	if aoff != 0 && aw+1 < len(p.amb) {
		a |= p.amb[aw+1] << (64 - aoff)
	}
	amb = uint32(a & ((1 << uint(width)) - 1))
	return codes, amb
}

// Words exposes the raw storage planes (code words, ambiguity bitmap)
// for serialization. The returned slices alias the Packed's storage and
// must not be mutated.
func (p *Packed) Words() (words, amb []uint64) { return p.words, p.amb }

// FromWords reconstructs a Packed of n bases from serialized storage
// planes, validating the slice lengths against n. The slices are
// retained, not copied.
func FromWords(words, amb []uint64, n int) (*Packed, error) {
	if n < 0 {
		return nil, fmt.Errorf("dna: packed length %d negative", n)
	}
	if len(words) != (n+31)/32 || len(amb) != (n+63)/64 {
		return nil, fmt.Errorf("dna: packed planes %d/%d words do not fit %d bases", len(words), len(amb), n)
	}
	return &Packed{words: words, amb: amb, n: n}, nil
}

// Unpack reconstructs the base-code sequence. Ambiguous positions come
// back as BadBase: every non-ACGT source character canonicalizes to the
// same sentinel, so Pack(p.Unpack()) reproduces p exactly.
func (p *Packed) Unpack() Seq {
	out := make(Seq, p.n)
	unpackInto(out, p.words, p.amb)
	return out
}

// KmerOf encodes a concrete Seq as a 2-bit key using the same orientation
// as Packed.Kmer. ok is false if s contains BadBase. len(s) must be <= 31.
func KmerOf(s Seq) (key uint64, ok bool) {
	var k uint64
	for _, b := range s {
		if b == BadBase {
			return 0, false
		}
		k = k<<2 | uint64(b)
	}
	return k, true
}
