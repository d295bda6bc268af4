package dna

import (
	"encoding/binary"
	"strings"
)

// This file is the sequence codec: ASCII to base codes plus 2-bit packed
// planes (Encode), and packed planes back to base codes (Packed.Unpack).
// Both directions work SWAR (SIMD within a register): one base per byte
// lane of a uint64, 8 bases per step, 32 per code word.

// Byte-lane constants for the SWAR steps.
const (
	lanes01  = 0x0101010101010101
	lanes03  = 0x0303030303030303
	lanes7F  = 0x7F7F7F7F7F7F7F7F
	lanes80  = 0x8080808080808080
	lanesA   = 0x4141414141414141 // 'A' in every lane
	caseFold = 0xDFDFDFDFDFDFDFDF // clears bit 5: 'a'..'z' -> 'A'..'Z'
)

// Encode converts ASCII sequence bytes to base codes and the 2-bit
// packed planes in one pass. The result equals ParseSeq followed by
// Pack for every input: A/C/G/T in either case map to their codes, U
// reads as T, and every other byte becomes BadBase with its ambiguity
// bit set and code 00. It is the one decoder every FASTA load path
// calls.
func Encode(src []byte) (Seq, *Packed) {
	n := len(src)
	seq := make(Seq, n)
	p := &Packed{
		words: make([]uint64, (n+31)/32),
		amb:   make([]uint64, (n+63)/64),
		n:     n,
	}
	encodeInto(seq, p.words, p.amb, src)
	return seq, p
}

// encodeInto fills seq and the packed planes from src, 64 bases (two
// code words, one ambiguity word) per block, writing each word once.
// len(seq) must equal len(src) and the planes must be sized for it.
//
//crisprlint:hotpath
func encodeInto(seq Seq, words, amb []uint64, src []byte) {
	for len(src) >= 64 && len(seq) >= 64 && len(words) >= 2 && len(amb) >= 1 {
		lo, a0 := encodeWord((*[32]Base)(seq), (*[32]byte)(src))
		hi, a1 := encodeWord((*[32]Base)(seq[32:]), (*[32]byte)(src[32:]))
		words[0], words[1], amb[0] = lo, hi, a0|a1<<32
		src, seq, words, amb = src[64:], seq[64:], words[2:], amb[1:]
	}
	if len(src) == 0 || len(words) == 0 || len(amb) == 0 {
		return
	}
	// The tail block is padded with 'A', whose code and ambiguity bits
	// are the zeros Pack leaves past the last base.
	pad := padA
	copy(pad[:], src)
	var out [64]Base
	lo, a0 := encodeWord((*[32]Base)(out[:32]), (*[32]byte)(pad[:32]))
	hi, a1 := encodeWord((*[32]Base)(out[32:]), (*[32]byte)(pad[32:]))
	copy(seq, out[:])
	words[0], amb[0] = lo, a0|a1<<32
	if len(words) > 1 {
		words[1] = hi
	}
}

// padA is a block of 'A' for padding the tail.
var padA = [64]byte([]byte(strings.Repeat("A", 64)))

// encodeWord encodes 32 ASCII bytes into q and returns their code word
// (base j at bits 2j) and 32 ambiguity bits. The four 8-byte groups
// take the SWAR path together; a word holding any byte outside ACGTacgt
// is redone through the baseFromChar table.
//
//crisprlint:hotpath
func encodeWord(q *[32]Base, s *[32]byte) (codes, amb uint64) {
	c0, d0 := acgtLanes(binary.LittleEndian.Uint64(s[0:8]))
	c1, d1 := acgtLanes(binary.LittleEndian.Uint64(s[8:16]))
	c2, d2 := acgtLanes(binary.LittleEndian.Uint64(s[16:24]))
	c3, d3 := acgtLanes(binary.LittleEndian.Uint64(s[24:32]))
	if d0|d1|d2|d3 != 0 {
		return tableWord(q, s)
	}
	putLanes(q[0:8], c0)
	putLanes(q[8:16], c1)
	putLanes(q[16:24], c2)
	putLanes(q[24:32], c3)
	return gatherLanes(c0) | gatherLanes(c1)<<16 | gatherLanes(c2)<<32 | gatherLanes(c3)<<48, 0
}

// acgtLanes computes the base code of each byte lane of x as
// ((b>>1)^(b>>2))&3, which gives A=0, C=1, G=2, T=3 in either case.
// diff is zero iff every lane holds one of those eight letters: it
// compares the case-folded lanes with the letters rebuilt from the
// codes' bits c1c0 as 'A' + 2*c0 + 6*c1 + 11*c0*c1 (A, C, G, T =
// 0x41, 0x43, 0x47, 0x54; no lane can carry into the next).
func acgtLanes(x uint64) (codes, diff uint64) {
	codes = (x>>1 ^ x>>2) & lanes03
	c0 := codes & lanes01
	c1 := (codes >> 1) & lanes01
	letters := lanesA + c0<<1 + c1*6 + (c0&c1)*11
	return codes, x&caseFold ^ letters
}

// gatherLanes packs the 2-bit code in the low bits of each byte lane of
// c into 16 bits, lane j at bits 2j.
func gatherLanes(c uint64) uint64 {
	c = (c | c>>6) & 0x000F000F000F000F
	c = (c | c>>12) & 0x000000FF000000FF
	return (c | c>>24) & 0xFFFF
}

// tableWord is encodeWord for a word holding a byte outside ACGTacgt:
// each byte goes through the baseFromChar table, so U reads as T and
// everything else becomes BadBase with code 00 and its ambiguity bit
// set.
//
//crisprlint:hotpath
func tableWord(q *[32]Base, s *[32]byte) (codes, amb uint64) {
	for j := 0; j < 32; j++ {
		b := baseFromChar[s[j]]
		q[j] = b
		bad := uint64(b >> 7) // BadBase is the only code with bit 7 set
		codes |= (uint64(b) & 3 & (bad - 1)) << (2 * uint(j))
		amb |= bad << uint(j)
	}
	return codes, amb
}

// unpackInto expands the code plane into out one code word (32 bases)
// at a time. len(out) must be the packed length and the planes sized
// for it.
//
//crisprlint:hotpath
func unpackInto(out Seq, words, amb []uint64) {
	for len(out) >= 64 && len(words) >= 2 && len(amb) >= 1 {
		a := amb[0]
		decodeWord((*[32]Base)(out), words[0], uint32(a))
		decodeWord((*[32]Base)(out[32:]), words[1], uint32(a>>32))
		out, words, amb = out[64:], words[2:], amb[1:]
	}
	if len(out) == 0 || len(words) == 0 || len(amb) == 0 {
		return
	}
	var hi uint64
	if len(words) > 1 {
		hi = words[1]
	}
	var blk [64]Base
	decodeWord((*[32]Base)(blk[:32]), words[0], uint32(amb[0]))
	decodeWord((*[32]Base)(blk[32:]), hi, uint32(amb[0]>>32))
	copy(out, blk[:])
}

// decodeWord expands one code word into q, 8 lanes per step, and turns
// every lane whose ambiguity bit is set into BadBase whatever its code
// bits hold, as Packed.Base does.
//
//crisprlint:hotpath
func decodeWord(q *[32]Base, codes uint64, amb uint32) {
	b0 := spreadLanes(codes & 0xFFFF)
	b1 := spreadLanes((codes >> 16) & 0xFFFF)
	b2 := spreadLanes((codes >> 32) & 0xFFFF)
	b3 := spreadLanes(codes >> 48)
	if amb != 0 {
		b0 |= ambLanes(uint64(amb & 0xFF))
		b1 |= ambLanes(uint64((amb >> 8) & 0xFF))
		b2 |= ambLanes(uint64((amb >> 16) & 0xFF))
		b3 |= ambLanes(uint64(amb >> 24))
	}
	putLanes(q[0:8], b0)
	putLanes(q[8:16], b1)
	putLanes(q[16:24], b2)
	putLanes(q[24:32], b3)
}

// spreadLanes is the inverse of gatherLanes: it moves the 2-bit code at
// bits 2j of v (j < 8) to the low bits of byte lane j.
func spreadLanes(v uint64) uint64 {
	v = (v | v<<24) & 0x000000FF000000FF
	v = (v | v<<12) & 0x000F000F000F000F
	return (v | v<<6) & lanes03
}

// ambLanes turns 8 ambiguity bits into byte lanes of 0xFF (bit set) or
// 0x00, so OR-ing the result into decoded codes yields BadBase.
func ambLanes(a uint64) uint64 {
	y := (a * lanes01) & 0x8040201008040201 // lane j keeps bit j of a
	y = (y + lanes7F) & lanes80             // bit 7 set iff the lane is non-zero
	return (y >> 7) * 0xFF
}

// putLanes stores the 8 byte lanes of v into q[0:8], lane 0 first.
func putLanes(q []Base, v uint64) {
	_ = q[7]
	q[0] = Base(v)
	q[1] = Base(v >> 8)
	q[2] = Base(v >> 16)
	q[3] = Base(v >> 24)
	q[4] = Base(v >> 32)
	q[5] = Base(v >> 40)
	q[6] = Base(v >> 48)
	q[7] = Base(v >> 56)
}
