package dna

import (
	"math/rand"
	"testing"
)

func TestSplitCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(312))
	for trial := 0; trial < 200; trial++ {
		w0, w1 := rng.Uint64(), rng.Uint64()
		var wantHi, wantLo uint64
		for j := 0; j < 64; j++ {
			w := w0
			if j >= 32 {
				w = w1
			}
			code := w >> uint(2*(j%32)) & 3
			wantLo |= (code & 1) << uint(j)
			wantHi |= (code >> 1) << uint(j)
		}
		if hi, lo := splitCodes(w0, w1); hi != wantHi || lo != wantLo {
			t.Fatalf("splitCodes(%#x, %#x) = %#x, %#x, want %#x, %#x", w0, w1, hi, lo, wantHi, wantLo)
		}
	}
}

// planeBase returns the base at bit j of q, or BadBase if no plane
// holds it, failing if more than one does.
func planeBase(t *testing.T, q Planes, j int) Base {
	t.Helper()
	got := BadBase
	for b := A; b <= T; b++ {
		if q[b]>>uint(j)&1 == 1 {
			if got != BadBase {
				t.Fatalf("bit %d is in planes %v and %v", j, got, b)
			}
			got = b
		}
	}
	return got
}

// TestPlanesMatchBase reads every position of sequences of every length
// around the word edges and checks each bit against Base, with
// positions past the end in no plane.
func TestPlanesMatchBase(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for n := 0; n <= 200; n++ {
		s := randomSeq(rng, n, 0.1)
		p := Pack(s)
		for pos := 0; pos <= n; pos++ {
			q := p.Planes(pos)
			for j := 0; j < 64; j++ {
				want := BadBase
				if pos+j < n {
					want = s[pos+j]
				}
				if got := planeBase(t, q, j); got != want {
					t.Fatalf("n=%d: Planes(%d) bit %d is %v, want %v", n, pos, j, got, want)
				}
			}
		}
	}
}

func TestPlanesReverseComplement(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	s := randomSeq(rng, 300, 0.1)
	p := Pack(s)
	for pos := 0; pos < len(s); pos++ {
		for _, n := range []int{0, 1, 23, 63, 64} {
			if pos+n > len(s) {
				continue
			}
			rc := p.Planes(pos).ReverseComplement(n)
			want := s[pos : pos+n].ReverseComplement()
			for j := 0; j < 64; j++ {
				w := BadBase
				if j < n {
					w = want[j]
				}
				if got := planeBase(t, rc, j); got != w {
					t.Fatalf("Planes(%d).ReverseComplement(%d) bit %d is %v, want %v", pos, n, j, got, w)
				}
			}
		}
	}
}

// TestLanesMisses places random IUPAC patterns in windows of up to 150
// bases, on both strands, and compares Packed.Misses with a count over
// the window's bases, reverse complemented for the minus strand.
func TestLanesMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(315))
	s := randomSeq(rng, 2000, 0.02)
	p := Pack(s)
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(150)
		plen := 1 + rng.Intn(n)
		at := rng.Intn(n - plen + 1)
		pat := make(Pattern, plen)
		for i := range pat {
			pat[i] = Mask(1 + rng.Intn(15))
		}
		minus := rng.Intn(2) == 1
		pos := rng.Intn(len(s) - n + 1)
		w := s[pos : pos+n]
		if minus {
			w = w.ReverseComplement()
		}
		seg := w[at : at+plen]
		wantMiss, wantAmb := pat.Mismatches(seg), seg.HasAmbiguous()
		l := pat.Lanes(n, at, minus)
		if len(l) != (n+63)/64 {
			t.Fatalf("Lanes(%d) has %d steps", n, len(l))
		}
		q := p.Planes(pos)
		if got, amb := p.Misses(l, pos, &q); got != wantMiss || amb != wantAmb {
			t.Fatalf("trial %d (n=%d at=%d minus=%v): Misses = %d, %v; want %d, %v",
				trial, n, at, minus, got, amb, wantMiss, wantAmb)
		}
	}
}
