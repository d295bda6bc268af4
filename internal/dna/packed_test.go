package dna

import (
	"math/rand"
	"testing"
)

func randomSeq(rng *rand.Rand, n int, ambRate float64) Seq {
	s := make(Seq, n)
	for i := range s {
		if rng.Float64() < ambRate {
			s[i] = BadBase
		} else {
			s[i] = Base(rng.Intn(4))
		}
	}
	return s
}

func TestPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		s := randomSeq(rng, rng.Intn(200), 0.1)
		p := Pack(s)
		if p.Len() != len(s) {
			t.Fatalf("Len = %d, want %d", p.Len(), len(s))
		}
		for i := range s {
			if p.Base(i) != s[i] {
				t.Fatalf("trial %d: Base(%d) = %v, want %v", trial, i, p.Base(i), s[i])
			}
		}
	}
}

func TestWindowAcrossWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomSeq(rng, 300, 0.05)
	p := Pack(s)
	for pos := 0; pos+23 <= len(s); pos++ {
		codes, amb := p.Window(pos, 23)
		for j := 0; j < 23; j++ {
			got := Base(codes >> uint(2*j) & 3)
			want := s[pos+j]
			if want == BadBase {
				if amb&(1<<uint(j)) == 0 {
					t.Fatalf("pos %d+%d: ambiguity bit missing", pos, j)
				}
				continue
			}
			if amb&(1<<uint(j)) != 0 {
				t.Fatalf("pos %d+%d: spurious ambiguity bit", pos, j)
			}
			if got != want {
				t.Fatalf("pos %d+%d: base %v, want %v", pos, j, got, want)
			}
		}
	}
}

func TestKmer(t *testing.T) {
	// A=0,C=1,G=2,T=3 -> 0b00011011 = 27
	if key, ok := KmerOf(MustParseSeq("ACGT")); !ok || key != 27 {
		t.Errorf("KmerOf = %d (%v), want 27", key, ok)
	}
}

func TestKmerAmbiguity(t *testing.T) {
	seq, _ := ParseSeq("ACNGT")
	if _, ok := KmerOf(seq); ok {
		t.Error("KmerOf with BadBase must report !ok")
	}
}
