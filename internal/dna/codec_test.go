package dna

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// encodeOracle is the two-step reference Encode must reproduce.
func encodeOracle(src []byte) (Seq, *Packed) {
	seq, _ := ParseSeq(string(src))
	return seq, Pack(seq)
}

// checkEncode fails t unless Encode(src) equals ParseSeq followed by
// Pack: the same Seq, both planes word for word, and the same Len.
func checkEncode(t *testing.T, src []byte) {
	t.Helper()
	wantSeq, want := encodeOracle(src)
	gotSeq, got := Encode(src)
	if !slices.Equal(gotSeq, wantSeq) {
		t.Fatalf("Encode(%q): Seq %v, want %v", src, gotSeq, wantSeq)
	}
	samePacked(t, got, want, src)
}

func samePacked(t *testing.T, got, want *Packed, src []byte) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%q: Len %d, want %d", src, got.Len(), want.Len())
	}
	gw, ga := got.Words()
	ww, wa := want.Words()
	if !slices.Equal(gw, ww) {
		t.Fatalf("%q: code words %x, want %x", src, gw, ww)
	}
	if !slices.Equal(ga, wa) {
		t.Fatalf("%q: ambiguity words %x, want %x", src, ga, wa)
	}
}

// randomASCII draws n bytes from alphabet.
func randomASCII(rng *rand.Rand, n int, alphabet string) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return b
}

func TestEncodeLengthsAcrossWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabets := []string{
		"ACGT",           // fast path only
		"acgtACGT",       // case folding on the fast path
		"ACGTNacgtn",     // N runs force the table path
		"ACGTUuRYKMN-.*", // U, IUPAC codes and junk
	}
	// Every length up to three blocks, then lengths either side of
	// larger 8-, 32- and 64-base multiples.
	var lengths []int
	for n := 0; n <= 200; n++ {
		lengths = append(lengths, n)
	}
	for _, m := range []int{256, 1024, 4096} {
		lengths = append(lengths, m-9, m-8, m-1, m, m+1, m+7, m+8, m+33)
	}
	for _, alpha := range alphabets {
		for _, n := range lengths {
			checkEncode(t, randomASCII(rng, n, alpha))
		}
	}
}

func TestEncodeEveryByteInEveryLane(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for v := 0; v < 256; v++ {
		for lane := 0; lane < 32; lane++ {
			// One 32-byte word of concrete bases with byte v in one lane,
			// then the same word inside a longer, unaligned sequence.
			src := randomASCII(rng, 32, "ACGTacgt")
			src[lane] = byte(v)
			checkEncode(t, src)
			long := randomASCII(rng, 100, "ACGT")
			copy(long[37:], src)
			checkEncode(t, long)
		}
	}
}

// TestACGTLanes pins the SWAR fast path itself, which the Encode tests
// cannot see because the table fallback gives the same output: every
// one of ACGTacgt in any lane passes with its code, and every other
// byte value fails the word.
func TestACGTLanes(t *testing.T) {
	for v := 0; v < 256; v++ {
		for lane := uint(0); lane < 8; lane++ {
			x := uint64(lanesA)&^(0xFF<<(8*lane)) | uint64(v)<<(8*lane)
			codes, diff := acgtLanes(x)
			b := BaseFromChar(byte(v))
			if fast := b != BadBase && v != 'U' && v != 'u'; fast != (diff == 0) {
				t.Fatalf("byte %#x in lane %d: diff %#x", v, lane, diff)
			}
			if diff == 0 && Base(codes>>(8*lane)&3) != b {
				t.Fatalf("byte %q in lane %d: code %d, want %d", rune(v), lane, codes>>(8*lane)&3, b)
			}
		}
	}
}

func TestEncodeKnownValues(t *testing.T) {
	seq, p := Encode([]byte("AcGtNuU-"))
	want := Seq{A, C, G, T, BadBase, T, T, BadBase}
	if !slices.Equal(seq, want) {
		t.Fatalf("Seq = %v, want %v", seq, want)
	}
	words, amb := p.Words()
	// Codes A=0 C=1 G=2 T=3 at bits 2j (lane 7 first below); the
	// ambiguous lanes 4 and 7 keep code 00.
	if words[0] != 0b00_11_11_00_11_10_01_00 || amb[0] != 1<<4|1<<7 {
		t.Fatalf("planes = %b / %b", words[0], amb[0])
	}
}

func TestUnpackMatchesBase(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 0; n <= 300; n++ {
		// Arbitrary planes: code bits under ambiguous lanes and past the
		// last base are set at random, which Base ignores and so must
		// Unpack.
		words := make([]uint64, (n+31)/32)
		amb := make([]uint64, (n+63)/64)
		for i := range words {
			words[i] = rng.Uint64()
		}
		for i := range amb {
			amb[i] = rng.Uint64() & rng.Uint64()
		}
		p, err := FromWords(words, amb, n)
		if err != nil {
			t.Fatal(err)
		}
		got := p.Unpack()
		if len(got) != n {
			t.Fatalf("n=%d: Unpack length %d", n, len(got))
		}
		for i := range got {
			if got[i] != p.Base(i) {
				t.Fatalf("n=%d: Unpack[%d] = %v, Base = %v", n, i, got[i], p.Base(i))
			}
		}
	}
}

func TestUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000} {
		src := randomASCII(rng, n, "ACGTACGTN")
		seq, p := Encode(src)
		back := p.Unpack()
		if !slices.Equal(back, seq) {
			t.Fatalf("n=%d: Unpack %v, want %v", n, back, seq)
		}
		samePacked(t, Pack(back), p, src)
	}
}

// FuzzEncode checks Encode against ParseSeq followed by Pack for
// arbitrary bytes, and that Unpack inverts the planes it produced.
func FuzzEncode(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("ACGTacgtNNNNNNNNACGTUuRY"))
	f.Add([]byte("ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTA"))
	f.Add([]byte{0x00, 0xff, 'A' | 0x80, 'a', 'C' ^ 0x20, 'G', 'T', 'T', '\r'})
	f.Fuzz(func(t *testing.T, src []byte) {
		checkEncode(t, src)
		seq, p := Encode(src)
		back := p.Unpack()
		if !slices.Equal(back, seq) {
			t.Fatalf("Unpack(Encode(%q)) = %v, want %v", src, back, seq)
		}
		for i := range back {
			if back[i] != p.Base(i) {
				t.Fatalf("%q: Unpack[%d] = %v, Base = %v", src, i, back[i], p.Base(i))
			}
		}
	})
}

// benchSource is 1 Mbp of random bases holding 20 N runs of 500 bp.
func benchSource() []byte {
	rng := rand.New(rand.NewSource(1))
	src := randomASCII(rng, 1_000_000, "ACGT")
	for i := 0; i < 20; i++ {
		at := rng.Intn(len(src) - 500)
		copy(src[at:at+500], bytes.Repeat([]byte("N"), 500))
	}
	return src
}

// BenchmarkEncode compares the one-pass codec with the two-step
// ParseSeq + Pack it replaces.
func BenchmarkEncode(b *testing.B) {
	src := benchSource()
	b.Run("Encode", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for b.Loop() {
			Encode(src)
		}
	})
	b.Run("ParseSeq+Pack", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for b.Loop() {
			encodeOracle(src)
		}
	})
}

// BenchmarkUnpack times rebuilding a Seq from packed planes.
func BenchmarkUnpack(b *testing.B) {
	_, p := Encode(benchSource())
	b.SetBytes(int64(p.Len()))
	for b.Loop() {
		p.Unpack()
	}
}
