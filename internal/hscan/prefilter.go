package hscan

import (
	"errors"
	"fmt"
	"math/bits"

	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
	"github.com/cap-repro/crisprscan/internal/genome"
)

// maxKeyBases caps a screen key at 6 bases: 4096 rows per fragment.
const maxKeyBases = 6

// ErrPrefilterFit marks a pattern set the prefilter cannot compile: a
// spacer over 32 nt (the packed spacer is one word), a partially
// degenerate spacer position (the screen keys and the confirm lanes
// take concrete or N bases only), or mixed window geometry (one PAM
// mask pass serves every group). ModeBitap scans such a set.
var ErrPrefilterFit = errors.New("hscan: pattern set does not fit the prefilter")

// prefilterGroup holds the patterns sharing one PAM orientation for
// ModePrefilter: the group's PAM lanes and its pigeonhole screen.
type prefilterGroup struct {
	pats      []anchoredPat
	pam       []pamLane
	spacerOff int

	// The pigeonhole screen. The spacer is cut into k_max+1 disjoint
	// fragments, one screenFrag each; row frag.row+key of screen is a
	// bitset, rowWords words long, of the patterns whose spacer equals
	// key on that fragment's key lanes (an N lane equals every base).
	frags    []screenFrag
	keyMask  uint64
	rowWords int
	screen   []uint64
}

// screenFrag is one fragment of a group's screen: the lane shift of
// its key within the packed spacer word and its first screen row.
type screenFrag struct {
	shift uint
	row   int
}

// pamLane is one PAM position of a group: its IUPAC set and its offset
// in the window.
type pamLane struct {
	set dna.Mask
	off uint
}

// setMasks holds one 64-position member mask per IUPAC set, indexed by
// the set's dna.Mask value: four bits, so sixteen sets at most.
type setMasks [16]uint64

// fill computes the member mask of each set in sets for the block whose
// code words are w0, w1 and ambiguity word a. The code words are split
// into high- and low-bit planes; each term of a mask is then a
// lane-equality test against one 2-bit code (A=00, C=01, G=10, T=11),
// selected when bit b of the set (base b) is on. Ambiguous positions
// read as A in the code words, so they are cleared from every set.
func (m *setMasks) fill(sets []dna.Mask, w0, w1, a uint64) {
	u0, u1 := unzip(w0), unzip(w1)
	hi, lo := u0>>32|u1&^0xffffffff, u0&0xffffffff|u1<<32
	for _, s := range sets {
		sa, sc, sg, st := -uint64(s>>dna.A&1), -uint64(s>>dna.C&1), -uint64(s>>dna.G&1), -uint64(s>>dna.T&1)
		m[s&15] = (^hi&^lo&sa | ^hi&lo&sc | hi&^lo&sg | hi&lo&st) &^ a
	}
}

// anchoredPat is the anchored-evaluation form of one pattern: the packed
// spacer word and the lane mask of concrete positions. Evaluating
// popcount((window XOR word) AND lanes) <= k is exactly the Hamming
// lattice automaton's accept condition at this alignment, computed
// bit-parallel.
type anchoredPat struct {
	word  uint64
	lanes uint64
	k     int
	code  int32
}

// buildPrefilter compiles the prefilter groups, one per distinct
// (PAM, orientation) pair — multiple PAM types (NGG plus NAG, say) scan
// in the same pass, each with its own literal filter, exactly as
// HyperScan compiles one FDR literal table across all patterns. The
// groups share the distinct PAM IUPAC sets, so each set's block mask is
// built once per block. A set outside the prefilter's fit fails with
// ErrPrefilterFit.
func (e *Engine) buildPrefilter(specs []PatternSpec) error {
	siteLen := specs[0].SiteLen()
	spacerLen := len(specs[0].Spacer)
	if spacerLen == 0 || spacerLen > 32 {
		return fmt.Errorf("%w: spacer length %d, need 1..32", ErrPrefilterFit, spacerLen)
	}
	e.preSite = siteLen
	e.preSpacer = spacerLen
	index := map[string]int{}
	seen := map[dna.Mask]bool{}
	for i, spec := range specs {
		if spec.SiteLen() != siteLen || len(spec.Spacer) != spacerLen {
			return fmt.Errorf("%w: pattern %d window geometry differs from pattern 0", ErrPrefilterFit, i)
		}
		key := spec.PAM.String()
		if spec.PAMLeft {
			key = "<" + key
		}
		gi, ok := index[key]
		if !ok {
			gi = len(e.preGroups)
			index[key] = gi
			g := prefilterGroup{spacerOff: spec.SpacerOffset()}
			for pi, m := range spec.PAM {
				if !seen[m] {
					seen[m] = true
					e.preSets = append(e.preSets, m)
				}
				g.pam = append(g.pam, pamLane{set: m, off: uint(spec.PAMOffset() + pi)})
			}
			e.preGroups = append(e.preGroups, g)
		}
		g := &e.preGroups[gi]
		var p anchoredPat
		p.k = spec.K
		p.code = spec.Code
		for pos, mask := range spec.Spacer {
			switch mask.Count() {
			case 1:
				var b dna.Base
				for b = dna.A; b <= dna.T; b++ {
					if mask.Has(b) {
						break
					}
				}
				p.word |= uint64(b) << uint(2*pos)
				p.lanes |= 3 << uint(2*pos)
			case 4:
			default:
				return fmt.Errorf("%w: pattern %d has a partially degenerate spacer position", ErrPrefilterFit, i)
			}
		}
		g.pats = append(g.pats, p)
	}
	for gi := range e.preGroups {
		e.preGroups[gi].buildScreen(spacerLen)
	}
	return nil
}

// buildScreen sizes and fills the group's pigeonhole screen. A pattern
// within k mismatches of a window equals it exactly on at least one of
// any k+1 disjoint spacer fragments, so with k_max+1 fragments every
// pattern that can confirm is registered under the window's key for
// some fragment. Each key is the first min(6, L/(k_max+1)) bases of its
// fragment; when k_max+1 > L that is zero bases and the table is one
// key holding every pattern.
func (g *prefilterGroup) buildScreen(spacerLen int) {
	kmax := 0
	for _, p := range g.pats {
		kmax = max(kmax, p.k)
	}
	nfrag := kmax + 1
	keyLen := min(spacerLen/nfrag, maxKeyBases)
	if keyLen == 0 {
		nfrag = 1
	}
	keys := 1 << uint(2*keyLen)
	g.keyMask = uint64(keys - 1)
	g.rowWords = (len(g.pats) + 63) / 64
	g.frags = make([]screenFrag, nfrag)
	for f := range g.frags {
		g.frags[f] = screenFrag{shift: uint(2 * (f * spacerLen / nfrag)), row: f * keys}
	}
	g.screen = make([]uint64, nfrag*keys*g.rowWords)
	for pi, p := range g.pats {
		for _, f := range g.frags {
			word, free := p.word>>f.shift&g.keyMask, ^p.lanes>>f.shift&g.keyMask
			// Every subset of the N lanes' bits, ascending from none to
			// all, so each N lane takes all four bases.
			for sub := uint64(0); ; sub = (sub - free) & free {
				g.screen[(f.row+int(word|sub))*g.rowWords+pi/64] |= 1 << uint(pi%64)
				if sub == free {
					break
				}
			}
		}
	}
}

// scanPrefilter runs the shared-literal pass over window starts
// [lo, hi), reading only the chromosome's packed planes, and appends
// matches to out, the chunk's result batch. It returns the number of
// PAM hits (one per position and group) and of anchored verifications
// run, which the caller flushes to the metrics recorder once per chunk.
//
// The loop steps one 64-position block at a time. Each distinct PAM
// set's member mask is built once per block from lane-equality tests
// with ambiguous positions cleared; a group's PAM-hit mask is the AND
// of its lanes' set masks shifted into window coordinates (reaching
// into the next block), cut to [lo, hi). Only the set bits are visited,
// in ascending position and then group order. A hit whose spacer holds
// an ambiguous base counts with nothing verified; otherwise the group's
// pigeonhole screen ORs one row per fragment, keyed by the window's own
// bases, and only the patterns in that union run the XOR/popcount
// confirm, in pattern order.
//
//crisprlint:hotpath
func (e *Engine) scanPrefilter(c *genome.Chromosome, lo, hi int, out *[]automata.Report) (hits, verifs int64) {
	words, amb := c.Packed.Words()
	groups, sets := e.preGroups, e.preSets
	last := e.preSite - 1
	spacerAmb := uint64(1)<<uint(e.preSpacer) - 1
	// Each group's PAM-hit mask for the current block.
	//crisprlint:allow hotpath one slice per chunk, sized by the engine's group count
	hitMask := make([]uint64, len(groups))
	// masks alternates between the current and the next block's set
	// masks. code and ambig hold the two blocks' planes plus a zero
	// word, so a window starting anywhere in the current block reads
	// from fixed-size arrays with no edge case.
	var masks [2]setMasks
	var code [5]uint64
	var ambig [3]uint64
	b := lo >> 6
	code[2], code[3], ambig[1] = packedBlock(words, amb, b)
	masks[b&1].fill(sets, code[2], code[3], ambig[1])
	for ; b<<6 < hi; b++ {
		code[0], code[1], ambig[0] = code[2], code[3], ambig[1]
		code[2], code[3], ambig[1] = packedBlock(words, amb, b+1)
		cur, next := &masks[b&1], &masks[(b+1)&1]
		next.fill(sets, code[2], code[3], ambig[1])

		base := b << 6
		live := ^uint64(0)
		if base < lo {
			live <<= uint(lo - base)
		}
		if hi-base < 64 {
			live &= 1<<uint(hi-base) - 1
		}
		var anyHit uint64
		for gi := range groups {
			m := live
			for _, l := range groups[gi].pam {
				m &= cur[l.set&15]>>l.off | next[l.set&15]<<(64-l.off)
			}
			hitMask[gi] = m
			anyHit |= m
			hits += int64(bits.OnesCount64(m))
		}
		for ; anyHit != 0; anyHit &= anyHit - 1 {
			j := bits.TrailingZeros64(anyHit)
			end := base + j + last
			for gi := range groups {
				if hitMask[gi]>>uint(j)&1 == 0 {
					continue
				}
				g := &groups[gi]
				s := j + g.spacerOff
				as, ash := (s>>6)&1, uint(s&63)
				if (ambig[as]>>ash|ambig[as+1]<<(64-ash))&spacerAmb != 0 {
					continue
				}
				ws, wsh := (s>>5)&3, uint(s&31)<<1
				spacer := code[ws]>>wsh | code[ws+1]<<(64-wsh)
				pats, screen, frags, keyMask, rw := g.pats, g.screen, g.frags, g.keyMask, g.rowWords
				for w := 0; w < rw; w++ {
					var cand uint64
					for _, f := range frags {
						cand |= screen[(f.row+int(spacer>>f.shift&keyMask))*rw+w]
					}
					for ; cand != 0; cand &= cand - 1 {
						p := &pats[w<<6|bits.TrailingZeros64(cand)]
						verifs++
						d := (spacer ^ p.word) & p.lanes
						if bits.OnesCount64((d|d>>1)&0x5555555555555555) <= p.k {
							//crisprlint:allow hotpath match reports are rare relative to positions; the batch grows amortized
							*out = append(*out, automata.Report{Code: p.code, End: end})
						}
					}
				}
			}
		}
	}
	return hits, verifs
}

// packedBlock returns the two code words and the ambiguity word of
// 64-position block b, zero past the end of the planes.
func packedBlock(words, amb []uint64, b int) (w0, w1, a uint64) {
	if i := 2 * b; uint(i) < uint(len(words)) {
		w0 = words[i]
	}
	if i := 2*b + 1; uint(i) < uint(len(words)) {
		w1 = words[i]
	}
	if uint(b) < uint(len(amb)) {
		a = amb[b]
	}
	return w0, w1, a
}

// unzip gathers the even bits of x into its low half and the odd bits
// into its high half (the inverse perfect shuffle, as five delta swaps).
// On a packed code word that splits the 32 bases' 2-bit codes into a
// low-bit and a high-bit plane.
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
