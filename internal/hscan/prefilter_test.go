package hscan

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/cap-repro/crisprscan/internal/arch"
	"github.com/cap-repro/crisprscan/internal/automata"
	"github.com/cap-repro/crisprscan/internal/dna"
)

// bothStrandSpecs builds plus+minus specs for random guides, the shape
// the orchestrator feeds engines.
func bothStrandSpecs(rng *rand.Rand, n, m, k int) []PatternSpec {
	pam := dna.MustParsePattern("NGG")
	var specs []PatternSpec
	for i := 0; i < n; i++ {
		spacer := make(dna.Seq, m)
		for j := range spacer {
			spacer[j] = dna.Base(rng.Intn(4))
		}
		plus := arch.PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: k, Code: int32(2 * i)}
		specs = append(specs, plus, plus.MinusSpec(int32(2*i+1)))
	}
	return specs
}

func TestPrefilterMatchesBitapBothStrands(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 8; trial++ {
		specs := bothStrandSpecs(rng, 3, 10+rng.Intn(8), rng.Intn(4))
		c := chromOf(rng, 12000, 0.01)
		pre, err := New(specs, ModePrefilter)
		if err != nil {
			t.Fatal(err)
		}
		bit, err := New(specs, ModeBitap)
		if err != nil {
			t.Fatal(err)
		}
		a := collect(t, pre, c)
		b := collect(t, bit, c)
		if len(a) != len(b) {
			t.Fatalf("trial %d: prefilter %d vs bitap %d", trial, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("trial %d report %d: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestPrefilterParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	specs := bothStrandSpecs(rng, 4, 8, 2)
	c := chromOf(rng, 40000, 0.005)
	serial, _ := New(specs, ModePrefilter)
	par, _ := New(specs, ModePrefilter)
	par.Parallelism = 6
	a := collect(t, serial, c)
	b := collect(t, par, c)
	if len(a) == 0 {
		t.Fatal("weak fixture")
	}
	if len(a) != len(b) {
		t.Fatalf("parallel prefilter differs: %d vs %d", len(b), len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report %d differs", i)
		}
	}
}

func TestPrefilterErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	partial := []PatternSpec{{
		Spacer: dna.MustParsePattern("ACGR"),
		PAM:    dna.MustParsePattern("NGG"), K: 0, Code: 0,
	}}
	for _, tc := range []struct {
		name  string
		specs []PatternSpec
	}{
		{"spacer over 32", randSpecs(rng, 1, 33, 0)},
		{"ragged geometry", append(randSpecs(rng, 1, 10, 1), randSpecs(rng, 1, 12, 1)...)},
		{"partially degenerate spacer", partial},
	} {
		if _, err := New(tc.specs, ModePrefilter); !errors.Is(err, ErrPrefilterFit) {
			t.Errorf("%s: prefilter mode returned %v, want ErrPrefilterFit", tc.name, err)
		}
		// The same set compiles in bitap mode, the fallback.
		if _, err := New(tc.specs, ModeBitap); err != nil {
			t.Errorf("%s: bitap mode: %v", tc.name, err)
		}
	}
	if _, err := New(randSpecs(rng, 1, 8, 9), ModePrefilter); err == nil || errors.Is(err, ErrPrefilterFit) {
		t.Errorf("k over the spacer must be a plain build error, got %v", err)
	}
}

func TestPrefilterMultiPAM(t *testing.T) {
	// NGG and NAG patterns in one engine (the multi-PAM feature real
	// off-target tools offer): prefilter must equal bitap.
	rng := rand.New(rand.NewSource(126))
	var specs []PatternSpec
	for i := 0; i < 3; i++ {
		spacer := make(dna.Seq, 8)
		for j := range spacer {
			spacer[j] = dna.Base(rng.Intn(4))
		}
		pam := dna.MustParsePattern("NGG")
		if i%2 == 1 {
			pam = dna.MustParsePattern("NAG")
		}
		plus := arch.PatternSpec{Spacer: dna.PatternFromSeq(spacer), PAM: pam, K: 2, Code: int32(2 * i)}
		specs = append(specs, plus, plus.MinusSpec(int32(2*i+1)))
	}
	c := chromOf(rng, 15000, 0.01)
	pre, err := New(specs, ModePrefilter)
	if err != nil {
		t.Fatal(err)
	}
	bit, err := New(specs, ModeBitap)
	if err != nil {
		t.Fatal(err)
	}
	a := collect(t, pre, c)
	b := collect(t, bit, c)
	if len(a) == 0 {
		t.Fatal("weak fixture")
	}
	if len(a) != len(b) {
		t.Fatalf("multi-PAM prefilter %d vs bitap %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("report %d differs", i)
		}
	}
}

func TestPrefilterTinyChromosome(t *testing.T) {
	rng := rand.New(rand.NewSource(124))
	specs := randSpecs(rng, 1, 10, 1)
	c := chromOf(rng, 5, 0) // shorter than the window
	e, _ := New(specs, ModePrefilter)
	got := collect(t, e, c)
	if len(got) != 0 {
		t.Errorf("tiny chromosome: %v", got)
	}
}

// TestPrefilterPropertyAgainstOracle is the property-based check: for
// random guides, genomes and budgets, the prefilter path equals the
// positional oracle.
func TestPrefilterPropertyAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(125))
	f := func(seed int64, kRaw, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		k := int(kRaw) % 4
		n := 1 + int(nRaw)%4
		specs := bothStrandSpecs(r, n, 8, k)
		c := chromOf(r, 3000, 0.02)
		e, err := New(specs, ModePrefilter)
		if err != nil {
			return false
		}
		var got []automata.Report
		if err := e.ScanChrom(context.Background(), c, func(rep automata.Report) { got = append(got, rep) }); err != nil {
			return false
		}
		want := oracleGeneric(specs, c.Seq)
		if len(got) != len(want) {
			return false
		}
		seen := map[automata.Report]bool{}
		for _, r := range got {
			seen[r] = true
		}
		for _, r := range want {
			if !seen[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// oracleGeneric handles PAMLeft specs too.
func oracleGeneric(specs []PatternSpec, seq dna.Seq) []automata.Report {
	var out []automata.Report
	for _, spec := range specs {
		site := spec.SiteLen()
		window := spec.Window()
		for p := 0; p+site <= len(seq); p++ {
			w := seq[p : p+site]
			if w.HasAmbiguous() {
				continue
			}
			mism := 0
			bad := false
			for i, m := range window {
				if !m.Has(w[i]) {
					spacerStart := spec.SpacerOffset()
					if i >= spacerStart && i < spacerStart+len(spec.Spacer) {
						mism++
					} else {
						bad = true
						break
					}
				}
			}
			if !bad && mism <= spec.K {
				out = append(out, automata.Report{Code: spec.Code, End: p + site - 1})
			}
		}
	}
	return out
}

// edgeCase is one PAM configuration for the chunk- and word-edge test.
type edgeCase struct {
	name      string
	pams      []string
	pam5      bool
	spacerLen int
	k         int
}

var edgeCases = []edgeCase{
	{"NGG", []string{"NGG"}, false, 20, 3},
	{"NGG+NAG", []string{"NGG", "NAG"}, false, 20, 2},
	{"TTTV", []string{"TTTV"}, true, 20, 3},
	// k >= spacer length: k+1 fragments cannot fit, so the screen is
	// one key holding every pattern.
	{"NGG-degenerate", []string{"NGG"}, false, 4, 4},
}

// edgeSpecs builds both-strand specs for n random guides, cycling
// through the case's PAMs; one guide in three carries an N spacer
// position.
func edgeSpecs(rng *rand.Rand, tc edgeCase, n int) []PatternSpec {
	var specs []PatternSpec
	for i := 0; i < n; i++ {
		spacer := make(dna.Pattern, tc.spacerLen)
		for j := range spacer {
			spacer[j] = dna.Base(rng.Intn(4)).Mask()
		}
		if i%3 == 1 {
			spacer[rng.Intn(tc.spacerLen)] = dna.MaskAny
		}
		pam := dna.MustParsePattern(tc.pams[i%len(tc.pams)])
		plus := PatternSpec{Spacer: spacer, PAM: pam, PAMLeft: tc.pam5, K: tc.k, Code: int32(2 * i)}
		specs = append(specs, plus, plus.MinusSpec(int32(2*i+1)))
	}
	return specs
}

// plantSite writes an instance of spec's window at start with mm
// mismatches in concrete spacer lanes and returns its End.
func plantSite(rng *rand.Rand, seq dna.Seq, spec PatternSpec, start, mm int) int {
	window := spec.Window()
	for i, m := range window {
		for {
			b := dna.Base(rng.Intn(4))
			if m.Has(b) {
				seq[start+i] = b
				break
			}
		}
	}
	so := spec.SpacerOffset()
	for _, j := range rng.Perm(len(spec.Spacer)) {
		if mm == 0 {
			break
		}
		if spec.Spacer[j] == dna.MaskAny {
			continue
		}
		seq[start+so+j] = (seq[start+so+j] + dna.Base(1+rng.Intn(3))) % 4
		mm--
	}
	return start + len(window) - 1
}

// TestPrefilterChunkAndWordEdges checks ModePrefilter, and ModeBitap,
// its fallback, against the positional oracle on a chromosome of more
// than two chunks plus an odd tail. Sites on both strands at 0..k mismatches straddle every chunk
// edge, a spread of 32- and 64-base word edges and the chromosome end,
// and each has copies beside it with an N in a PAM lane and in a spacer
// lane, which must not report.
func TestPrefilterChunkAndWordEdges(t *testing.T) {
	n := 2*arch.DefaultChunk + 4099
	for ci, tc := range edgeCases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(300 + ci)))
			specs := edgeSpecs(rng, tc, 4)
			c := chromOf(rng, n, 0.002)
			seq := c.Seq
			site := specs[0].SiteLen()

			used := make([]bool, n)
			free := func(lo, hi int) bool {
				if lo < 0 || hi > n {
					return false
				}
				for i := lo; i < hi; i++ {
					if used[i] {
						return false
					}
				}
				for i := lo; i < hi; i++ {
					used[i] = true
				}
				return true
			}
			var planted, poisoned []int
			plant := func(start int) bool {
				spec := specs[rng.Intn(len(specs))]
				if !free(start, start+site) {
					return false
				}
				end := plantSite(rng, seq, spec, start, rng.Intn(spec.K+1))
				planted = append(planted, end)
				// Copies beside it, one with an N in a PAM lane and one
				// with an N in a spacer lane.
				for i, lane := range []int{spec.PAMOffset(), spec.SpacerOffset()} {
					s := end + 1 + i*site
					if !free(s, s+site) {
						continue
					}
					copy(seq[s:s+site], seq[start:start+site])
					width := len(spec.PAM)
					if i == 1 {
						width = len(spec.Spacer)
					}
					seq[s+lane+rng.Intn(width)] = dna.BadBase
					poisoned = append(poisoned, s+site-1)
				}
				return true
			}
			// Every chunk edge and the chromosome end (its last window)
			// first, so nothing else takes their space; then windows
			// beside the chunk edges and across random word edges.
			var edges []int
			for e := arch.DefaultChunk; e < n; e += arch.DefaultChunk {
				if !plant(e - rng.Intn(site)) {
					t.Fatalf("no site planted across chunk edge %d", e)
				}
				edges = append(edges, e-64, e-32, e+32, e+64)
			}
			if !plant(n - site) {
				t.Fatal("no site planted at the chromosome end")
			}
			plant(n - 2*site - 1)
			for i := 0; i < 60; i++ {
				edges = append(edges, 32*(1+rng.Intn(n/32-2)), 64*(1+rng.Intn(n/64-2)))
			}
			for _, e := range edges {
				plant(e - rng.Intn(site))
			}
			c.Packed = dna.Pack(seq)

			want := oracleGeneric(specs, seq)
			sortReports(want)
			ends := map[int]bool{}
			for _, r := range want {
				ends[r.End] = true
			}
			for _, end := range planted {
				if !ends[end] {
					t.Fatalf("planted site ending at %d missing from the oracle", end)
				}
			}
			for _, end := range poisoned {
				if ends[end] {
					t.Fatalf("site ending at %d reported despite an N in its window", end)
				}
			}
			if len(planted) < len(edges)/2 {
				t.Fatalf("weak fixture: %d sites planted for %d edges", len(planted), len(edges))
			}
			for _, mode := range []Mode{ModePrefilter, ModeBitap} {
				for _, par := range []int{1, 3} {
					e, err := New(specs, mode)
					if err != nil {
						t.Fatal(err)
					}
					e.Parallelism = par
					got := collect(t, e, c)
					if len(got) != len(want) {
						t.Fatalf("%v Parallelism %d: %d reports, oracle %d", mode, par, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%v Parallelism %d: report %d = %v, oracle %v", mode, par, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestPrefilterUnalignedChunks drives the kernel over random [lo, hi)
// cuts of 1..300 positions, almost none aligned to a 64-position block,
// and checks that the concatenated batches and counters equal one
// whole-range pass, in emission order: ascending position, then group,
// then pattern.
func TestPrefilterUnalignedChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(310))
	for _, tc := range edgeCases {
		specs := edgeSpecs(rng, tc, 3)
		c := chromOf(rng, 5000+rng.Intn(200), 0.01)
		for i := 0; i < 40; i++ {
			spec := specs[rng.Intn(len(specs))]
			plantSite(rng, c.Seq, spec, rng.Intn(len(c.Seq)-spec.SiteLen()), rng.Intn(spec.K+1))
		}
		c.Packed = dna.Pack(c.Seq)
		e, err := New(specs, ModePrefilter)
		if err != nil {
			t.Fatal(err)
		}
		total := len(c.Seq) - e.preSite + 1
		var whole []automata.Report
		wantHits, wantVerifs := e.scanPrefilter(c, 0, total, &whole)
		var cut []automata.Report
		var hits, verifs int64
		for lo := 0; lo < total; {
			hi := min(total, lo+1+rng.Intn(300))
			h, v := e.scanPrefilter(c, lo, hi, &cut)
			hits, verifs = hits+h, verifs+v
			lo = hi
		}
		if hits != wantHits || verifs != wantVerifs {
			t.Fatalf("%s: cut counters %d/%d, whole %d/%d", tc.name, hits, verifs, wantHits, wantVerifs)
		}
		if len(cut) != len(whole) {
			t.Fatalf("%s: cut %d reports, whole %d", tc.name, len(cut), len(whole))
		}
		for i := range cut {
			if cut[i] != whole[i] {
				t.Fatalf("%s: report %d = %v, whole %v", tc.name, i, cut[i], whole[i])
			}
		}
		// Emission order: the oracle's reports ranked by position, then
		// group (first appearance of PAM and orientation), then pattern.
		rank := map[int32][2]int{}
		groupOf := map[string]int{}
		perGroup := map[int]int{}
		for _, s := range specs {
			key := fmt.Sprint(s.PAM, s.PAMLeft)
			if _, ok := groupOf[key]; !ok {
				groupOf[key] = len(groupOf)
			}
			g := groupOf[key]
			rank[s.Code] = [2]int{g, perGroup[g]}
			perGroup[g]++
		}
		want := oracleGeneric(specs, c.Seq)
		sort.Slice(want, func(i, j int) bool {
			if want[i].End != want[j].End {
				return want[i].End < want[j].End
			}
			ri, rj := rank[want[i].Code], rank[want[j].Code]
			if ri[0] != rj[0] {
				return ri[0] < rj[0]
			}
			return ri[1] < rj[1]
		})
		if len(want) < 20 {
			t.Fatalf("%s: weak fixture, %d sites", tc.name, len(want))
		}
		if len(whole) != len(want) {
			t.Fatalf("%s: %d reports, oracle %d", tc.name, len(whole), len(want))
		}
		for i := range whole {
			if whole[i] != want[i] {
				t.Fatalf("%s: emission %d = %v, want %v", tc.name, i, whole[i], want[i])
			}
		}
	}
}

// TestPrefilterCounters pins the prefilter counters: one PAM hit per
// (position, group) whose PAM lanes match with no ambiguous base,
// ambiguous spacers included, and no more verifications than hits
// times the group's patterns, at least one per reported site.
func TestPrefilterCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	for _, tc := range edgeCases {
		specs := edgeSpecs(rng, tc, 3)
		c := chromOf(rng, 9000, 0.02)
		e, err := New(specs, ModePrefilter)
		if err != nil {
			t.Fatal(err)
		}
		total := len(c.Seq) - e.preSite + 1
		var out []automata.Report
		hits, verifs := e.scanPrefilter(c, 0, total, &out)
		var wantHits, maxVerifs int64
		seen := map[string]bool{}
		for _, s := range specs {
			key := fmt.Sprint(s.PAM, s.PAMLeft)
			if seen[key] {
				continue
			}
			seen[key] = true
			npats := int64(0)
			for _, o := range specs {
				if fmt.Sprint(o.PAM, o.PAMLeft) == key {
					npats++
				}
			}
			for p := 0; p < total; p++ {
				if s.PAM.Matches(c.Seq[p+s.PAMOffset() : p+s.PAMOffset()+len(s.PAM)]) {
					wantHits++
					maxVerifs += npats
				}
			}
		}
		if hits != wantHits {
			t.Errorf("%s: %d PAM hits, want %d", tc.name, hits, wantHits)
		}
		if verifs < int64(len(out)) || verifs > maxVerifs {
			t.Errorf("%s: %d verifications for %d sites, bound %d", tc.name, verifs, len(out), maxVerifs)
		}
	}
}
