package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// opTimeout bounds one CLI op or service job; an op past it is failed.
const opTimeout = 60 * time.Second

// cliOp is one offtarget invocation and what its output must contain.
type cliOp struct {
	args    []string
	replay  replayOp
	planted []plantedSite
}

// cliInputs is a generated CLI workload: its reference and op list.
type cliInputs struct {
	genomeLen int
	ops       []cliOp
}

// opStats is what running one child process measured.
type opStats struct {
	wall  float64 // exec to exit, output closed
	cpu   float64 // user + system seconds
	rssMB float64 // peak resident set
}

// runProc runs one program to completion and reports its rusage. A
// nonzero exit, a signal or the timeout is an error.
func runProc(bin string, args ...string) (opStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	st := opStats{wall: time.Since(t0).Seconds()}
	if ps := cmd.ProcessState; ps != nil {
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			st.cpu = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
			st.rssMB = float64(ru.Maxrss) / 1024 // kB on Linux
		}
	}
	if err != nil {
		tail := stderr.Bytes()
		if len(tail) > 400 {
			tail = tail[len(tail)-400:]
		}
		return st, fmt.Errorf("%s %v: %w: %s", filepath.Base(bin), args, err, bytes.TrimSpace(tail))
	}
	return st, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// genCLIGenome: a plain random reference in a few chromosomes, searched
// by four lists of ten guides each; six guides per list carry two
// planted sites each at 0..3 mismatches.
func (b *bench) genCLIGenome(dir string) (*cliInputs, error) {
	r := newRNG(b.seed, 1)
	contigs, _ := genGenome(r, genomeSpec{Contigs: 6, TotalLen: 6_000_000, GC: 0.41})
	return b.writeCLIInputs(dir, r, contigs, nil, cliShape{ops: 4, guides: 10, plantedGuides: 6, perGuide: 2, k: 3})
}

// genCLILibrary: a repeat-rich reference (60% of it copies of four
// 300-bp families at 6% divergence) searched by a library of 120
// guides, 48 of them drawn from the repeat consensus, at k = 4.
func (b *bench) genCLILibrary(dir string) (*cliInputs, error) {
	r := newRNG(b.seed, 2)
	contigs, consensus := genGenome(r, genomeSpec{
		Contigs: 4, TotalLen: 2_500_000, GC: 0.41,
		Families: 4, RepeatLen: 300, RepeatFrac: 0.6, Divergence: 0.06, ConsensusGuides: 12,
	})
	return b.writeCLIInputs(dir, r, contigs, consensus, cliShape{ops: 3, guides: 120, plantedGuides: 10, perGuide: 1, k: 4})
}

// genIndexQueries: the cli-genome reference, indexed once by
// genomeindex; each op queries the index with four fresh guides, every
// one carrying two planted sites.
func (b *bench) genIndexQueries(dir string) (*cliInputs, error) {
	r := newRNG(b.seed, 3)
	contigs, _ := genGenome(r, genomeSpec{Contigs: 6, TotalLen: 6_000_000, GC: 0.41})
	in, err := b.writeCLIInputs(dir, r, contigs, nil, cliShape{ops: 6, guides: 4, plantedGuides: 4, perGuide: 2, k: 3})
	if err != nil {
		return nil, err
	}
	fa, index := filepath.Join(dir, "genome.fa"), filepath.Join(dir, "genome.csix")
	if _, err := runProc(filepath.Join(b.bin, "genomeindex"), "build", "-genome", fa, "-o", index); err != nil {
		return nil, err
	}
	for i := range in.ops {
		op := &in.ops[i]
		op.replay.genome, op.replay.index = "", index
		op.args = []string{"-index", index, "-guides", op.replay.guides, "-k", "3", "-workers", "1", "-o", op.replay.out}
	}
	return in, nil
}

// cliShape sizes a CLI op list.
type cliShape struct {
	ops, guides   int
	plantedGuides int // guides per op that get planted sites
	perGuide      int // planted sites per such guide
	k             int
}

// writeCLIInputs plants truth sites, then writes the reference and one
// guide file per op. Library guides (shared by every op) come first in
// each list, followed by random guides.
func (b *bench) writeCLIInputs(dir string, r *rng, contigs []contig, library [][]byte, sh cliShape) (*cliInputs, error) {
	pl := newPlanter(r, contigs)
	in := &cliInputs{genomeLen: totalLen(contigs)}
	fa := filepath.Join(dir, "genome.fa")
	var guideFiles [][][]byte
	for o := 0; o < sh.ops; o++ {
		guides := append(append([][]byte(nil), library...), randomGuides(r, sh.guides-len(library))...)
		guideFiles = append(guideFiles, guides)
		op := cliOp{replay: replayOp{
			genome: fa, k: sh.k,
			guides: filepath.Join(dir, fmt.Sprintf("guides-%d.txt", o)),
			out:    filepath.Join(dir, fmt.Sprintf("out-%d.tsv", o)),
		}}
		for gi := len(library); gi < len(library)+sh.plantedGuides; gi++ {
			for j := 0; j < sh.perGuide; j++ {
				op.planted = append(op.planted, pl.plant(gi, guides[gi], (gi+j+o)%(sh.k+1)))
			}
		}
		op.args = []string{"-genome", fa, "-guides", op.replay.guides, "-k", fmt.Sprint(sh.k), "-workers", "1", "-o", op.replay.out}
		in.ops = append(in.ops, op)
	}
	if err := writeFASTA(fa, contigs); err != nil {
		return nil, err
	}
	for o, guides := range guideFiles {
		if err := writeGuides(in.ops[o].replay.guides, guides); err != nil {
			return nil, err
		}
	}
	fi, err := os.Stat(fa)
	if err != nil {
		return nil, err
	}
	if b.printedInputs {
		return in, nil
	}
	b.printedInputs = true
	b.printf("inputs: genome_bp=%d contigs=%d fasta_bytes=%d ops=%d guides_per_op=%d k=%d planted_per_op=%d library_guides=%d",
		in.genomeLen, len(contigs), fi.Size(), sh.ops, sh.guides, sh.k, len(in.ops[0].planted), len(library))
	return in, nil
}

// cliRun drives one CLI workload: repeated set-ups (generation plus one
// untimed warm-up pass over the op list), then rounds of the fixed op
// list until the run time is spent.
func (b *bench) cliRun(gen func(string) (*cliInputs, error)) (*result, error) {
	res := newResult()
	chk := newChecker()
	in, setups, err := b.setupCLI(gen, res, chk)
	if err != nil {
		return nil, err
	}
	offtarget := filepath.Join(b.bin, "offtarget")
	var lat, rss []float64
	var passes []pass
	start := time.Now()
	for time.Since(start).Seconds() < b.seconds {
		var p pass
		for i, op := range in.ops {
			st, err := runProc(offtarget, op.args...)
			if err == nil {
				err = chk.checkFile(i, op.replay.out, op.planted)
			}
			if !res.record(err) {
				p.failed = true
				continue
			}
			lat, rss = append(lat, st.wall), append(rss, st.rssMB)
			// Ops run one after another, so the pass takes the sum of
			// their walls; the output checks between them are not counted.
			p.wall += st.wall
			p.cpu += st.cpu
			p.ops++
		}
		passes = append(passes, p)
	}
	res.setE2E(b, setups, lat, passes, in.genomeLen, median(rss))
	return res, nil
}

// setupCLI sets the workload up b.setups times from scratch and returns
// the last set-up's inputs and every set-up's duration.
func (b *bench) setupCLI(gen func(string) (*cliInputs, error), res *result, chk *checker) (*cliInputs, []float64, error) {
	var in *cliInputs
	var times []float64
	for s := 0; s < b.setups; s++ {
		dir, err := b.freshDir()
		if err != nil {
			return nil, nil, err
		}
		chk.reset()
		t0 := time.Now()
		if in, err = gen(dir); err != nil {
			return nil, nil, err
		}
		var failed error
		for i, op := range in.ops {
			_, err := runProc(filepath.Join(b.bin, "offtarget"), op.args...)
			if err == nil {
				err = chk.checkFile(i, op.replay.out, op.planted)
			}
			if !res.record(err) {
				failed = err
			}
		}
		times = append(times, time.Since(t0).Seconds())
		if failed != nil {
			return nil, nil, fmt.Errorf("warm-up op failed: %w", failed)
		}
	}
	return in, times, nil
}

// cliTrace is the traced mode of a CLI workload. It interleaves three
// kinds of op on the same list: the real CLI (untraced end to end), an
// in-process replay with spans, and the same replay without spans (the
// difference of the two replays is the tracing overhead).
func (b *bench) cliTrace(gen func(string) (*cliInputs, error), index bool) (*result, error) {
	res := newResult()
	chk := newChecker()
	b.setups = 1
	in, _, err := b.setupCLI(gen, res, chk)
	if err != nil {
		return nil, err
	}
	lt := newLayerTable()
	if index {
		if err := buildIndexInProcess(filepath.Dir(in.ops[0].replay.out), lt); !res.record(err) {
			return nil, err
		}
	}
	offtarget := filepath.Join(b.bin, "offtarget")
	var e2e, traced, plain []float64
	var counts map[string]float64
	var spans *spanLog
	start := time.Now()
	for time.Since(start).Seconds() < b.seconds {
		for i, op := range in.ops {
			st, err := runProc(offtarget, op.args...)
			if err == nil {
				err = chk.checkFile(i, op.replay.out, op.planted)
			}
			if res.record(err) {
				e2e = append(e2e, st.wall)
			}
			ref := chk.ref[i]
			for _, withSpans := range []bool{true, false} {
				rr, err := replay(op.replay, withSpans)
				if err == nil && rr.hash != ref {
					err = fmt.Errorf("replay of op %d: output differs from the CLI's", i)
				}
				if !res.record(err) {
					continue
				}
				if !withSpans {
					plain = append(plain, rr.wall)
					continue
				}
				traced = append(traced, rr.wall)
				for layer, s := range rr.spans.selfTimes() {
					lt.add(layer, s)
				}
				lt.add("runtime.alloc_mb_per_op", rr.allocMB)
				lt.add("runtime.gc_cycles_per_op", rr.gcs)
				if i == 0 {
					if counts != nil && !maps.Equal(counts, rr.counts) {
						res.record(fmt.Errorf("replay counts of op 0 changed between repeats"))
					}
					counts = rr.counts
					spans = rr.spans
				}
			}
		}
	}
	if err := writeSpans(filepath.Join(filepath.Dir(in.ops[0].replay.out), "spans.json"), spans); err != nil {
		return nil, err
	}
	// Counts are op 0's, which repeat exactly across replays and runs.
	lt.addReplayCounts(counts, index)
	res.layers(b, lt, e2e, traced, plain)
	return res, nil
}

// checker verifies op outputs: the first output of each op must hold
// every planted site for its guides, and every later output of the same
// op must equal the first byte for byte.
type checker struct {
	ref  map[int][32]byte // hash of each op's first output
	rows map[int][32]byte // the same, with its lines sorted
}

func newChecker() *checker {
	return &checker{ref: make(map[int][32]byte), rows: make(map[int][32]byte)}
}

func (c *checker) reset() { *c = *newChecker() }

// rowsHash hashes data with its lines sorted, so outputs holding the
// same rows in another order (the service's contig order against the
// CLI's sorted batch output) hash alike.
func rowsHash(data []byte) [32]byte {
	lines := bytes.Split(data, []byte("\n"))
	sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	return sha256.Sum256(bytes.Join(lines, []byte("\n")))
}

func (c *checker) checkFile(op int, path string, planted []plantedSite) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return c.check(op, data, planted)
}

func (c *checker) check(op int, data []byte, planted []plantedSite) error {
	h := sha256.Sum256(data)
	if ref, ok := c.ref[op]; ok {
		if h != ref {
			return fmt.Errorf("op %d: output differs from its first run", op)
		}
		return nil
	}
	if err := checkTSV(data, planted); err != nil {
		return fmt.Errorf("op %d: %w", op, err)
	}
	c.ref[op], c.rows[op] = h, rowsHash(data)
	return nil
}

const tsvHeader = "guide\tchrom\tpos\tstrand\tmismatches\tsite\talignment"

// checkTSV requires the TSV header and a row for every planted site
// (guide, chrom, pos, strand and mismatch count all equal).
func checkTSV(data []byte, planted []plantedSite) error {
	header, rows, _ := bytes.Cut(data, []byte("\n"))
	if string(header) != tsvHeader {
		return fmt.Errorf("bad TSV header %q", header)
	}
	have := make(map[string]bool)
	for len(rows) > 0 {
		var line []byte
		line, rows, _ = bytes.Cut(rows, []byte("\n"))
		n, cut := 0, -1
		for i, ch := range line {
			if ch == '\t' {
				if n++; n == 5 {
					cut = i
					break
				}
			}
		}
		if cut < 0 {
			return fmt.Errorf("short TSV row %q", line)
		}
		have[string(line[:cut])] = true
	}
	for _, p := range planted {
		if !have[p.key()] {
			return fmt.Errorf("planted site %q missing from output", p.key())
		}
	}
	return nil
}
