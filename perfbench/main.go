// Command perfbench is the repository's end-to-end benchmark. For one
// workload and seed it generates the inputs, drives the real binaries
// (offtarget, offtarget -serve, genomeindex) from outside, checks every
// output, and prints each metric by name and unit; the last line of
// standard output is one JSON object with the results.
//
// run.sh builds the binaries and this program, then runs it:
//
//	bash perfbench/run.sh --workload cli-genome --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 instead replays
// ops with spans around each layer's calls and reports the per-layer
// metrics with an explicit residual.
//
// Every workload is a closed loop over a fixed op list, run in whole
// rounds until --seconds have passed. Each run sets the workload up
// three times from scratch (input generation plus one untimed pass over
// the op list, or for serve-jobs a fresh service and one warm-up round)
// and reports the median as setup_s. latency_p50_s and latency_p75_s
// are over the timed ops (a CLI op runs from exec to exit, a service op
// from POST /v1/jobs to the last output byte). throughput_mbp_s is the
// reference length times ops over the wall time of one pass over the
// fixed op list, and cpu_s_per_op the program's user plus system time
// per op in that pass (rusage of CLI children, /proc stat of the
// service); both are medians over the run's passes. peak_rss_mb is the
// median per-op maxrss of CLI children, or the service's VmHWM.
//
// On a shared 2-vCPU machine the CPU's speed drifts by 10-30% over
// tens of seconds. Every timing is therefore a median over many short
// ops rather than one long op, and medians of separate runs still
// differ by about as much as the machine drifted between them.
//
// The package is its own module so `go test ./...` at the repository
// root does not run it; test it with `cd perfbench && go test ./...`.
package main

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// workload is one benchmark input set and how to run it. Why each was
// chosen is recorded beside its name in BENCHMARK.json.
type workload struct {
	name  string
	run   func(b *bench) (*result, error)
	trace func(b *bench) (*result, error)
}

var workloads = []workload{
	{
		name: "cli-genome",
		run:  func(b *bench) (*result, error) { return b.cliRun(b.genCLIGenome) },
		trace: func(b *bench) (*result, error) {
			return b.cliTrace(b.genCLIGenome, false)
		},
	},
	{
		name: "cli-library",
		run:  func(b *bench) (*result, error) { return b.cliRun(b.genCLILibrary) },
		trace: func(b *bench) (*result, error) {
			return b.cliTrace(b.genCLILibrary, false)
		},
	},
	{
		name:  "serve-jobs",
		run:   (*bench).serveRun,
		trace: (*bench).serveTrace,
	},
	{
		name: "index-queries",
		run:  func(b *bench) (*result, error) { return b.cliRun(b.genIndexQueries) },
		trace: func(b *bench) (*result, error) {
			return b.cliTrace(b.genIndexQueries, true)
		},
	},
}

// bench carries one run's settings.
type bench struct {
	root, bin, work string
	workload        string
	seed            int64
	seconds         float64
	setups          int // set-ups per run; setup_s is their median
	printedInputs   bool
	out             io.Writer
}

func (b *bench) printf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// freshDir empties and returns the workload's scratch directory.
func (b *bench) freshDir() (string, error) {
	dir := filepath.Join(b.work, b.workload)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

func main() {
	b := &bench{setups: 3, out: os.Stdout}
	var traced int
	flag.StringVar(&b.workload, "workload", "", "workload name")
	flag.Int64Var(&b.seed, "seed", 1, "input seed")
	flag.Float64Var(&b.seconds, "seconds", 10, "measured time per run")
	flag.IntVar(&traced, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&b.root, "root", ".", "repository root")
	flag.StringVar(&b.bin, "bin", "", "directory holding the built offtarget and genomeindex")
	flag.StringVar(&b.work, "work", "", "scratch directory for inputs and outputs")
	flag.Parse()
	if err := run(b, traced == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(b *bench, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == b.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", b.workload)
	}
	if b.bin == "" || b.work == "" {
		return fmt.Errorf("-bin and -work are required")
	}
	b.printf("env: cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s workload=%s seed=%d seconds=%g trace=%t",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), revision(b.root),
		b.workload, b.seed, b.seconds, traced)
	defs, fn := endToEnd, w.run
	if traced {
		defs, fn = perLayer, w.trace
	}
	res, err := fn(b)
	if err != nil {
		return fmt.Errorf("%s: %w", b.workload, err)
	}
	res.printTable(b.out, defs)
	return res.emit(b.out, defs)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// revision names the measured source: the git commit when root is a
// repository, else a hash of every Go source and go.mod under root. It
// asks git only when root itself holds .git, so a plain export inside
// some other repository is not stamped with that repository's commit.
func revision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "--short=12", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("tree-%x", h.Sum(nil)[:6])
}
