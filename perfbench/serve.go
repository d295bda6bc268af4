package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// serveClients is the number of closed-loop clients: each submits a
// job, polls it, downloads its output, and only then submits the next.
const serveClients = 2

// pollEvery is how often a client polls a job's state.
const pollEvery = 3 * time.Millisecond

// serveInputs is a generated service workload: one resident reference
// and a fixed list of distinct jobs.
type serveInputs struct {
	genome    string
	genomeLen int
	jobs      []serveJob
}

type serveJob struct {
	spec    []byte // POST /v1/jobs body
	op      cliOp  // the same search as a CLI op, for the -stream check
	planted []plantedSite
}

// genServeJobs: a reference split into 64 contigs, and eight distinct
// ten-guide k = 3 jobs; five guides per job carry a planted site.
func (b *bench) genServeJobs(dir string) (*serveInputs, error) {
	r := newRNG(b.seed, 4)
	contigs, _ := genGenome(r, genomeSpec{Contigs: 64, TotalLen: 4_000_000, GC: 0.41})
	in, err := b.writeCLIInputs(dir, r, contigs, nil, cliShape{ops: 8, guides: 10, plantedGuides: 5, perGuide: 1, k: 3})
	if err != nil {
		return nil, err
	}
	out := &serveInputs{genome: filepath.Join(dir, "genome.fa"), genomeLen: in.genomeLen}
	for _, op := range in.ops {
		guides, err := readGuides(op.replay.guides)
		if err != nil {
			return nil, err
		}
		type guide struct {
			Spacer string `json:"spacer"`
		}
		spec := struct {
			Guides  []guide `json:"guides"`
			K       int     `json:"k"`
			Workers int     `json:"workers"`
		}{K: op.replay.k, Workers: 1}
		for _, g := range guides {
			spec.Guides = append(spec.Guides, guide{Spacer: g})
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		out.jobs = append(out.jobs, serveJob{spec: body, op: op, planted: op.planted})
	}
	return out, nil
}

// server is one `offtarget -serve` child process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
}

// startServer runs the service on a loopback port chosen by the kernel
// and waits until /readyz answers 200. A negative quota rate disables
// per-tenant admission quotas, so a closed loop is never throttled.
func (b *bench) startServer(dir, genome string) (*server, error) {
	sn := &addrSniffer{found: make(chan string, 1)}
	cmd := exec.Command(filepath.Join(b.bin, "offtarget"), "-serve",
		"-serve-dir", filepath.Join(dir, "spool"), "-genome", genome,
		"-http", "127.0.0.1:0", "-serve-workers", "1", "-serve-quota-rate", "-1",
		"-serve-drain", "5s", "-log-format", "json")
	cmd.Stderr = sn
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	select {
	case addr := <-sn.found:
		s.base = "http://" + addr
	case err := <-s.exited:
		s.exited <- err
		return nil, fmt.Errorf("service exited during start-up: %v: %s", err, sn.tail())
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("service did not report its address: %s", sn.tail())
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("service never became ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop drains the service with SIGTERM (kill after 15 s) and waits for
// the process to exit.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// cpuSeconds reads the service's user plus system CPU time.
func (s *server) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3.
	_, rest, _ := bytes.Cut(data, []byte(") "))
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times %q %q", f[11], f[12])
	}
	return (ut + st) / 100, nil // USER_HZ is 100 on Linux
}

// peakRSSMB reads the service's VmHWM.
func (s *server) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// heapStats reads TotalAlloc and NumGC from the service's
// /debug/pprof/heap?debug=1 page.
func (c *jobClient) heapStats() (allocMB, gcs float64, err error) {
	body, err := c.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	found := 0
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			x, err := strconv.ParseFloat(v, 64)
			allocMB, found = x/(1<<20), found+1
			if err != nil {
				return 0, 0, err
			}
		}
		if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			x, err := strconv.ParseFloat(v, 64)
			gcs, found = x, found+1
			if err != nil {
				return 0, 0, err
			}
		}
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("heap profile lacks TotalAlloc/NumGC")
	}
	return allocMB, gcs, nil
}

// addrSniffer takes the service's JSON log on stderr, reports the
// address of the "scan service listening" line, and keeps a short tail
// for error messages.
type addrSniffer struct {
	found   chan string
	pending []byte
	last    []byte
	seen    bool
}

func (a *addrSniffer) Write(p []byte) (int, error) {
	a.pending = append(a.pending, p...)
	for {
		line, rest, ok := bytes.Cut(a.pending, []byte("\n"))
		if !ok {
			break
		}
		a.last = append(a.last[:0], line...)
		if !a.seen {
			var rec struct{ Msg, Addr string }
			if json.Unmarshal(line, &rec) == nil && rec.Msg == "scan service listening" && rec.Addr != "" {
				a.seen = true
				a.found <- rec.Addr
			}
		}
		a.pending = append(a.pending[:0], rest...)
	}
	return len(p), nil
}

// tail is the last complete log line; read it only after the process
// has exited or from the goroutine that writes.
func (a *addrSniffer) tail() string { return string(a.last) }

// jobClient speaks the /v1/jobs API.
type jobClient struct {
	base string
	hc   *http.Client
}

func newJobClient(base string) *jobClient {
	return &jobClient{base: base, hc: &http.Client{Timeout: opTimeout}}
}

func (c *jobClient) get(path string) ([]byte, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// jobTiming is the client-side timeline of one job.
type jobTiming struct {
	id       string
	total    float64 // POST sent to last output byte read
	admit    float64 // POST round trip
	output   float64 // output GET round trip
	doneSeen time.Time
}

// run submits one job and waits for its output. Any non-2xx answer
// (429 included), a failed or cancelled job, or the timeout is an error.
func (c *jobClient) run(spec []byte) (jobTiming, []byte, error) {
	var t jobTiming
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		return t, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return t, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return t, nil, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	t.admit = time.Since(t0).Seconds()
	var job struct{ ID, State, Error string }
	if err := json.Unmarshal(body, &job); err != nil {
		return t, nil, fmt.Errorf("submit: %w", err)
	}
	t.id = job.ID
	for job.State != "done" {
		if job.State == "failed" || job.State == "cancelled" {
			return t, nil, fmt.Errorf("job %s %s: %s", job.ID, job.State, job.Error)
		}
		if time.Since(t0) > opTimeout {
			return t, nil, fmt.Errorf("job %s timed out in state %s", job.ID, job.State)
		}
		time.Sleep(pollEvery)
		body, err := c.get("/v1/jobs/" + job.ID)
		if err != nil {
			return t, nil, err
		}
		if err := json.Unmarshal(body, &job); err != nil {
			return t, nil, err
		}
	}
	t.doneSeen = time.Now()
	out, err := c.get("/v1/jobs/" + job.ID + "/output")
	if err != nil {
		return t, nil, err
	}
	t.total = time.Since(t0).Seconds()
	t.output = time.Since(t.doneSeen).Seconds()
	return t, out, nil
}

// jobOutcome is one job of a round.
type jobOutcome struct {
	timing jobTiming
	out    []byte
	tree   *spanTree
	err    error
}

// round runs the whole job list once with serveClients closed-loop
// clients taking jobs in order, and returns every outcome and the
// round's wall time. With traced set, each client also reads the job's
// /debug/trace tree after the job's output has been read.
func (c *jobClient) round(jobs []serveJob, traced bool) ([]jobOutcome, float64) {
	out := make([]jobOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				o := &out[i]
				o.timing, o.out, o.err = c.run(jobs[i].spec)
				if traced && o.err == nil {
					o.tree, o.err = c.trace(o.timing.id)
				}
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0).Seconds()
}

// setupServe sets the workload up b.setups times from scratch: input
// generation, service start, /readyz, and one warm-up round of the job
// list (its first job fills the genome cache) whose outputs become the
// references later rounds must equal. It returns the last set-up's
// inputs and its running service.
func (b *bench) setupServe(res *result, chk *checker) (*serveInputs, *server, []float64, error) {
	var in *serveInputs
	var srv *server
	var times []float64
	for s := 0; s < b.setups; s++ {
		if srv != nil {
			srv.stop()
		}
		dir, err := b.freshDir()
		if err != nil {
			return nil, nil, nil, err
		}
		chk.reset()
		t0 := time.Now()
		if in, err = b.genServeJobs(dir); err != nil {
			return nil, nil, nil, err
		}
		if srv, err = b.startServer(dir, in.genome); err != nil {
			return nil, nil, nil, err
		}
		outs, _ := newJobClient(srv.base).round(in.jobs, false)
		times = append(times, time.Since(t0).Seconds())
		if ok := b.recordRound(res, chk, in, outs); len(ok) != len(outs) {
			srv.stop()
			return nil, nil, nil, fmt.Errorf("warm-up round failed: %s", res.errs[len(res.errs)-1])
		}
	}
	return in, srv, times, nil
}

// serveRun is the untraced serve-jobs workload.
func (b *bench) serveRun() (*result, error) {
	res := newResult()
	chk := newChecker()
	in, srv, setups, err := b.setupServe(res, chk)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	c := newJobClient(srv.base)
	var lat []float64
	var passes []pass
	for start := time.Now(); time.Since(start).Seconds() < b.seconds; {
		cpu0, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		outs, wall := c.round(in.jobs, false)
		cpu1, err := srv.cpuSeconds()
		if err != nil {
			return nil, err
		}
		ok := b.recordRound(res, chk, in, outs)
		lat = append(lat, ok...)
		passes = append(passes, pass{wall: wall, cpu: cpu1 - cpu0, ops: len(outs), failed: len(ok) != len(outs)})
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	b.streamCheck(res, chk, in)
	res.setE2E(b, setups, lat, passes, in.genomeLen, rss)
	return res, nil
}

// recordRound checks a round's outputs and returns the latencies of
// the jobs that succeeded.
func (b *bench) recordRound(res *result, chk *checker, in *serveInputs, outs []jobOutcome) []float64 {
	var lat []float64
	for i, o := range outs {
		err := o.err
		if err == nil {
			err = chk.check(i, o.out, in.jobs[i].planted)
		}
		if res.record(err) {
			lat = append(lat, o.timing.total)
		}
	}
	return lat
}

// streamCheck runs job 0's search through `offtarget -stream` and
// requires its output to equal the service's byte for byte.
func (b *bench) streamCheck(res *result, chk *checker, in *serveInputs) {
	op := in.jobs[0].op
	_, err := runProc(filepath.Join(b.bin, "offtarget"), append([]string{"-stream"}, op.args...)...)
	if err == nil {
		err = chk.checkFile(0, op.replay.out, nil)
	}
	if err != nil {
		err = fmt.Errorf("offtarget -stream vs service job 0: %w", err)
	}
	res.record(err)
}

// spanTree is the part of /debug/trace/{id} the benchmark reads.
type spanTree struct {
	StartWall string    `json:"start_wall"`
	Root      *spanNode `json:"root"`
}

type spanNode struct {
	Name     string      `json:"name"`
	StartNs  int64       `json:"start_ns"`
	DurNs    int64       `json:"dur_ns"`
	Children []*spanNode `json:"children"`
}

func (c *jobClient) trace(id string) (*spanTree, error) {
	body, err := c.get("/debug/trace/" + id)
	if err != nil {
		return nil, err
	}
	var t spanTree
	if err := json.Unmarshal(body, &t); err != nil {
		return nil, fmt.Errorf("trace of job %s: %w", id, err)
	}
	if t.Root == nil {
		return nil, fmt.Errorf("trace of job %s has no root span", id)
	}
	return &t, nil
}

// jobLayers splits one traced job into the service's layers: client
// round trips, the queue-wait, cache-load, compile and per-contig scan
// spans, the attempt's self time (per-contig flush, fsync and journal
// commit), and the time from the attempt's end to the client's poll
// seeing "done".
func jobLayers(o jobOutcome, lt *layerTable) error {
	start, err := time.Parse(time.RFC3339Nano, o.tree.StartWall)
	if err != nil {
		return err
	}
	var queue, cache, compile, scan, commit float64
	var scans int
	var attemptEnd time.Time
	for _, ch := range o.tree.Root.Children {
		switch {
		case ch.Name == "queue-wait":
			queue += secs(ch.DurNs)
		case strings.HasPrefix(ch.Name, "attempt "):
			// Worker chunk spans are attempt children too, but they lie
			// inside the scan spans, so only the sequential steps are
			// subtracted from the attempt's duration.
			self := ch.DurNs
			for _, a := range ch.Children {
				switch {
				case a.Name == "cache-load":
					cache += secs(a.DurNs)
				case a.Name == "compile":
					compile += secs(a.DurNs)
				case strings.HasPrefix(a.Name, "scan "):
					scan += secs(a.DurNs)
					scans++
				default:
					continue
				}
				self -= a.DurNs
			}
			commit += secs(self)
			attemptEnd = start.Add(time.Duration(ch.StartNs + ch.DurNs))
		}
	}
	if attemptEnd.IsZero() {
		return fmt.Errorf("trace of job %s has no attempt span", o.timing.id)
	}
	lt.add("scanserve.admit_s", o.timing.admit)
	lt.add("scanserve.queue_wait_s", queue)
	lt.add("scanserve.cache_load_s", cache)
	lt.add("core.compile_s", compile)
	lt.add("scanserve.scan_s", scan)
	lt.add("scanserve.commit_s", commit)
	lt.add("scanserve.output_s", o.timing.output)
	lt.add("scanserve.notice_s", o.timing.doneSeen.Sub(attemptEnd).Seconds())
	lt.count("scanserve.commits_per_job", float64(scans))
	return nil
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// serveTrace is the traced mode of serve-jobs: half the run time
// untraced, then half with each job's /debug/trace tree read after its
// output, so the difference of the two medians is the tracing overhead.
// Beforehand it replays in-process the service's genome load and every
// job of the list; those layer times are reported outside the op, and
// each replay's output must hold the service's rows (the CLI's batch
// output sorts them differently).
func (b *bench) serveTrace() (*result, error) {
	res := newResult()
	chk := newChecker()
	b.setups = 1
	in, srv, _, err := b.setupServe(res, chk)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	lt := newLayerTable()
	if _, err := loadGenome(in.genome, lt); !res.record(err) {
		return nil, err
	}
	for i, job := range in.jobs {
		rr, err := replay(job.op.replay, true)
		if err == nil && rr.rows != chk.rows[i] {
			err = fmt.Errorf("replay of job %d: rows differ from the service's", i)
		}
		if !res.record(err) {
			continue
		}
		for layer, s := range rr.spans.selfTimes() {
			// The service's own compile span is the one in the op.
			if layer != "core.compile_s" {
				lt.addAside(layer, s)
			}
		}
		if i == 0 {
			lt.addReplayCounts(rr.counts, false)
		}
	}
	c := newJobClient(srv.base)
	var plain, traced []float64
	for start := time.Now(); time.Since(start).Seconds() < b.seconds/2; {
		outs, _ := c.round(in.jobs, false)
		plain = append(plain, b.recordRound(res, chk, in, outs)...)
	}
	alloc0, gc0, err := c.heapStats()
	if err != nil {
		return nil, err
	}
	jobs := 0
	for start := time.Now(); time.Since(start).Seconds() < b.seconds/2; {
		outs, _ := c.round(in.jobs, true)
		traced = append(traced, b.recordRound(res, chk, in, outs)...)
		for _, o := range outs {
			jobs++
			if o.err != nil {
				continue
			}
			if err := jobLayers(o, lt); err != nil {
				res.record(err)
			}
		}
	}
	alloc1, gc1, err := c.heapStats()
	if err != nil {
		return nil, err
	}
	lt.count("runtime.alloc_mb_per_op", (alloc1-alloc0)/float64(jobs))
	lt.count("runtime.gc_cycles_per_op", (gc1-gc0)/float64(jobs))
	b.streamCheck(res, chk, in)
	res.layers(b, lt, plain, traced, plain)
	return res, nil
}
