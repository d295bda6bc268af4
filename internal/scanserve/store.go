package scanserve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/cap-repro/crisprscan/internal/checkpoint"
	"github.com/cap-repro/crisprscan/internal/metrics"
)

// store is the durable job registry: one subdirectory per job under the
// service directory, holding job.json (the state-machine record),
// scan.ckpt (the chromosome-granularity checkpoint journal) and the
// output artifact. Records are written atomically with directory fsync,
// so the on-disk lifecycle is consistent at every instant a crash can
// strike.
type store struct {
	dir string

	mu     sync.Mutex
	jobs   map[string]*Job // guarded by mu
	nextID int             // guarded by mu
}

// jobRecordName is the per-job state file.
const jobRecordName = "job.json"

// openStore loads (or initializes) the job directory. Jobs found in the
// running state are crash artifacts — the process died with them
// dispatched — and are re-queued so the service resumes them; their
// checkpoint journal turns the re-run into a resume. A record that is
// corrupt, in an unknown state or with a negative count fails the load,
// naming the job.
func openStore(dir string) (s *store, recovered []string, err error) {
	if dir == "" {
		return nil, nil, fmt.Errorf("scanserve: job directory not configured")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("scanserve: creating job directory: %w", err)
	}
	s = &store{dir: dir, jobs: make(map[string]*Job)}
	// No other goroutine can hold the store yet, but the load loop
	// takes the lock anyway so the guarded-field discipline holds on
	// every path.
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("scanserve: reading job directory: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		data, rerr := os.ReadFile(filepath.Join(dir, e.Name(), jobRecordName))
		if os.IsNotExist(rerr) {
			continue // half-created job dir from a crash mid-Create
		}
		if rerr != nil {
			return nil, nil, fmt.Errorf("scanserve: reading job %s: %w", e.Name(), rerr)
		}
		var j Job
		if uerr := json.Unmarshal(data, &j); uerr != nil {
			return nil, nil, fmt.Errorf("scanserve: job record %s is corrupt: %w", e.Name(), uerr)
		}
		if j.ID != e.Name() {
			return nil, nil, fmt.Errorf("scanserve: job record in %s claims ID %q", e.Name(), j.ID)
		}
		// A state outside the machine would be neither queued nor
		// terminal: its client would poll forever.
		if !slices.Contains(states, j.State) {
			return nil, nil, fmt.Errorf("scanserve: job record %s has unknown state %q", e.Name(), j.State)
		}
		if j.Attempts < 0 || j.Retries < 0 || j.Sites < 0 {
			return nil, nil, fmt.Errorf("scanserve: job record %s has a negative attempt, retry or site count", e.Name())
		}
		if j.State == StateRunning {
			j.State = StateQueued
			if perr := s.persist(&j); perr != nil {
				return nil, nil, perr
			}
			recovered = append(recovered, j.ID)
		}
		s.jobs[j.ID] = &j
		if n, nerr := strconv.Atoi(strings.TrimPrefix(j.ID, "j")); nerr == nil && n >= s.nextID {
			s.nextID = n + 1
		}
	}
	sort.Strings(recovered)
	return s, recovered, nil
}

// create allocates a job ID, its directory, and the initial queued
// record carrying its trace identity.
func (s *store) create(tenant string, spec JobSpec, resolvedGenome string, trace traceIdentity) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := fmt.Sprintf("j%06d", s.nextID)
	s.nextID++
	now := metrics.Wall().Unix()
	j := &Job{
		ID: id, Tenant: tenant, Spec: spec, State: StateQueued,
		ResolvedGenome: resolvedGenome,
		TraceID:        trace.id, TraceRoot: trace.root,
		CreatedUnix: now, UpdatedUnix: now,
	}
	if err := os.MkdirAll(s.jobDir(id), 0o755); err != nil {
		return Job{}, fmt.Errorf("scanserve: creating job %s: %w", id, err)
	}
	if err := s.persist(j); err != nil {
		return Job{}, err
	}
	s.jobs[id] = j
	return *j, nil
}

// get returns a copy of the job record.
func (s *store) get(id string) (Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// list returns copies of every job, ordered by ID (creation order).
func (s *store) list() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, *j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// update applies fn to the job under the store lock, stamps the update
// time, and persists the new record durably before returning the copy.
func (s *store) update(id string, fn func(*Job)) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("scanserve: unknown job %s", id)
	}
	fn(j)
	j.UpdatedUnix = metrics.Wall().Unix()
	if err := s.persist(j); err != nil {
		return Job{}, err
	}
	return *j, nil
}

// persist writes the record crash-safely. Callers hold mu (or own the
// job exclusively during openStore).
func (s *store) persist(j *Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return fmt.Errorf("scanserve: encoding job %s: %w", j.ID, err)
	}
	data = append(data, '\n')
	if err := checkpoint.AtomicWriteFile(filepath.Join(s.jobDir(j.ID), jobRecordName), data); err != nil {
		return fmt.Errorf("scanserve: persisting job %s: %w", j.ID, err)
	}
	return nil
}

// jobDir returns the job's directory.
func (s *store) jobDir(id string) string { return filepath.Join(s.dir, id) }

// outPath returns the job's output artifact path.
func (s *store) outPath(j *Job) string { return filepath.Join(s.jobDir(j.ID), j.outName()) }

// ckptPath returns the job's checkpoint journal path.
func (s *store) ckptPath(id string) string { return filepath.Join(s.jobDir(id), "scan.ckpt") }
