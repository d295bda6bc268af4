package scanserve

import (
	"fmt"
	"slices"
	"strings"

	"github.com/cap-repro/crisprscan"
	"github.com/cap-repro/crisprscan/internal/core"
)

// State is one job lifecycle state. The machine is:
//
//	queued → running → done
//	                 ↘ failed      (permanent error, retries exhausted,
//	                                or deadline)
//	                 ↘ cancelled   (client cancel)
//	                 ↘ queued      (transient error within the retry
//	                                budget, drain, or crash recovery)
//	queued → cancelled             (client cancel before dispatch)
//
// done, failed and cancelled are terminal. A job found in the running
// state at startup is a crash artifact and is re-queued: its checkpoint
// journal and output watermark make the re-run resume instead of
// restart.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// states lists every State, for validating persisted records.
var states = []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

// Terminal reports whether the state ends the job's lifecycle.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// GuideSpec is one guide in a job submission.
type GuideSpec struct {
	Name   string `json:"name,omitempty"`
	Spacer string `json:"spacer"`
}

// JobSpec is the client-supplied description of one scan: the guides
// plus the parameter subset that is safe to accept over the wire.
type JobSpec struct {
	// Genome names the reference. With a configured genome directory it
	// is a relative path resolved under it; otherwise it must be empty
	// and the service's default genome is used.
	Genome string      `json:"genome,omitempty"`
	Guides []GuideSpec `json:"guides"`
	// K is the mismatch budget.
	K       int      `json:"k"`
	PAM     string   `json:"pam,omitempty"`
	AltPAMs []string `json:"alt_pams,omitempty"`
	PAM5    bool     `json:"pam5,omitempty"`
	// PlusOnly restricts to the plus strand.
	PlusOnly bool `json:"plus_only,omitempty"`
	// Engine selects the execution engine (default hyperscan).
	Engine string `json:"engine,omitempty"`
	// Workers widens the data-parallel engines (capped by the service).
	Workers int `json:"workers,omitempty"`
	// BED selects BED6 output instead of TSV.
	BED bool `json:"bed,omitempty"`
}

// guides converts the spec's guides to the public API form.
func (sp *JobSpec) guides() []crisprscan.Guide {
	gs := make([]crisprscan.Guide, len(sp.Guides))
	for i, g := range sp.Guides {
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("g%d", i)
		}
		gs[i] = crisprscan.Guide{Name: name, Spacer: g.Spacer}
	}
	return gs
}

// params converts the spec to search parameters (metrics and progress
// are attached per attempt by the worker).
func (sp *JobSpec) params() crisprscan.Params {
	return crisprscan.Params{
		MaxMismatches:  sp.K,
		PAM:            sp.PAM,
		AltPAMs:        sp.AltPAMs,
		PAM5:           sp.PAM5,
		PlusStrandOnly: sp.PlusOnly,
		Engine:         crisprscan.Engine(sp.Engine),
		Workers:        sp.Workers,
	}
}

// validate rejects specs that could never run. Parameter validation
// beyond this (PAM syntax, spacer alphabet) happens at scan time and
// classifies permanent, so a bad job fails fast either way; this check
// exists to give submitters a 400 instead of a failed job.
func (sp *JobSpec) validate() error {
	if len(sp.Guides) == 0 {
		return fmt.Errorf("scanserve: job has no guides")
	}
	for i, g := range sp.Guides {
		if strings.TrimSpace(g.Spacer) == "" {
			return fmt.Errorf("scanserve: guide %d has an empty spacer", i)
		}
	}
	if sp.K < 0 {
		return fmt.Errorf("scanserve: negative mismatch budget %d", sp.K)
	}
	if sp.Engine != "" && !slices.Contains(core.AllEngines, core.EngineKind(sp.Engine)) {
		return fmt.Errorf("scanserve: unknown engine %q", sp.Engine)
	}
	if strings.Contains(sp.Genome, "\x00") {
		return fmt.Errorf("scanserve: invalid genome path")
	}
	return nil
}

// Job is the durable record of one submission. It is persisted as
// job.json in the job's directory after every state transition, via the
// checkpoint package's crash-safe write (temp file, fsync, rename,
// directory fsync), so the on-disk state machine is never torn and a
// committed transition survives power loss.
type Job struct {
	ID     string  `json:"id"`
	Tenant string  `json:"tenant"`
	Spec   JobSpec `json:"spec"`
	State  State   `json:"state"`
	// ResolvedGenome is the server-side validated genome path.
	ResolvedGenome string `json:"resolved_genome,omitempty"`
	// Attempts counts dispatches (1 on the first run); Retries counts
	// transient-failure re-runs actually consumed from the budget.
	Attempts int `json:"attempts,omitempty"`
	Retries  int `json:"retries,omitempty"`
	// Error and ErrorClass describe the final failure of a failed job
	// (or the most recent transient failure while retrying).
	Error      string `json:"error,omitempty"`
	ErrorClass string `json:"error_class,omitempty"`
	// Sites is the total sites in the output of a done job.
	Sites int `json:"sites,omitempty"`
	// TraceID is the job's 128-bit distributed-trace identity (32 hex
	// chars) — inherited from the submitter's traceparent header, or
	// minted at admission. TraceRoot is the job's root span (16 hex
	// chars), emitted as the parent-id of the response traceparent.
	TraceID   string `json:"trace_id,omitempty"`
	TraceRoot string `json:"trace_root,omitempty"`
	// CreatedUnix/UpdatedUnix are wall-clock stamps (seconds).
	CreatedUnix int64 `json:"created_unix"`
	UpdatedUnix int64 `json:"updated_unix"`
}

// outName returns the job's output artifact name.
func (j *Job) outName() string {
	if j.Spec.BED {
		return "out.bed"
	}
	return "out.tsv"
}
