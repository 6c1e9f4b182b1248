package serve

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// JobState is the lifecycle of one submitted job.
type JobState string

const (
	// StateQueued: accepted, waiting for a worker.
	StateQueued JobState = "queued"
	// StateRunning: executing on a worker.
	StateRunning JobState = "running"
	// StateDone: finished; the result is fetchable (possibly served
	// straight from the result cache without any execution).
	StateDone JobState = "done"
	// StateFailed: the run errored (engine error or deadline).
	StateFailed JobState = "failed"
	// StateCancelled: cancelled by the client or server shutdown before
	// producing a result.
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state can no longer change.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// jobTrack is the flight-recorder timeline row job lifecycle
// transitions land on.
const jobTrack = "serve.job"

// Job is one submission's record. Every submission gets its own job -
// cache hits included - so clients always have a pollable ID; in-flight
// duplicates are the exception, they share the executing job's ID.
type Job struct {
	// ID is the server-assigned identifier; Hash the content address of
	// the result (JobConfig.Hash).
	ID   string
	Hash string
	// Config is the Canonical()-normalized configuration.
	Config JobConfig

	mu       sync.Mutex
	state    JobState
	err      string
	cached   bool // served from the result store without executing
	coalesce int  // duplicate submissions that attached to this job
	created  time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
	cancelme bool // cancel requested before a worker picked the job up
	// span is the job's detached per-job trace (nil until running);
	// scope the counter baseline taken when execution started.
	span  *obs.Span
	scope *obs.CounterScope
	// rec is the job's flight recorder: a bounded ring of structured
	// events kept for post-mortems. Created at submission so the born
	// state (queued, or done for a result-store hit) is captured too;
	// surfaced on the status payload only when the job fails or is
	// cancelled, and on the job's trace export always.
	rec *obs.Recorder
	// done closes when the job reaches a terminal state (long-poll wait).
	done chan struct{}
}

// JobStatus is the wire form of a job's state - the poll and progress
// payload. Counters are the per-job deltas of the process counter scope
// (exact while one job runs at a time, an upper bound when jobs
// overlap); Spans is the live per-job span tree.
type JobStatus struct {
	ID         string    `json:"id"`
	Hash       string    `json:"hash"`
	Config     JobConfig `json:"config"`
	State      JobState  `json:"state"`
	Error      string    `json:"error,omitempty"`
	Cached     bool      `json:"cached,omitempty"`
	Coalesced  int       `json:"coalesced,omitempty"`
	ElapsedSec float64   `json:"elapsed_sec"`
	// Result summarises the fetchable artefact for done jobs.
	Result *Result `json:"result,omitempty"`
	// Counters and Spans are the job's obs feed (running and terminal
	// jobs; empty for queued ones).
	Counters map[string]uint64 `json:"counters,omitempty"`
	Spans    *obs.SpanSnapshot `json:"spans,omitempty"`
	// Flight is the flight-recorder tail, attached only when the job
	// failed or was cancelled: the last events before the wreck, ending
	// at whatever wedged, errored or timed out.
	Flight *obs.FlightSnapshot `json:"flight,omitempty"`
}

// newJob mints a queued job with an empty flight recorder; the caller
// records the born state.
func newJob(id string, cfg JobConfig, flightEvents int) *Job {
	return &Job{
		ID:      id,
		Hash:    cfg.Hash(),
		Config:  cfg,
		state:   StateQueued,
		created: time.Now(),
		done:    make(chan struct{}),
		rec:     obs.NewRecorder(flightEvents),
	}
}

// finish moves the job to a terminal state exactly once.
func (j *Job) finish(state JobState, errMsg string) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state = state
	j.err = errMsg
	j.finished = time.Now()
	j.span.End()
	j.rec.Record(jobTrack, "state", string(state), errMsg)
	j.mu.Unlock()
	close(j.done)
}

// Done exposes the terminal-state channel (closed when the job can no
// longer change).
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// requestCancel asks the job to stop: a queued job is marked so the
// worker skips it, a running one has its context cancelled. Terminal
// jobs ignore the request. Reports whether the request took effect.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.cancelme = true
	if j.cancel != nil {
		j.cancel()
	}
	return true
}

// traceFeed snapshots the job's span tree (nil if the job never
// started) and flight tail for the trace exporter.
func (j *Job) traceFeed() (*obs.SpanSnapshot, *obs.FlightSnapshot) {
	j.mu.Lock()
	span, rec := j.span, j.rec
	j.mu.Unlock()
	var ss *obs.SpanSnapshot
	if span != nil {
		ss = span.Snapshot()
	}
	return ss, rec.Snapshot()
}

// status snapshots the job for the wire, resolving the result (for done
// jobs) through the store.
func (j *Job) status(store *ResultStore) JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID:        j.ID,
		Hash:      j.Hash,
		Config:    j.Config,
		State:     j.state,
		Error:     j.err,
		Cached:    j.cached,
		Coalesced: j.coalesce,
	}
	switch {
	case j.state.Terminal() && !j.started.IsZero():
		// Clamped: finished/started are wall stamps, and a stepped wall
		// clock must not surface as a negative elapsed time on the wire.
		st.ElapsedSec = obs.ClampDuration(j.finished.Sub(j.started)).Seconds()
	case j.state == StateRunning:
		st.ElapsedSec = obs.Since(j.started).Seconds()
	}
	span, scope, rec := j.span, j.scope, j.rec
	wrecked := j.state == StateFailed || j.state == StateCancelled
	j.mu.Unlock()

	// The obs feed and the store lookup run outside the job lock: the
	// span snapshot, counter deltas and flight tail take their own locks.
	if scope != nil {
		st.Counters = scope.Deltas()
	}
	if span != nil {
		st.Spans = span.Snapshot()
	}
	if wrecked {
		// Post-mortem only: successful jobs drop their recorder tail, the
		// status payload of a failed or cancelled one carries it.
		st.Flight = rec.Snapshot()
	}
	if st.State == StateDone {
		if res, ok := store.peek(st.Hash); ok {
			st.Result = res
		}
	}
	return st
}
