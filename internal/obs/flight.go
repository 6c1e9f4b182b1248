package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Event is one structured flight-recorder entry: a state transition, a
// cell start/finish/error, an rcce watchdog tick, a cache eviction. The
// recorder stamps Seq and UnixNano itself so emission sites inside the
// simulation packages never touch the clock (sccvet's nondeterminism
// analyzer bans time.Now there, and the telemetry layer must stay
// write-only either way).
type Event struct {
	// Seq orders events totally within one recorder, even when two
	// arrive in the same nanosecond.
	Seq uint64 `json:"seq"`
	// UnixNano is the wall-clock stamp the recorder applied.
	UnixNano int64 `json:"unix_nano"`
	// DurNanos is the event's duration for timed events (0 = instant).
	DurNanos int64 `json:"dur_nanos,omitempty"`
	// Track groups events onto one timeline row in the trace export
	// (e.g. "serve.job", "sparse.matrix_cache", "rcce", "experiments.cell/w3").
	Track string `json:"track"`
	// Kind is the machine-readable event class (e.g. "state", "cell_error",
	// "cache_evict", "watchdog_tick", "task").
	Kind string `json:"kind"`
	// Name is the short human label shown on the timeline.
	Name string `json:"name"`
	// Detail is the free-form payload (error text, matrix id, rank list).
	Detail string `json:"detail,omitempty"`
}

// Recorder is a bounded per-job ring buffer of Events - the flight
// recorder. Writers pay one mutex-protected slot store; when the ring
// wraps, the oldest events fall off and Dropped counts them, so a
// wedged job's snapshot always holds the LAST events before the wedge,
// which are the ones a post-mortem needs.
//
// The ring's slots are allocated on demand: a recorder that saw one
// event holds one slot, and the buffer doubles (clamped at the bound)
// until it reaches its bound, after which it wraps in place. A daemon
// retaining thousands of born-done jobs therefore pays for the events
// they recorded, not for the bound.
//
// Like every metric here the recorder is write-only for the engine:
// nothing reads it back mid-run, so arming it cannot change a result
// byte. A nil *Recorder accepts every call and records nothing, which
// is how the non-serving paths run with zero overhead.
type Recorder struct {
	mu      sync.Mutex
	buf     []Event
	size    int    // the ring's bound; buf grows to it, then wraps
	head    int    // next write position
	total   uint64 // events ever recorded (also the Seq source)
	started time.Time
}

// DefaultFlightEvents is the ring capacity used when a caller passes a
// non-positive one.
const DefaultFlightEvents = 256

// NewRecorder builds a flight recorder holding the last n events
// (n <= 0 selects DefaultFlightEvents). No slot is allocated until the
// first event arrives.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultFlightEvents
	}
	return &Recorder{size: n, started: now()}
}

// Record appends an instant event, stamping sequence and time.
func (r *Recorder) Record(track, kind, name, detail string) {
	r.record(Event{Track: track, Kind: kind, Name: name, Detail: detail})
}

// Recordf is Record with a formatted detail string.
func (r *Recorder) Recordf(track, kind, name, format string, args ...any) {
	if r == nil {
		return
	}
	r.record(Event{Track: track, Kind: kind, Name: name, Detail: fmt.Sprintf(format, args...)})
}

// RecordDur appends a timed event whose duration is d (clamped at
// zero). The stamp marks the event's END; the trace exporter derives
// the start by subtraction.
func (r *Recorder) RecordDur(track, kind, name, detail string, d time.Duration) {
	r.record(Event{Track: track, Kind: kind, Name: name, Detail: detail,
		DurNanos: int64(ClampDuration(d))})
}

func (r *Recorder) record(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.total++
	e.Seq = r.total
	e.UnixNano = now().UnixNano()
	if len(r.buf) < r.size {
		if len(r.buf) == cap(r.buf) {
			r.grow()
		}
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.head] = e
	}
	r.head++
	if r.head == r.size {
		r.head = 0
	}
	r.mu.Unlock()
}

// grow doubles the filling ring's slots, clamped at its bound (append's
// own growth policy would round past a non-power-of-two bound); callers
// hold r.mu.
func (r *Recorder) grow() {
	buf := make([]Event, len(r.buf), min(max(2*cap(r.buf), 1), r.size))
	copy(buf, r.buf)
	r.buf = buf
}

// FlightSnapshot is the exported tail of a recorder: the retained
// events in sequence order plus how many older ones the ring dropped.
type FlightSnapshot struct {
	// Dropped counts events that fell off the ring before the snapshot.
	Dropped uint64 `json:"dropped,omitempty"`
	// Events is the retained tail, oldest first.
	Events []Event `json:"events"`
}

// Snapshot copies the retained events in sequence order. Nil-safe; a
// recorder that never fired returns an empty (non-nil) snapshot.
func (r *Recorder) Snapshot() *FlightSnapshot {
	out := &FlightSnapshot{Events: []Event{}}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	out.Events = make([]Event, 0, n)
	if n < r.size {
		out.Events = append(out.Events, r.buf...)
	} else {
		out.Events = append(out.Events, r.buf[r.head:]...)
		out.Events = append(out.Events, r.buf[:r.head]...)
	}
	out.Dropped = r.total - uint64(n)
	return out
}

// Len reports how many events are currently retained.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// recorderKey carries a *Recorder through a context.
type recorderKey struct{}

// WithRecorder returns a context carrying rec, so instrumented code
// deep in the engine (pool workers, cache, rcce bridge) can emit
// events for the job that owns the context without new plumbing.
func WithRecorder(ctx context.Context, rec *Recorder) context.Context {
	if rec == nil {
		return ctx
	}
	return context.WithValue(ctx, recorderKey{}, rec)
}

// RecorderFrom extracts the context's recorder, or nil (every Recorder
// method accepts nil, so call sites never branch).
func RecorderFrom(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	rec, _ := ctx.Value(recorderKey{}).(*Recorder)
	return rec
}
