// Package obs is the engine's observability layer: named atomic
// counters, gauges, timers and value distributions behind a Registry,
// hierarchical spans (run -> experiment -> matrix -> cell -> UE-walk),
// an instrumented worker pool, and a periodic progress reporter.
//
// The package is standard-library only and deliberately write-only from
// the simulation's point of view: nothing in here is ever read back by
// the engine to make a decision, so enabling, disabling or sampling the
// metrics cannot change a single bit of any Result or rendered table.
// The determinism tests in internal/sim and internal/experiments enforce
// that contract with metrics on, off, and at every parallelism level.
package obs

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry owns a flat namespace of metrics plus the root spans. Metric
// constructors are idempotent: the same name always returns the same
// instance, so hot paths hold the pointer and never pay a map lookup.
type Registry struct {
	disabled atomic.Bool // zero value = enabled
	start    time.Time

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	timers     map[string]*Timer
	samples    map[string]*Sample
	histograms map[string]*Histogram
	spans      []*Span
}

// Default is the process-wide registry every instrumented package
// records into; cmd/sccsim snapshots it for -metrics and -progress.
var Default = New()

// New builds an enabled, empty registry.
func New() *Registry {
	return &Registry{
		start:      now(),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		timers:     make(map[string]*Timer),
		samples:    make(map[string]*Sample),
		histograms: make(map[string]*Histogram),
	}
}

// SetEnabled turns recording on or off. Disabled metrics drop every
// observation (loads return the values accumulated so far) and
// StartSpan returns nil, which every Span method accepts. The engine's
// outputs are identical either way - that is the whole point.
func (r *Registry) SetEnabled(on bool) { r.disabled.Store(!on) }

// Enabled reports whether the registry records observations.
func (r *Registry) Enabled() bool { return !r.disabled.Load() }

// Counter returns (creating on first use) the named monotone counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{reg: r}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named last-value gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{reg: r}
		r.gauges[name] = g
	}
	return g
}

// Timer returns (creating on first use) the named duration distribution.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{s: Sample{reg: r}}
		r.timers[name] = t
	}
	return t
}

// Sample returns (creating on first use) the named value distribution.
func (r *Registry) Sample(name string) *Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.samples[name]
	if !ok {
		s = &Sample{reg: r}
		r.samples[name] = s
	}
	return s
}

// Counter is a monotone uint64 (events, bytes, flops). Add is a single
// atomic op on the hot path.
type Counter struct {
	reg *Registry
	v   atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil && !c.reg.disabled.Load() {
		c.v.Add(n)
	}
}

// Load returns the accumulated value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 (resident bytes, entry counts).
type Gauge struct {
	reg *Registry
	v   atomic.Int64
}

// Set stores the current value.
func (g *Gauge) Set(v int64) {
	if g != nil && !g.reg.disabled.Load() {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil && !g.reg.disabled.Load() {
		g.v.Add(delta)
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Sample is a count/sum/min/max distribution of float64 observations
// (pool occupancy, contention slowdown factors). Observations are
// mutex-protected: every instrumented site fires at per-task frequency,
// not per memory access, so the lock is cold.
type Sample struct {
	reg      *Registry
	mu       sync.Mutex
	count    uint64
	sum      float64
	min, max float64
}

// Observe records one value.
func (s *Sample) Observe(v float64) {
	if s == nil || s.reg.disabled.Load() {
		return
	}
	s.mu.Lock()
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count++
	s.sum += v
	s.mu.Unlock()
}

// Stats returns the snapshot of the distribution.
func (s *Sample) Stats() SampleStats {
	if s == nil {
		return SampleStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SampleStats{Count: s.count, Sum: s.sum, Min: s.min, Max: s.max}
	if s.count > 0 {
		st.Mean = s.sum / float64(s.count)
	}
	return st
}

// Timer is a Sample whose unit is seconds.
type Timer struct{ s Sample }

// Observe records one duration. Negative durations clamp to zero: all
// engine call sites measure via the monotonic-safe since()/Since, but a
// caller handing in wall-clock arithmetic must still never push a
// negative value into the distribution.
func (t *Timer) Observe(d time.Duration) {
	if t != nil {
		t.s.Observe(ClampDuration(d).Seconds())
	}
}

// Stats returns the snapshot of the duration distribution (seconds).
func (t *Timer) Stats() SampleStats {
	if t == nil {
		return SampleStats{}
	}
	return t.s.Stats()
}

// SampleStats is the exported snapshot of a Sample or Timer.
type SampleStats struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// SnapshotData is the schema-stable JSON form of a registry (the
// -metrics out.json payload, versioned by its Schema field).
type SnapshotData struct {
	Schema      string                 `json:"schema"`
	UnixTime    int64                  `json:"unix_time"`
	WallSeconds float64                `json:"wall_seconds"`
	Counters    map[string]uint64      `json:"counters"`
	Gauges      map[string]int64       `json:"gauges"`
	Timers      map[string]SampleStats `json:"timers"`
	Samples     map[string]SampleStats `json:"samples"`
	Histograms  map[string]HistStats   `json:"histograms,omitempty"`
	Spans       []*SpanSnapshot        `json:"spans,omitempty"`
}

// SnapshotSchema identifies the metrics JSON layout.
const SnapshotSchema = "sccsim-metrics/1"

// Snapshot captures every metric and span. Wall time is measured from
// registry creation, so counter/wall_seconds is a process-lifetime rate
// (cells/sec, matrices/sec, simulated FLOPS).
func (r *Registry) Snapshot() *SnapshotData {
	r.mu.Lock()
	defer r.mu.Unlock()
	d := &SnapshotData{
		Schema:      SnapshotSchema,
		UnixTime:    now().Unix(),
		WallSeconds: since(r.start).Seconds(),
		Counters:    make(map[string]uint64, len(r.counters)),
		Gauges:      make(map[string]int64, len(r.gauges)),
		Timers:      make(map[string]SampleStats, len(r.timers)),
		Samples:     make(map[string]SampleStats, len(r.samples)),
	}
	if len(r.histograms) > 0 {
		d.Histograms = make(map[string]HistStats, len(r.histograms))
		for n, h := range r.histograms {
			d.Histograms[n] = h.Stats()
		}
	}
	for n, c := range r.counters {
		d.Counters[n] = c.Load()
	}
	for n, g := range r.gauges {
		d.Gauges[n] = g.Load()
	}
	for n, t := range r.timers {
		d.Timers[n] = t.Stats()
	}
	for n, s := range r.samples {
		d.Samples[n] = s.Stats()
	}
	for _, sp := range r.spans {
		d.Spans = append(d.Spans, sp.snapshot())
	}
	return d
}

// SnapshotJSON renders the snapshot as indented JSON (map keys are
// emitted sorted by encoding/json, keeping the output diff-friendly).
func (r *Registry) SnapshotJSON() ([]byte, error) {
	blob, err := json.MarshalIndent(sanitize(r.Snapshot()), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// sanitize clamps non-finite floats (a timer that never fired has
// min=max=0 already; this guards future metrics) so MarshalJSON cannot
// fail on NaN/Inf.
func sanitize(d *SnapshotData) *SnapshotData {
	fix := func(st SampleStats) SampleStats {
		for _, p := range []*float64{&st.Sum, &st.Mean, &st.Min, &st.Max} {
			if math.IsNaN(*p) || math.IsInf(*p, 0) {
				*p = 0
			}
		}
		return st
	}
	for n, st := range d.Timers {
		d.Timers[n] = fix(st)
	}
	for n, st := range d.Samples {
		d.Samples[n] = fix(st)
	}
	for n, st := range d.Histograms {
		for _, p := range []*float64{&st.Sum, &st.P50, &st.P95, &st.P99} {
			if math.IsNaN(*p) || math.IsInf(*p, 0) {
				*p = 0
			}
		}
		d.Histograms[n] = st
	}
	return d
}

// CounterNames returns the registered counter names, sorted (reporter
// and test helper).
func (r *Registry) CounterNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
