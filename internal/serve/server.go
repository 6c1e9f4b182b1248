package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// Job-daemon observability (internal/obs, write-only). The running and
// queued gauges track live occupancy; everything else is monotone.
var (
	jobsSubmitted = obs.Default.Counter("serve.jobs.submitted")
	jobsCacheHits = obs.Default.Counter("serve.jobs.cache_hits")
	jobsCoalesced = obs.Default.Counter("serve.jobs.coalesced")
	jobsCompleted = obs.Default.Counter("serve.jobs.completed")
	jobsFailed    = obs.Default.Counter("serve.jobs.failed")
	jobsCancelled = obs.Default.Counter("serve.jobs.cancelled")
	jobsRejected  = obs.Default.Counter("serve.jobs.rejected")
	jobsRunning   = obs.Default.Gauge("serve.jobs.running")
	jobsQueued    = obs.Default.Gauge("serve.jobs.queued")
	// Latency histograms: how long jobs sat in the queue and how long
	// they executed (mergeable log buckets; exported with quantiles on
	// the JSON snapshot and as a cumulative ladder on /metrics).
	jobsQueueWait = obs.Default.Histogram("serve.jobs.queue_wait_seconds")
	jobsExecTime  = obs.Default.Histogram("serve.jobs.exec_seconds")
	// workerPool instruments the bounded job executors: serve.worker.tasks
	// counts worker lifetimes, not jobs - per-job metrics live above.
	workerPool = obs.Default.Pool("serve.worker")
	// runPool fans the daemon's long-lived tasks (HTTP serving, shutdown
	// supervision, workers) out without bare goroutines.
	runPool = obs.Default.Pool("serve.run")
)

// ServerConfig sizes the daemon.
type ServerConfig struct {
	// Workers bounds the pool executing jobs (0 = GOMAXPROCS). Each job
	// additionally fans its own cells over the engine pool, so the
	// effective host load is Workers x per-job Parallelism.
	Workers int
	// QueueDepth bounds accepted-but-unstarted jobs; submissions beyond
	// it are rejected with 503 (0 = 64).
	QueueDepth int
	// DefaultDeadline bounds jobs that do not set their own DeadlineSec
	// (0 = 15 minutes).
	DefaultDeadline time.Duration
	// MatrixCacheBytes budgets the shared generated-matrix cache all
	// jobs draw from (0 = experiments.DefaultMatrixCacheBytes).
	MatrixCacheBytes int64
	// ResultStoreBytes budgets the content-addressed result cache
	// (0 = 256 MiB).
	ResultStoreBytes int64
	// MaxJobs bounds retained finished job records; the oldest finished
	// jobs are pruned beyond it (0 = 4096). Queued and running jobs are
	// never pruned.
	MaxJobs int
	// Fault arms a deterministic fault-injection plan on every job's
	// engine (chaos tests; nil injects nothing).
	Fault *fault.Plan
	// FlightEvents bounds each job's flight-recorder ring - the last N
	// structured events retained for post-mortems (0 = 1024). The ring
	// grows on demand up to the bound, so a job holds slots only for the
	// events it recorded (a result-store hit holds one).
	FlightEvents int
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 15 * time.Minute
	}
	if c.MatrixCacheBytes <= 0 {
		c.MatrixCacheBytes = experiments.DefaultMatrixCacheBytes
	}
	if c.ResultStoreBytes <= 0 {
		c.ResultStoreBytes = 256 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 4096
	}
	if c.FlightEvents <= 0 {
		c.FlightEvents = 1024
	}
	return c
}

// Server is the sccsimd daemon: job intake, single-flight coalescing,
// the bounded worker pool, and the content-addressed result store.
type Server struct {
	cfg      ServerConfig
	store    *ResultStore
	matrices *sparse.MatrixCache
	queue    chan *Job

	mu   sync.Mutex
	jobs map[string]*Job // by job ID
	// order[orderHead:] lists the retained jobs' IDs in submission order,
	// for pruning; order[:orderHead] is the pruned prefix, cleared and
	// reclaimed once it outgrows the live part.
	order     []string
	orderHead int
	inflight  map[string]*Job // hash -> queued/running job (single-flight)
	nextID    uint64
}

// NewServer builds a daemon from the configuration (zero fields take
// defaults).
func NewServer(cfg ServerConfig) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		store:    NewResultStore(cfg.ResultStoreBytes),
		matrices: sparse.NewMatrixCache(cfg.MatrixCacheBytes),
		queue:    make(chan *Job, cfg.QueueDepth),
		jobs:     make(map[string]*Job),
		inflight: make(map[string]*Job),
	}
}

// Store exposes the result store (selfcheck and tests).
func (s *Server) Store() *ResultStore { return s.store }

// SubmitOutcome reports how a submission was absorbed.
type SubmitOutcome struct {
	// Status is the submitted (or coalesced-onto) job's state snapshot.
	Status JobStatus
	// Cached: the result was already in the content-addressed store;
	// the job is born done and fetchable without any simulation.
	Cached bool
	// Coalesced: an identical job was already queued or running; Status
	// describes THAT job and no new execution was scheduled.
	Coalesced bool
}

// Submit normalizes and enqueues one job configuration, implementing
// the cache/coalesce ladder: result-store hit -> born-done job;
// identical job in flight -> coalesce onto it; otherwise queue a fresh
// execution (rejected with an error when the queue is full).
func (s *Server) Submit(cfg JobConfig) (SubmitOutcome, error) {
	canon, err := cfg.Canonical()
	if err != nil {
		return SubmitOutcome{}, err
	}
	hash := canon.Hash()
	jobsSubmitted.Add(1)

	s.mu.Lock()
	if j, ok := s.inflight[hash]; ok {
		j.mu.Lock()
		j.coalesce++
		j.mu.Unlock()
		s.mu.Unlock()
		jobsCoalesced.Add(1)
		return SubmitOutcome{Status: j.status(s.store), Coalesced: true}, nil
	}
	if _, ok := s.store.Get(hash); ok {
		j := s.newJobLocked(canon)
		j.state = StateDone
		j.cached = true
		j.finished = j.created
		close(j.done)
		j.rec.Record(jobTrack, "state", string(StateDone), "served from result store")
		s.mu.Unlock()
		jobsCacheHits.Add(1)
		jobsCompleted.Add(1)
		return SubmitOutcome{Status: j.status(s.store), Cached: true}, nil
	}
	j := s.newJobLocked(canon)
	j.rec.Record(jobTrack, "state", string(StateQueued), "job "+j.ID+" accepted")
	select {
	case s.queue <- j:
		s.inflight[hash] = j
		jobsQueued.Set(int64(len(s.queue)))
		s.mu.Unlock()
		return SubmitOutcome{Status: j.status(s.store)}, nil
	default:
		// Queue full: drop the record again and reject.
		delete(s.jobs, j.ID)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		jobsRejected.Add(1)
		return SubmitOutcome{}, fmt.Errorf("serve: job queue full (%d queued); retry later", s.cfg.QueueDepth)
	}
}

// newJobLocked mints a job record and registers it; callers hold s.mu
// and record the job's born state. The job is still queued while the
// table is pruned, so a submission never prunes its own record.
func (s *Server) newJobLocked(cfg JobConfig) *Job {
	s.nextID++
	id := fmt.Sprintf("job-%06d", s.nextID)
	j := newJob(id, cfg, s.cfg.FlightEvents)
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.pruneLocked()
	return j
}

// pruneLocked drops the oldest finished job records beyond MaxJobs;
// callers hold s.mu. Queued/running jobs (still in flight) survive in
// place. The scan starts at the oldest record and stops once the excess
// is dropped, so a full table pays for the records it drops and the
// in-flight ones it passes, not for the whole table.
func (s *Server) pruneLocked() {
	excess := len(s.jobs) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	// Survivors of the scanned stretch are packed at its front, then
	// moved up against the unscanned rest; what they leave behind joins
	// the pruned prefix.
	head, kept, i := s.orderHead, s.orderHead, s.orderHead
	for ; excess > 0 && i < len(s.order); i++ {
		id := s.order[i]
		if j := s.jobs[id]; j != nil && j.State().Terminal() {
			delete(s.jobs, id)
			excess--
			continue
		}
		s.order[kept] = id
		kept++
	}
	s.orderHead = i - (kept - head)
	copy(s.order[s.orderHead:i], s.order[head:kept])
	clear(s.order[head:s.orderHead])
	if live := len(s.order) - s.orderHead; s.orderHead > live {
		// The pruned prefix outgrew the live part: slide the live IDs
		// down (amortised O(1) per pruned record), so the backing array
		// stays within twice the retained table.
		copy(s.order, s.order[s.orderHead:])
		clear(s.order[live:])
		s.order = s.order[:live]
		s.orderHead = 0
	}
}

// orderSnapshot copies the retained job IDs, oldest first.
func (s *Server) orderSnapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.order[s.orderHead:]...)
}

// Job looks a job record up by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job. Reports whether the job exists
// and the request took effect (terminal jobs return false).
func (s *Server) Cancel(id string) (bool, bool) {
	j, ok := s.Job(id)
	if !ok {
		return false, false
	}
	return true, j.requestCancel()
}

// RunWorkers executes queued jobs on the bounded worker pool until ctx
// is cancelled (blocking; the daemon's Run composes it with the HTTP
// listener, tests drive it directly). In-flight jobs observe the
// cancellation through their own derived contexts.
func (s *Server) RunWorkers(ctx context.Context) {
	n := s.cfg.Workers
	// The pool error is ctx.Err() by construction; the workers observe the
	// same context, so there is nothing extra to report.
	_ = workerPool.ForEachCtx(ctx, n, n, func(int) { s.workerLoop(ctx) })
}

// workerLoop drains the queue until the context ends.
func (s *Server) workerLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case j := <-s.queue:
			jobsQueued.Set(int64(len(s.queue)))
			s.execute(ctx, j)
		}
	}
}

// execute runs one job through the experiment harness and lands the
// result in the content-addressed store.
func (s *Server) execute(ctx context.Context, j *Job) {
	deadline := s.cfg.DefaultDeadline
	if j.Config.DeadlineSec > 0 {
		deadline = time.Duration(j.Config.DeadlineSec * float64(time.Second))
	}

	j.mu.Lock()
	if j.cancelme {
		j.mu.Unlock()
		s.finishJob(j, StateCancelled, "cancelled before execution")
		return
	}
	jctx, cancel := context.WithTimeout(ctx, deadline)
	j.cancel = cancel
	j.state = StateRunning
	j.started = time.Now()
	j.span = obs.Default.StartDetachedSpan("job:" + j.ID)
	j.scope = obs.Default.ScopeCounters()
	span := j.span
	wait := obs.ClampDuration(j.started.Sub(j.created))
	j.mu.Unlock()
	defer cancel()
	jobsQueueWait.ObserveDuration(wait)
	j.rec.Recordf(jobTrack, "state", string(StateRunning),
		"picked up after %v queued", wait.Round(time.Microsecond))
	jobsRunning.Add(1)
	defer jobsRunning.Add(-1)

	// Arm the job's flight recorder on the execution context (pool
	// workers, the rcce bridge and the harness read it back out) and on
	// the shared matrix cache (best-effort attribution; CAS-cleared so a
	// finishing job cannot strip a successor's recorder).
	jctx = obs.WithRecorder(jctx, j.rec)
	s.matrices.SetRecorder(j.rec)
	defer s.matrices.ClearRecorder(j.rec)

	cfg := experiments.Config{
		Scale:       j.Config.Scale,
		Stride:      j.Config.Stride,
		MaxMatrices: j.Config.MaxMatrices,
		Parallelism: j.Config.Parallelism,
		Pricing:     j.Config.pricing(),
		Engine:      j.Config.engine(),
		FailFast:    j.Config.FailFast,
		MatrixCache: s.matrices,
		Ctx:         jctx,
		Span:        span,
		Fault:       s.cfg.Fault,
	}
	out, err := experiments.ExecuteByID(j.Config.Experiment, cfg)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			s.finishJob(j, StateCancelled, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			s.finishJob(j, StateFailed, fmt.Sprintf("job deadline (%s) exceeded: %v", deadline, err))
		default:
			s.finishJob(j, StateFailed, err.Error())
		}
		return
	}
	s.store.Put(&Result{
		Hash:       j.Hash,
		Experiment: out.ID,
		Title:      out.Title,
		Tables:     len(out.Tables),
		Failed:     out.Failed,
		Text:       []byte(out.Text),
		CSV:        []byte(out.CSV),
	})
	s.finishJob(j, StateDone, "")
}

// finishJob moves a job to a terminal state, releases its single-flight
// slot and bumps the outcome counters.
func (s *Server) finishJob(j *Job, state JobState, errMsg string) {
	s.mu.Lock()
	if s.inflight[j.Hash] == j {
		delete(s.inflight, j.Hash)
	}
	s.mu.Unlock()
	j.finish(state, errMsg)
	j.mu.Lock()
	started, finished := j.started, j.finished
	j.mu.Unlock()
	if !started.IsZero() {
		// Observe already clamps negatives, so a stepped wall clock
		// cannot push a negative execution time into the histogram.
		jobsExecTime.ObserveDuration(finished.Sub(started))
	}
	switch state {
	case StateDone:
		jobsCompleted.Add(1)
	case StateFailed:
		jobsFailed.Add(1)
	case StateCancelled:
		jobsCancelled.Add(1)
	}
}

// Run serves the HTTP API on l and executes jobs until ctx is
// cancelled, then shuts the listener down gracefully (bounded by
// shutdownGrace) and drains the workers. It returns the first listener
// error, if any.
func (s *Server) Run(ctx context.Context, l net.Listener) error {
	hs := &http.Server{
		Handler: s.Handler(),
		// Request contexts inherit the run context so streaming handlers
		// (progress, wait) end promptly at shutdown.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}
	var serveErr error
	n := s.cfg.Workers + 2
	// Every slot must start even if ctx is already cancelled - slot 1 is
	// the shutdown watcher that unblocks slot 0's Serve - so the dispatch
	// context derives from ctx without its cancellation.
	_ = runPool.ForEachCtx(context.WithoutCancel(ctx), n, n, func(i int) {
		switch i {
		case 0:
			serveErr = hs.Serve(l)
		case 1:
			<-ctx.Done()
			// Shutdown runs precisely because ctx ended; its grace window
			// must therefore survive that cancellation (values intact).
			sctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), shutdownGrace)
			defer cancel()
			if err := hs.Shutdown(sctx); err != nil {
				hs.Close()
			}
		default:
			s.workerLoop(ctx)
		}
	})
	if serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	return nil
}

// shutdownGrace bounds how long Run waits for in-flight HTTP requests
// at shutdown before closing connections hard.
const shutdownGrace = 5 * time.Second

// httpError writes a JSON error payload.
func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// Handler returns the daemon's HTTP API:
//
//	POST   /api/v1/jobs                submit a JobConfig, get a JobStatus
//	GET    /api/v1/jobs                list job statuses (newest last)
//	GET    /api/v1/jobs/{id}           poll one job's status
//	GET    /api/v1/jobs/{id}/wait      long-poll until terminal (?timeout=30s)
//	GET    /api/v1/jobs/{id}/progress  NDJSON status stream until terminal
//	GET    /api/v1/jobs/{id}/result    fetch rendered tables (?format=text|csv)
//	GET    /api/v1/jobs/{id}/trace     Chrome trace-event JSON (Perfetto)
//	DELETE /api/v1/jobs/{id}           cancel a queued/running job
//	GET    /api/v1/results/{hash}      content-addressed result fetch
//	GET    /api/v1/experiments         list runnable experiments
//	GET    /api/v1/metrics             obs registry snapshot (JSON)
//	GET    /metrics                    Prometheus text exposition
//	GET    /debug/flight               flight recorders of wrecked jobs
//	GET    /healthz                    liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/wait", s.handleWait)
	mux.HandleFunc("GET /api/v1/jobs/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /api/v1/jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /api/v1/results/{hash}", s.handleResultByHash)
	mux.HandleFunc("GET /api/v1/experiments", s.handleExperiments)
	mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /metrics", s.handlePrometheus)
	mux.HandleFunc("GET /debug/flight", s.handleFlight)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var cfg JobConfig
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		httpError(w, http.StatusBadRequest, "decoding job config: %v", err)
		return
	}
	out, err := s.Submit(cfg)
	if err != nil {
		code := http.StatusBadRequest
		if strings.Contains(err.Error(), "queue full") {
			code = http.StatusServiceUnavailable
		}
		httpError(w, code, "%v", err)
		return
	}
	resp := struct {
		JobStatus
		CacheHit  bool `json:"cache_hit"`
		Coalesced bool `json:"coalesced_submit"`
	}{out.Status, out.Cached, out.Coalesced}
	writeJSON(w, http.StatusAccepted, resp)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	ids := s.orderSnapshot()
	statuses := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		if j, ok := s.Job(id); ok {
			statuses = append(statuses, j.status(s.store))
		}
	}
	writeJSON(w, http.StatusOK, statuses)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.status(s.store))
}

// handleWait long-polls until the job is terminal or the timeout (or
// client) gives up, then reports the status as of that moment.
func (s *Server) handleWait(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	timeout := 30 * time.Second
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			httpError(w, http.StatusBadRequest, "bad timeout %q", v)
			return
		}
		timeout = d
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-j.Done():
	case <-t.C:
	case <-r.Context().Done():
		return
	}
	writeJSON(w, http.StatusOK, j.status(s.store))
}

// handleProgress streams NDJSON status snapshots (span tree + per-job
// counter deltas included) every interval until the job is terminal or
// the client disconnects - the streaming face of the obs feed.
func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	interval := time.Second
	if v := r.URL.Query().Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 10*time.Millisecond {
			httpError(w, http.StatusBadRequest, "bad interval %q (>= 10ms)", v)
			return
		}
		interval = d
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		if err := enc.Encode(j.status(s.store)); err != nil {
			return // client went away
		}
		if flusher != nil {
			flusher.Flush()
		}
		if j.State().Terminal() {
			return
		}
		select {
		case <-j.Done():
			// loop once more for the terminal snapshot
		case <-tick.C:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	switch st := j.State(); st {
	case StateDone:
	case StateFailed, StateCancelled:
		j.mu.Lock()
		msg := j.err
		j.mu.Unlock()
		httpError(w, http.StatusConflict, "job %s %s: %s", j.ID, st, msg)
		return
	default:
		httpError(w, http.StatusConflict, "job %s still %s; poll /wait first", j.ID, st)
		return
	}
	s.serveResult(w, r, j.Hash)
}

func (s *Server) handleResultByHash(w http.ResponseWriter, r *http.Request) {
	s.serveResult(w, r, r.PathValue("hash"))
}

// serveResult writes the stored artefact bytes for one content address.
func (s *Server) serveResult(w http.ResponseWriter, r *http.Request, hash string) {
	res, ok := s.store.Get(hash)
	if !ok {
		httpError(w, http.StatusNotFound, "no result for hash %q (evicted or never computed)", hash)
		return
	}
	var body []byte
	switch f := r.URL.Query().Get("format"); f {
	case "", "text":
		body = res.Text
	case "csv":
		body = res.CSV
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (want text or csv)", f)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Sccsimd-Hash", res.Hash)
	w.Write(body)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	found, cancelled := s.Cancel(r.PathValue("id"))
	if !found {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	j, _ := s.Job(r.PathValue("id"))
	writeJSON(w, http.StatusOK, map[string]any{
		"id":        j.ID,
		"cancelled": cancelled,
		"state":     j.State(),
	})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		ID    string `json:"id"`
		Title string `json:"title"`
	}
	var out []entry
	for _, e := range experiments.All() {
		out = append(out, entry{ID: e.ID, Title: e.Title})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	blob, err := obs.Default.SnapshotJSON()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "metrics snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(blob)
}

// handlePrometheus serves the registry in Prometheus text exposition
// format (0.0.4) - the scrape face of the same snapshot /api/v1/metrics
// serves as JSON.
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	blob, err := obs.Default.PrometheusText()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "prometheus exposition: %v", err)
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	w.Write(blob)
}

// handleTrace serves the job's Chrome trace-event JSON: the span tree
// as async slices plus the flight recorder's tracks (pool workers,
// cache, rcce, lifecycle). Load it at ui.perfetto.dev or
// chrome://tracing.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	span, flight := j.traceFeed()
	var spans []*obs.SpanSnapshot
	if span != nil {
		spans = append(spans, span)
	}
	blob, err := obs.TraceJSON(spans, flight)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "trace export: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", j.ID+"-trace.json"))
	w.Write(blob)
}

// handleFlight dumps the flight recorders of every wrecked (failed or
// cancelled) retained job, newest last - the daemon-wide post-mortem
// view. Done jobs keep their tails (on /api/v1/jobs/{id}/trace) but are
// not listed here; queued/running ones are still flying.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	ids := s.orderSnapshot()
	type wreck struct {
		ID     string              `json:"id"`
		State  JobState            `json:"state"`
		Error  string              `json:"error,omitempty"`
		Flight *obs.FlightSnapshot `json:"flight"`
	}
	out := []wreck{}
	for _, id := range ids {
		j, ok := s.Job(id)
		if !ok {
			continue
		}
		j.mu.Lock()
		state, errMsg := j.state, j.err
		j.mu.Unlock()
		if state != StateFailed && state != StateCancelled {
			continue
		}
		out = append(out, wreck{ID: j.ID, State: state, Error: errMsg, Flight: j.rec.Snapshot()})
	}
	writeJSON(w, http.StatusOK, out)
}
