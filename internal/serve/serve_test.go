package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// tinyJob is the cheapest full-pipeline configuration: fig3 at 5% scale
// with a wide stride simulates two generated matrices in well under a
// second.
func tinyJob() JobConfig {
	return JobConfig{Experiment: "fig3", Scale: 0.05, Stride: 16}
}

// startDaemon runs a server's HTTP face (httptest) and its worker pool
// (background goroutine; _test.go files are exempt from the sccvet
// bare-goroutine rule) until the test ends.
func startDaemon(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.RunWorkers(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		ts.Close()
	})
	return s, ts.URL
}

func postJob(t *testing.T, base string, cfg JobConfig) (JobStatus, bool, bool) {
	t.Helper()
	blob, _ := json.Marshal(cfg)
	resp, err := http.Post(base+"/api/v1/jobs", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %s: %s", resp.Status, body)
	}
	var out struct {
		JobStatus
		CacheHit  bool `json:"cache_hit"`
		Coalesced bool `json:"coalesced_submit"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("submit: decoding %s: %v", body, err)
	}
	return out.JobStatus, out.CacheHit, out.Coalesced
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: decoding %s: %v", url, body, err)
	}
}

func waitTerminal(t *testing.T, base, id string) JobStatus {
	t.Helper()
	var st JobStatus
	getJSON(t, base+"/api/v1/jobs/"+id+"/wait?timeout=60s", &st)
	if !st.State.Terminal() {
		t.Fatalf("job %s still %s after 60s", id, st.State)
	}
	return st
}

func fetchResult(t *testing.T, base, id, format string) []byte {
	t.Helper()
	url := base + "/api/v1/jobs/" + id + "/result"
	if format != "" {
		url += "?format=" + format
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body
}

func counter(name string) uint64 {
	return obs.Default.Snapshot().Counters[name]
}

// TestServeSubmitWaitFetch is the end-to-end happy path over real HTTP:
// submit, long-poll to completion, fetch both renderings, and round-trip
// the content-addressed fetch.
func TestServeSubmitWaitFetch(t *testing.T) {
	_, base := startDaemon(t, ServerConfig{Workers: 2})

	st, cached, coalesced := postJob(t, base, tinyJob())
	if cached || coalesced {
		t.Fatalf("fresh submission reported cached=%t coalesced=%t", cached, coalesced)
	}
	if st.ID == "" || st.Hash == "" {
		t.Fatalf("submission lacks id/hash: %+v", st)
	}

	done := waitTerminal(t, base, st.ID)
	if done.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Tables == 0 {
		t.Fatalf("done status lacks a result summary: %+v", done.Result)
	}
	if done.Counters["experiments.cell.tasks"] == 0 {
		t.Error("per-job counters missing experiments.cell.tasks; the obs feed is dark")
	}
	if done.Spans == nil {
		t.Error("done status lacks the per-job span tree")
	}

	text := fetchResult(t, base, st.ID, "")
	csv := fetchResult(t, base, st.ID, "csv")
	if len(text) == 0 || len(csv) == 0 {
		t.Fatal("empty rendering")
	}
	if bytes.Equal(text, csv) {
		t.Error("text and csv renderings are identical; format selection is dead")
	}

	// The content-addressed endpoint serves the same bytes.
	resp, err := http.Get(base + "/api/v1/results/" + st.Hash)
	if err != nil {
		t.Fatal(err)
	}
	byHash, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(byHash, text) {
		t.Error("/results/{hash} bytes differ from /jobs/{id}/result")
	}

	var exps []struct {
		ID string `json:"id"`
	}
	getJSON(t, base+"/api/v1/experiments", &exps)
	if len(exps) == 0 {
		t.Error("experiment listing is empty")
	}
	var metrics struct {
		Counters map[string]uint64 `json:"counters"`
	}
	getJSON(t, base+"/api/v1/metrics", &metrics)
	if metrics.Counters["serve.jobs.submitted"] == 0 {
		t.Error("metrics endpoint does not expose serve.jobs.submitted")
	}
}

// TestServeResubmitHitsCacheWithoutRerunning is the issue's acceptance
// criterion: an identical resubmission must return bit-identical bytes
// from the result store, increment serve.jobs.cache_hits, and schedule
// zero new simulation work (experiments.cell.tasks frozen).
func TestServeResubmitHitsCacheWithoutRerunning(t *testing.T) {
	_, base := startDaemon(t, ServerConfig{Workers: 2})

	first, _, _ := postJob(t, base, tinyJob())
	if st := waitTerminal(t, base, first.ID); st.State != StateDone {
		t.Fatalf("first run ended %s (%s)", st.State, st.Error)
	}
	text1 := fetchResult(t, base, first.ID, "")
	csv1 := fetchResult(t, base, first.ID, "csv")

	hitsBefore := counter("serve.jobs.cache_hits")
	cellsBefore := counter("experiments.cell.tasks")

	second, cached, _ := postJob(t, base, tinyJob())
	if !cached {
		t.Fatal("identical resubmission was not served from cache")
	}
	if second.ID == first.ID {
		t.Error("resubmission reused the first job id; every submission gets its own record")
	}
	if second.State != StateDone || !second.Cached {
		t.Errorf("cached job born %s cached=%t, want done/true", second.State, second.Cached)
	}
	if !bytes.Equal(fetchResult(t, base, second.ID, ""), text1) {
		t.Error("cached text differs from the original run")
	}
	if !bytes.Equal(fetchResult(t, base, second.ID, "csv"), csv1) {
		t.Error("cached csv differs from the original run")
	}

	if d := counter("serve.jobs.cache_hits") - hitsBefore; d != 1 {
		t.Errorf("serve.jobs.cache_hits advanced by %d, want 1", d)
	}
	if d := counter("experiments.cell.tasks") - cellsBefore; d != 0 {
		t.Errorf("resubmission simulated %d cells, want 0 (cache must not re-run)", d)
	}
}

// TestServeInFlightDuplicatesCoalesce pins single-flight: a duplicate
// arriving while the first is still queued attaches to the SAME job -
// one execution, one job id, two satisfied clients.
func TestServeInFlightDuplicatesCoalesce(t *testing.T) {
	// No workers yet: the first submission is pinned in the queue, so the
	// duplicate deterministically arrives in flight.
	s := NewServer(ServerConfig{Workers: 1})

	coalescedBefore := counter("serve.jobs.coalesced")
	first, err := s.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Coalesced {
		t.Fatalf("first submission cached=%t coalesced=%t", first.Cached, first.Coalesced)
	}
	dup, err := s.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Coalesced {
		t.Fatal("in-flight duplicate did not coalesce")
	}
	if dup.Status.ID != first.Status.ID {
		t.Errorf("duplicate got its own job %s, want the in-flight %s", dup.Status.ID, first.Status.ID)
	}
	if d := counter("serve.jobs.coalesced") - coalescedBefore; d != 1 {
		t.Errorf("serve.jobs.coalesced advanced by %d, want 1", d)
	}

	cellsBefore := counter("experiments.cell.tasks")
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.RunWorkers(ctx)
	}()
	j, ok := s.Job(first.Status.ID)
	if !ok {
		t.Fatal("job record vanished")
	}
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("coalesced job never finished")
	}
	cancel()
	wg.Wait()

	st := j.status(s.Store())
	if st.State != StateDone {
		t.Fatalf("job ended %s (%s)", st.State, st.Error)
	}
	if st.Coalesced != 1 {
		t.Errorf("job records %d coalesced submissions, want 1", st.Coalesced)
	}
	cellsOnce := counter("experiments.cell.tasks") - cellsBefore
	if cellsOnce == 0 {
		t.Fatal("coalesced job simulated nothing")
	}
	// A third, post-completion submission is a plain cache hit: still no
	// new simulation.
	third, err := s.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	if !third.Cached {
		t.Error("post-completion resubmission missed the result store")
	}
	if d := counter("experiments.cell.tasks") - cellsBefore; d != cellsOnce {
		t.Errorf("cells advanced to %d after the cache hit, want frozen at %d", d, cellsOnce)
	}
}

// TestServeQueueFullRejects pins backpressure: beyond QueueDepth the
// daemon sheds load with an explicit error instead of buffering
// unboundedly, and the rejected job leaves no record behind.
func TestServeQueueFullRejects(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 1, QueueDepth: 1}) // workers never started

	if _, err := s.Submit(tinyJob()); err != nil {
		t.Fatal(err)
	}
	other := tinyJob()
	other.Stride = 8 // distinct hash: must not coalesce
	rejectedBefore := counter("serve.jobs.rejected")
	_, err := s.Submit(other)
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("oversubscribed submit returned %v, want queue-full", err)
	}
	if d := counter("serve.jobs.rejected") - rejectedBefore; d != 1 {
		t.Errorf("serve.jobs.rejected advanced by %d, want 1", d)
	}
	s.mu.Lock()
	records, inflight := len(s.jobs), len(s.inflight)
	s.mu.Unlock()
	if records != 1 || inflight != 1 {
		t.Errorf("rejected submission left state behind: %d records, %d inflight (want 1, 1)", records, inflight)
	}
}

func TestServeBadRequests(t *testing.T) {
	_, base := startDaemon(t, ServerConfig{Workers: 1})
	cases := []struct {
		body string
		code int
	}{
		{`{"experiment": "nope"}`, http.StatusBadRequest},
		{`{"experiment": "fig3", "scale": 7}`, http.StatusBadRequest},
		{`{"experiment": "fig3", "bogus_field": 1}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("submit %q: status %d, want %d", tc.body, resp.StatusCode, tc.code)
		}
	}
	for _, url := range []string{
		base + "/api/v1/jobs/job-999999",
		base + "/api/v1/jobs/job-999999/result",
		base + "/api/v1/results/deadbeef",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", url, resp.StatusCode)
		}
	}
}

// TestServeProgressStreamsToTerminal reads the NDJSON progress stream
// end to end: at least one snapshot, the last one terminal.
func TestServeProgressStreamsToTerminal(t *testing.T) {
	_, base := startDaemon(t, ServerConfig{Workers: 1})
	st, _, _ := postJob(t, base, tinyJob())

	resp, err := http.Get(base + "/api/v1/jobs/" + st.ID + "/progress?interval=20ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("progress content type %q", ct)
	}
	var lines int
	var last JobStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d is not a JobStatus: %v", lines, err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream error after %d lines: %v", lines, err)
	}
	if lines == 0 {
		t.Fatal("progress stream emitted nothing")
	}
	if !last.State.Terminal() {
		t.Errorf("stream ended on non-terminal state %s", last.State)
	}
	if last.State != StateDone {
		t.Errorf("job ended %s (%s), want done", last.State, last.Error)
	}
}

// TestChaosServeFaultPlanIsolatedIntoResult arms a deterministic cell
// fault on the daemon: the job must still complete, with the failed
// cell isolated into the trailing error table instead of killing the
// job (PR 4 semantics surviving the service boundary).
func TestChaosServeFaultPlanIsolatedIntoResult(t *testing.T) {
	_, base := startDaemon(t, ServerConfig{
		Workers: 2,
		Fault:   &fault.Plan{Cell: &fault.Cell{MatrixPrefix: "TSOPF_FS_b300_c3", Index: 0}},
	})
	// fig5 with the chaos subset (stride 9 from 5% scale) selects
	// TSOPF_FS_b300_c3 as its first matrix - the fault target.
	st, _, _ := postJob(t, base, JobConfig{Experiment: "fig5", Scale: 0.05, Stride: 9})
	done := waitTerminal(t, base, st.ID)
	if done.State != StateDone {
		t.Fatalf("faulted job ended %s (%s), want done with degradation", done.State, done.Error)
	}
	if done.Result == nil || done.Result.Failed != 1 {
		t.Fatalf("result records %+v failed cells, want exactly 1", done.Result)
	}
	text := fetchResult(t, base, st.ID, "")
	if !strings.Contains(string(text), "injected fault") {
		t.Error("rendered tables lack the failed-cells error row")
	}
}

// TestChaosServeFailFastFaultFailsJob: the same fault under fail_fast
// must fail the whole job with the injected error surfaced.
func TestChaosServeFailFastFaultFailsJob(t *testing.T) {
	_, base := startDaemon(t, ServerConfig{
		Workers: 1,
		Fault:   &fault.Plan{Cell: &fault.Cell{MatrixPrefix: "TSOPF_FS_b300_c3", Index: 0}},
	})
	st, _, _ := postJob(t, base, JobConfig{Experiment: "fig5", Scale: 0.05, Stride: 9, FailFast: true})
	done := waitTerminal(t, base, st.ID)
	if done.State != StateFailed {
		t.Fatalf("fail-fast faulted job ended %s, want failed", done.State)
	}
	if !strings.Contains(done.Error, "injected fault") {
		t.Errorf("job error %q does not surface the injected fault", done.Error)
	}
	failuresAfter := counter("serve.jobs.failed")
	if failuresAfter == 0 {
		t.Error("serve.jobs.failed never advanced")
	}
	// A failed job must NOT poison the result store: resubmitting without
	// fail_fast... would be a different hash anyway; instead assert the
	// failed hash has no stored result.
	resp, err := http.Get(base + "/api/v1/results/" + done.Hash)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("failed job left a result in the store (status %d)", resp.StatusCode)
	}
}

// TestChaosServeJobDeadlineFailsJob: a job-level deadline must cancel
// the run at an engine boundary and report a deadline failure, leaving
// the daemon healthy.
func TestChaosServeJobDeadlineFailsJob(t *testing.T) {
	_, base := startDaemon(t, ServerConfig{Workers: 1})
	st, _, _ := postJob(t, base, JobConfig{Experiment: "fig5", Scale: 0.05, Stride: 9, DeadlineSec: 0.001})
	done := waitTerminal(t, base, st.ID)
	if done.State != StateFailed {
		t.Fatalf("deadlined job ended %s (%s), want failed", done.State, done.Error)
	}
	if !strings.Contains(done.Error, "deadline") {
		t.Errorf("job error %q does not mention the deadline", done.Error)
	}
	// The daemon survives: the same config with a sane deadline runs fine
	// (different engine knob, SAME hash - the failed run stored nothing,
	// so this executes).
	ok, _, _ := postJob(t, base, JobConfig{Experiment: "fig3", Scale: 0.05, Stride: 16, DeadlineSec: 60})
	if st := waitTerminal(t, base, ok.ID); st.State != StateDone {
		t.Fatalf("post-deadline job ended %s (%s)", st.State, st.Error)
	}
}

// TestChaosServeCancelQueuedJob: DELETE on a queued job marks it so the
// worker skips it without simulating anything.
func TestChaosServeCancelQueuedJob(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 1}) // workers not running yet
	out, err := s.Submit(tinyJob())
	if err != nil {
		t.Fatal(err)
	}
	found, cancelled := s.Cancel(out.Status.ID)
	if !found || !cancelled {
		t.Fatalf("Cancel(%s) = (%t, %t), want (true, true)", out.Status.ID, found, cancelled)
	}

	cellsBefore := counter("experiments.cell.tasks")
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.RunWorkers(ctx)
	}()
	j, _ := s.Job(out.Status.ID)
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled job never reached a terminal state")
	}
	cancel()
	wg.Wait()
	if st := j.State(); st != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", st)
	}
	if d := counter("experiments.cell.tasks") - cellsBefore; d != 0 {
		t.Errorf("cancelled-while-queued job still simulated %d cells", d)
	}
	// Cancelling a terminal job is a no-op.
	if _, again := s.Cancel(out.Status.ID); again {
		t.Error("Cancel took effect on a terminal job")
	}
}

// TestChaosServeClientDisconnect: a client abandoning its progress
// stream must not wedge the daemon or the job.
func TestChaosServeClientDisconnect(t *testing.T) {
	_, base := startDaemon(t, ServerConfig{Workers: 2})
	st, _, _ := postJob(t, base, tinyJob())

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		base+"/api/v1/jobs/"+st.ID+"/progress?interval=20ms", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("reading first progress byte: %v", err)
	}
	cancel() // drop the stream mid-flight
	resp.Body.Close()

	// The job still completes and the daemon still answers.
	done := waitTerminal(t, base, st.ID)
	if done.State != StateDone {
		t.Fatalf("job ended %s (%s) after client disconnect", done.State, done.Error)
	}
	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz %d after disconnect", hr.StatusCode)
	}
}

// TestServeRunShutsDownGracefully drives the daemon through Run (the
// real entrypoint: listener + workers + shutdown supervisor on one
// pool) and cancels it mid-service.
func TestServeRunShutsDownGracefully(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, l) }()

	st, _, _ := postJob(t, base, tinyJob())
	done := waitTerminal(t, base, st.ID)
	if done.State != StateDone {
		t.Fatalf("job under Run ended %s (%s)", done.State, done.Error)
	}
	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v after graceful shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// seedHit stores a result for tinyJob, so its submissions are born done
// without a worker.
func seedHit(t testing.TB, s *Server) {
	t.Helper()
	canon, err := tinyJob().Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s.Store().Put(&Result{Hash: canon.Hash(), Experiment: "fig3", Title: "t", Tables: 1, Text: []byte("x"), CSV: []byte("y")})
}

// submitID submits cfg and returns the job's ID, failing on a
// rejection or an unexpected cache outcome.
func submitID(t testing.TB, s *Server, cfg JobConfig, wantHit bool) string {
	t.Helper()
	out, err := s.Submit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached != wantHit {
		t.Fatalf("submission cached=%v, want %v", out.Cached, wantHit)
	}
	return out.Status.ID
}

// TestServeJobPruning pins the retention cap: finished jobs beyond
// MaxJobs are pruned oldest-first, live ones never, and the survivors
// keep their submission order.
func TestServeJobPruning(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 1, MaxJobs: 3}) // workers never started
	seedHit(t, s)
	// A job nobody executes stays queued - in flight - at the oldest
	// position, ahead of every finished record.
	live := tinyJob()
	live.Stride = 2
	liveID := submitID(t, s, live, false)
	var ids []string
	for i := 0; i < 6; i++ {
		ids = append(ids, submitID(t, s, tinyJob(), true))
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n > 3 {
		t.Errorf("%d job records retained, cap is 3", n)
	}
	if _, ok := s.Job(liveID); !ok {
		t.Error("in-flight job at the oldest position was pruned")
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Error("oldest finished job survived pruning")
	}
	if _, ok := s.Job(ids[len(ids)-1]); !ok {
		t.Error("newest job was pruned")
	}
	want := []string{liveID, ids[4], ids[5]}
	if got := s.orderSnapshot(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("retained order %v, want %v", got, want)
	}
}

// TestServePruningMatchesFullScan drives a mix of hits, in-flight
// submissions and finishing jobs through a small table and checks each
// step against the full-table scan pruning is defined by: the same
// records dropped, the survivors in the same order, and a pruned prefix
// that stays cleared and no longer than the live table.
func TestServePruningMatchesFullScan(t *testing.T) {
	const maxJobs = 8
	// Workers never start, so the queue keeps even the finished jobs.
	s := NewServer(ServerConfig{Workers: 1, MaxJobs: maxJobs, QueueDepth: 4096})
	seedHit(t, s)
	rng := rand.New(rand.NewSource(1))
	var model []string // the reference submission order of retained jobs
	var flying []*Job
	stride := tinyJob().Stride // in-flight configs take the strides above tinyJob's
	for step := 0; step < 3000; step++ {
		if len(flying) > 0 && rng.Intn(5) == 0 {
			k := rng.Intn(len(flying))
			s.finishJob(flying[k], StateCancelled, "finished by the test")
			flying = append(flying[:k], flying[k+1:]...)
			continue
		}
		terminal := map[string]bool{}
		for _, id := range model {
			j, _ := s.Job(id)
			terminal[id] = j.State().Terminal()
		}
		var id string
		if len(flying) < 20 && rng.Intn(4) == 0 {
			stride++
			cfg := tinyJob()
			cfg.Stride = stride
			id = submitID(t, s, cfg, false)
			j, _ := s.Job(id)
			flying = append(flying, j)
		} else {
			id = submitID(t, s, tinyJob(), true)
		}
		// The reference: one pass over the whole table, dropping the
		// oldest finished records until the excess is gone.
		model = append(model, id)
		excess := len(model) - maxJobs
		kept := model[:0]
		for _, m := range model {
			if excess > 0 && terminal[m] {
				excess--
				continue
			}
			kept = append(kept, m)
		}
		model = kept

		got := s.orderSnapshot()
		if strings.Join(got, ",") != strings.Join(model, ",") {
			t.Fatalf("step %d: retained %v, full scan retains %v", step, got, model)
		}
		s.mu.Lock()
		records, head, total := len(s.jobs), s.orderHead, len(s.order)
		prefix := strings.Join(s.order[:head], "")
		s.mu.Unlock()
		if records != len(model) {
			t.Fatalf("step %d: %d job records for %d retained IDs", step, records, len(model))
		}
		if head > total-head {
			t.Fatalf("step %d: pruned prefix %d outgrew the %d live IDs", step, head, total-head)
		}
		if prefix != "" {
			t.Fatalf("step %d: pruned prefix still holds IDs", step)
		}
	}
}

// TestServeHitRecordsBornDone: a result-store hit is born done, so its
// flight recorder holds exactly that one transition - not a queued job
// that never finished - while a real submission is born queued.
func TestServeHitRecordsBornDone(t *testing.T) {
	s := NewServer(ServerConfig{Workers: 1}) // workers never started
	seedHit(t, s)
	j, _ := s.Job(submitID(t, s, tinyJob(), true))
	snap := j.rec.Snapshot()
	if len(snap.Events) != 1 || snap.Dropped != 0 {
		t.Fatalf("hit job recorded %d events (dropped %d), want exactly 1", len(snap.Events), snap.Dropped)
	}
	if e := snap.Events[0]; e.Track != jobTrack || e.Kind != "state" ||
		e.Name != string(StateDone) || e.Detail != "served from result store" {
		t.Errorf("hit job event = %+v, want a done state transition served from the store", e)
	}

	miss := tinyJob()
	miss.Stride = 2
	q, _ := s.Job(submitID(t, s, miss, false))
	snap = q.rec.Snapshot()
	if len(snap.Events) != 1 || snap.Events[0].Name != string(StateQueued) {
		t.Errorf("queued job events = %+v, want one queued transition", snap.Events)
	}
}

// BenchmarkSubmitHitFullTable times a result-store hit against a job
// table already at the default MaxJobs, where every submission prunes
// the oldest finished record.
func BenchmarkSubmitHitFullTable(b *testing.B) {
	s := NewServer(ServerConfig{Workers: 1})
	seedHit(b, s)
	for i := 0; i < s.cfg.MaxJobs; i++ {
		submitID(b, s, tinyJob(), true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Submit(tinyJob()); err != nil {
			b.Fatal(err)
		}
	}
}
