package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// serveScale keeps every serve-mix miss short, so the run is spent on the
// daemon's own path rather than inside the simulator.
const serveScale = 0.05

// serveJob is one member of the serve-mix job population.
type serveJob struct {
	Experiment  string
	Stride, Max int
}

func (j serveJob) key() string {
	return fmt.Sprintf("%s/stride=%d/max=%d", j.Experiment, j.Stride, j.Max)
}

func (j serveJob) config() serve.JobConfig {
	return serve.JobConfig{Experiment: j.Experiment, Scale: serveScale, Stride: j.Stride, MaxMatrices: j.Max}
}

// servePopulation is the fixed set of distinct jobs the seed draws from:
// simulated sweeps on both pricing paths, the RCCE runtime and a table, each
// on two testbed subsets.
var servePopulation = func() []serveJob {
	var out []serveJob
	for _, exp := range []string{"fig6", "fig8", "fig9", "fig10", "table1", "rcce-scaling", "ablation-l2geom", "ablation-prefetch"} {
		out = append(out, serveJob{exp, 8, 0}, serveJob{exp, 16, 1})
	}
	return out
}()

// splitmix64 is the SplitMix64 finaliser, a bijective 64-bit mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// jobAt returns the population index of the i-th job of the seed's
// sequence. The sequence is a pure function of (seed, i), so both clients
// draw from one sequence however their requests interleave.
func jobAt(seed int64, i uint64) int {
	return int(splitmix64(splitmix64(uint64(seed))+i) % uint64(len(servePopulation)))
}

// daemon is an in-process serve.Server on a loopback listener.
type daemon struct {
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

// startDaemon starts a server with the daemon's default configuration and
// waits until it answers /healthz.
func startDaemon() (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	srv := serve.NewServer(serve.ServerConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		base:   "http://" + l.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { d.done <- srv.Run(ctx, l) }() //sccvet:allow bare-goroutine the benchmark hosts the daemon like cmd/sccsimd's main does; stop waits for it
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("daemon did not become healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the daemon down and waits for it to exit.
func (d *daemon) stop() error {
	d.cancel()
	err := <-d.done
	d.client.CloseIdleConnections()
	return err
}

// do sends one request and returns the body of a response with the wanted
// status.
func (d *daemon) do(method, path string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// Job outcomes as the submit response reports them.
const (
	outcomeHit       = "hit"
	outcomeCoalesced = "coalesced"
	outcomeMiss      = "miss"
)

// runJob submits one job, waits for it and fetches its result: the
// client's submit -> /wait -> /result cycle.
func (d *daemon) runJob(j serveJob) (outcome string, result []byte, err error) {
	body, err := json.Marshal(j.config())
	if err != nil {
		return "", nil, err
	}
	b, err := d.do(http.MethodPost, "/api/v1/jobs", body, http.StatusAccepted)
	if err != nil {
		return "", nil, err
	}
	var sub struct {
		ID        string `json:"id"`
		CacheHit  bool   `json:"cache_hit"`
		Coalesced bool   `json:"coalesced_submit"`
	}
	if err := json.Unmarshal(b, &sub); err != nil {
		return "", nil, fmt.Errorf("decoding submit response: %w", err)
	}
	outcome = outcomeMiss
	switch {
	case sub.CacheHit:
		outcome = outcomeHit
	case sub.Coalesced:
		outcome = outcomeCoalesced
	}
	b, err = d.do(http.MethodGet, "/api/v1/jobs/"+sub.ID+"/wait?timeout=120s", nil, http.StatusOK)
	if err != nil {
		return "", nil, err
	}
	var st struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return "", nil, fmt.Errorf("decoding wait response: %w", err)
	}
	if st.State != string(serve.StateDone) {
		return "", nil, fmt.Errorf("job %s ended %s: %s", sub.ID, st.State, st.Error)
	}
	result, err = d.do(http.MethodGet, "/api/v1/jobs/"+sub.ID+"/result", nil, http.StatusOK)
	return outcome, result, err
}

// serveClients is the closed loop's client count: two, so duplicate
// submissions can meet a job still in flight and coalesce onto it.
const serveClients = 2

// serveSetup fetches the population's matrices into a fresh cache and
// starts a daemon, returning it and the seconds both took.
func serveSetup() (*daemon, float64, error) {
	start := time.Now()
	fetchSubset(subsetEntries(8), serveScale)
	d, err := startDaemon()
	return d, time.Since(start).Seconds(), err
}

// serveMixPhase sets up several times (every daemon but the last is
// stopped again), then runs closed-loop clients, each submitting its next job only
// after the previous one's result arrived. The run is long enough that the
// job table passes the daemon's default 4096 retained jobs, past which every
// submit prunes it.
func serveMixPhase(seed int64, seconds float64) (*tally, error) {
	t := &tally{}
	var d *daemon
	for i := 0; i < setups; i++ {
		var s float64
		var err error
		if d, s, err = serveSetup(); err != nil {
			return nil, err
		}
		t.setup = append(t.setup, s)
		if i < setups-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}

	var (
		mu     sync.Mutex
		lat    = map[string][]float64{}
		next   atomic.Uint64
		wg     sync.WaitGroup
		start  = time.Now()
		budget = time.Duration(seconds * float64(time.Second))
	)
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() { //sccvet:allow bare-goroutine closed-loop load clients of the benchmark; the phase waits for them
			defer wg.Done()
			for time.Since(start) < budget {
				j := servePopulation[jobAt(seed, next.Add(1)-1)]
				jobStart := time.Now()
				outcome, result, err := d.runJob(j)
				l := time.Since(jobStart).Seconds()
				if err == nil {
					err = checkDigest(golden.Jobs, j.key(), digest(string(result)))
				}
				mu.Lock()
				t.attempted++
				if err != nil {
					t.fail("serve-mix: %s: %v", j.key(), err)
				} else {
					lat[outcome] = append(lat[outcome], l)
					t.wall = append(t.wall, l)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	busy := time.Since(start).Seconds()
	t.liveHeapMB = liveHeapMB()
	if err := d.stop(); err != nil {
		return nil, err
	}

	hits := lat[outcomeHit]
	tailPct, hitTail, _ := tail(hits)
	t.extra = map[string]float64{
		"serve.job_hit_p50_ms":   median(hits) * 1e3,
		"serve.job_hit_tail_ms":  hitTail * 1e3,
		"serve.job_hit_tail_pct": tailPct,
		"serve.job_miss_p50_s":   median(lat[outcomeMiss]),
		"serve.jobs_per_s":       float64(len(t.wall)) / busy,
		"serve.store_hits":       float64(len(hits)),
		"serve.coalesced":        float64(len(lat[outcomeCoalesced])),
		"serve.misses":           float64(len(lat[outcomeMiss])),
	}
	return t, nil
}
