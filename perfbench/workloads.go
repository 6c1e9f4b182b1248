package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// The simulation and RCCE workloads share one testbed subset: every fourth
// entry (8 of the 32 matrices, spanning the whole working-set range) at a
// tenth of the paper's size, the smallest scale at which the suite still
// straddles the aggregate L2 capacity. One fig9 render then takes about two
// seconds on one P, so a run holds enough operations for a steady median:
// with 16 matrices the run-to-run spread of the median render time was
// over twice as wide.
const (
	subsetScale  = 0.10
	subsetStride = 4
)

// setups is how many times rcce-mesh and serve-mix set up before their
// timed phase; setup_s is the median.
const setups = 5

// meshGeometry is the rcce-mesh chip: 256 cores, past the real SCC's 48,
// so the runtime's per-UE costs dominate.
const meshGeometry = "16x16x1"

// A workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// phase sets up fresh state and runs operations for about the given
	// number of seconds.
	phase func(seed int64, seconds float64) (*tally, error)
	// layers measures this workload's per-layer metrics for the traced run
	// from the matrices, tables and walls of an untraced phase.
	layers func(t *tally) (map[string]float64, error)
}

var workloads = []workload{
	{name: "plru-exact", phase: plruExact.phase, layers: plruExact.layers},
	{name: "geom-analytic", phase: geomAnalytic.phase, layers: geomAnalytic.layers},
	{name: "rcce-mesh", phase: rcceMeshPhase, layers: rcceMeshLayers},
	{name: "serve-mix", phase: serveMixPhase, layers: serveMixLayers},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// tally accumulates what one phase of a workload measured.
type tally struct {
	setup             []float64 // seconds per set-up
	wall              []float64 // seconds per operation
	attempted, failed int
	// counts are the deterministic per-operation counts of the first
	// operation; every later operation must repeat them exactly.
	counts map[string]uint64
	// problems describes each failed operation.
	problems []string
	// extra carries phase-level per-layer values (serve latencies).
	extra map[string]float64
	// cache, matrices and tables are the last operation's matrix cache,
	// inputs and outputs.
	cache    *sparse.MatrixCache
	matrices []*sparse.CSR
	tables   []*stats.Table
	// liveHeapMB is the live heap at the end of the phase, measured while
	// the last operation's state is still held.
	liveHeapMB float64
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	t.problems = append(t.problems, fmt.Sprintf(format, args...))
}

// checkCounts records the first operation's counts and flags any later
// operation whose counts differ.
func (t *tally) checkCounts(c map[string]uint64) bool {
	if t.counts == nil {
		t.counts = c
		return true
	}
	for k, v := range c {
		if t.counts[k] != v {
			t.fail("count %s drifted between operations: %d then %d", k, t.counts[k], v)
			return false
		}
	}
	return true
}

// guardError marks a run that must not be recorded: it did no simulated
// work, or its counts contradict the workload's definition.
type guardError struct{ msg string }

func (e *guardError) Error() string { return "refusing to record: " + e.msg }

// guard checks one operation's counts and tables against the zero-work
// and contradiction rules.
func guard(name string, c map[string]uint64, tables []*stats.Table) error {
	switch name {
	case "plru-exact", "geom-analytic":
		if c["sim.flops"] == 0 {
			return &guardError{name + ": simulated 0 FLOPs"}
		}
		if len(tables) == 0 {
			return &guardError{name + ": rendered no table"}
		}
		for _, tb := range tables {
			if tb.Rows() == 0 {
				return &guardError{name + ": rendered an empty table"}
			}
		}
		if name == "plru-exact" && c["sim.cells_analytic"] > 0 {
			return &guardError{fmt.Sprintf("plru-exact priced %d cells analytically; tree-PLRU must take the exact walk", c["sim.cells_analytic"])}
		}
		if name == "geom-analytic" && c["sim.cells_analytic"] == 0 {
			return &guardError{"geom-analytic priced no cell analytically"}
		}
	case "rcce-mesh":
		if c["rcce.messages"] == 0 {
			return &guardError{"rcce-mesh exchanged 0 messages"}
		}
	}
	return nil
}

// digest is the hex SHA-256 of the concatenated parts, each terminated by
// a zero byte so part boundaries count.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest compares got against the golden digest stored under key and
// describes a mismatch; an absent key is a mismatch too.
func checkDigest(golden map[string]string, key, got string) error {
	want, ok := golden[key]
	if !ok {
		return fmt.Errorf("no golden digest for %s", key)
	}
	if got != want {
		return fmt.Errorf("%s output digest %s, want %s", key, got[:12], want[:12])
	}
	return nil
}

// subsetEntries returns every stride-th testbed entry, the selection
// experiments.Config makes for Stride.
func subsetEntries(stride int) []sparse.TestbedEntry {
	var out []sparse.TestbedEntry
	tb := sparse.Testbed()
	for i := 0; i < len(tb); i += stride {
		out = append(out, tb[i])
	}
	return out
}

// fetchSubset builds a fresh matrix cache and fetches the subset into it,
// returning the cache, the matrices and the seconds it took.
func fetchSubset(entries []sparse.TestbedEntry, scale float64) (*sparse.MatrixCache, []*sparse.CSR, float64) {
	start := time.Now()
	mc := sparse.NewMatrixCache(experiments.DefaultMatrixCacheBytes)
	ms := make([]*sparse.CSR, len(entries))
	for i, e := range entries {
		ms[i] = mc.Get(e, scale)
	}
	return mc, ms, time.Since(start).Seconds()
}

// simCounts snapshots the simulator's cumulative counters.
func simCounts() map[string]uint64 {
	built, reused, analytic, exact := sim.PricingCounters()
	return map[string]uint64{
		"sim.flops":           sim.SimulatedFLOPs(),
		"sim.profiles_built":  built,
		"sim.profiles_reused": reused,
		"sim.cells_analytic":  analytic,
		"sim.cells_exact":     exact,
	}
}

func deltas(before, after map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// simWorkload renders one registered experiment on the shared subset.
type simWorkload struct {
	name, experiment string
}

var (
	// plruExact renders fig9: 8 core counts x 3 clock configurations on the
	// SCC's tree-PLRU L2, which auto pricing always walks exactly.
	plruExact = simWorkload{name: "plru-exact", experiment: "fig9"}
	// geomAnalytic renders the 15-geometry TrueLRU L2 ablation, which auto
	// pricing serves from one stream profile per matrix.
	geomAnalytic = simWorkload{name: "geom-analytic", experiment: "ablation-l2geom"}
)

// phase runs render operations. Each one builds a fresh matrix cache and
// fetches the subset into it (one set-up sample) before rendering (one
// wall sample): analytic pricing keeps its stream profiles in that cache,
// so a reused cache would let one render's profiles serve the next.
func (w simWorkload) phase(_ int64, seconds float64) (*tally, error) {
	t := &tally{}
	start := time.Now()
	for t.attempted == 0 || time.Since(start).Seconds() < seconds {
		if err := w.op(t); err != nil {
			return nil, err
		}
	}
	t.liveHeapMB = liveHeapMB()
	return t, nil
}

// liveHeapMB collects garbage and returns the heap still in use, in MiB: a
// footprint that, unlike the heap's high-water, the collector's timing
// cannot move.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// op sets up and renders once.
func (w simWorkload) op(t *tally) error {
	mc, ms, setup := fetchSubset(subsetEntries(subsetStride), subsetScale)
	t.setup = append(t.setup, setup)
	t.cache, t.matrices = mc, ms
	t.attempted++

	before := simCounts()
	start := time.Now()
	out, err := w.render(mc)
	wall := time.Since(start).Seconds()
	if err != nil {
		t.fail("%s: %v", w.name, err)
		return nil
	}
	c := deltas(before, simCounts())
	if err := guard(w.name, c, out.Tables); err != nil {
		return err
	}
	t.wall = append(t.wall, wall)
	t.tables = out.Tables
	if out.Failed > 0 {
		t.fail("%s: %d cells failed", w.name, out.Failed)
		return nil
	}
	if err := checkDigest(golden.Outputs, w.name, digest(out.Text, out.CSV)); err != nil {
		t.fail("%v", err)
		return nil
	}
	t.checkCounts(c)
	return nil
}

// render runs the workload's experiment on the subset held by mc.
func (w simWorkload) render(mc *sparse.MatrixCache) (*experiments.RunOutput, error) {
	return experiments.ExecuteByID(w.experiment, experiments.Config{
		Scale: subsetScale, Stride: subsetStride, MatrixCache: mc,
	})
}

// rcceMeshPhase sets up several times (each a fresh cache and a fetch of
// the subset; the last one is kept), then runs passes of the executable RCCE
// SpMV sweep over every matrix, 1 to 256 UEs on the 16x16 mesh. The seed
// fixes the order in which a pass visits the matrices.
func rcceMeshPhase(seed int64, seconds float64) (*tally, error) {
	t := &tally{}
	for i := 0; i < setups; i++ {
		var s float64
		_, t.matrices, s = fetchSubset(subsetEntries(subsetStride), subsetScale)
		t.setup = append(t.setup, s)
	}
	order := rand.New(rand.NewPCG(uint64(seed), 0)).Perm(len(t.matrices))
	start := time.Now()
	for t.attempted == 0 || time.Since(start).Seconds() < seconds {
		t.attempted++
		passStart := time.Now()
		rows, err := rcceSweeps(t.matrices, order)
		wall := time.Since(passStart).Seconds()
		if err != nil {
			t.fail("rcce-mesh: %v", err)
			continue
		}
		msgs := uint64(0)
		for _, rs := range rows {
			for _, r := range rs {
				msgs += r.Messages
			}
		}
		c := map[string]uint64{"rcce.messages": msgs}
		if err := guard("rcce-mesh", c, nil); err != nil {
			return nil, err
		}
		t.wall = append(t.wall, wall)
		if err := checkDigest(golden.Outputs, "rcce-mesh", rowsDigest(rows)); err != nil {
			t.fail("%v", err)
			continue
		}
		t.checkCounts(c)
	}
	t.liveHeapMB = liveHeapMB()
	return t, nil
}

// rcceSweeps runs the executable RCCE SpMV sweep on the mesh for each
// matrix, visiting them in the given order, and returns the rows by matrix.
func rcceSweeps(ms []*sparse.CSR, order []int) (map[string][]sim.RCCESweepRow, error) {
	geom, err := scc.ParseGeometry(meshGeometry)
	if err != nil {
		return nil, err
	}
	rows := make(map[string][]sim.RCCESweepRow, len(order))
	for _, i := range order {
		a := ms[i]
		if rows[a.Name], err = sim.RunRCCESweep(a, sim.RCCESweepOptions{Geometry: geom}); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	return rows, nil
}

// rowsDigest renders every sweep row, matrices in name order, with the
// checksum's exact bits, and digests the text.
func rowsDigest(rows map[string][]sim.RCCESweepRow) string {
	names := make([]string, 0, len(rows))
	for n := range rows {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		for _, r := range rows[n] {
			fmt.Fprintf(&b, "%s %d %d %d %d %.6f %016x\n", n, r.UEs, r.Messages, r.Bytes, r.Barriers,
				r.MeanHops, math.Float64bits(r.Checksum))
		}
	}
	return digest(b.String())
}

// isGuard reports whether err refuses the run.
func isGuard(err error) bool {
	var g *guardError
	return errors.As(err, &g)
}
