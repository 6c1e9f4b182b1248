// Command perfbench is the repository benchmark. It runs one workload for
// a fixed time against the simulator's packages, checks every output
// against the golden digests in golden.json, and prints its metrics, the
// last line of standard output being one JSON object:
//
//	{"correct": true, "attempted": 9, "failed": 0, "metrics": {"wall_quiet_s": {"value": 1.93, "unit": "s"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate run measures the per-layer ones. Run it from the repository
// root through run.sh, which builds it first:
//
//	bash perfbench/run.sh --workload plru-exact --seed 1 --seconds 25 --trace 0
//
// README.md says why each workload was chosen and which end-to-end metric
// each per-layer metric should move. A run that did no simulated work, or
// whose counts contradict its workload, is refused: it exits 3 and prints
// no result.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
)

//go:embed golden.json
var goldenJSON []byte

// goldenFile holds the SHA-256 of every output the benchmark checks.
type goldenFile struct {
	// Outputs maps a workload to the digest of one operation's output:
	// the rendered tables' text and CSV, or every RCCE sweep row.
	Outputs map[string]string `json:"outputs"`
	// Jobs maps a serve-mix job key to the digest of its result bytes.
	Jobs map[string]string `json:"jobs"`
}

var golden = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("perfbench: golden.json: %v", err))
	}
	return g
}()

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run prints, on every workload. An
// operation is one rendered experiment, one RCCE pass over the subset, or
// one job. Operation time is taken from the run's quietest stretch: on a
// shared host the run-to-run spread of the plain median (up to 65%) and
// mean (up to 44%) exceeded any usable bound.
var endToEnd = []metricDef{
	{"wall_quiet_s", "s"},  // lowest median operation time over 20 consecutive slices of the run
	{"setup_s", "s"},       // median set-up: matrix generation into a fresh cache (plus daemon start)
	{"live_heap_mb", "MB"}, // live heap at the phase's end, the last operation's state still held
}

// perLayer are the metrics a --trace 1 run prints, on every workload.
var perLayer = []metricDef{
	{"cache.hier_ns_per_access", "ns"}, {"cache.l1_ns_per_access", "ns"},
	{"cache.accesses", "count"}, {"cache.l2_miss_ratio", "ratio"},
	{"trace.set_ns_per_touch", "ns"}, {"trace.touches", "count"},
	{"sim.exact_cell_ms", "ms"}, {"sim.profile_build_ms", "ms"}, {"sim.analytic_cell_reused_ms", "ms"},
	{"sim.cells_exact", "count"}, {"sim.cells_analytic", "count"},
	{"sim.profiles_built", "count"}, {"sim.profiles_reused", "count"}, {"sim.profile_reuse_ratio", "ratio"},
	{"sim.gflop", "GFLOP"}, {"sim.pool_speedup", "ratio"}, {"sim.ue_walk_busy_s", "s"},
	{"sparse.generate_s", "s"}, {"sparse.cache_get_hit_ns", "ns"}, {"sparse.content_key_s", "s"},
	{"partition.split_us", "us"}, {"mem.slowdown_ns", "ns"}, {"stats.render_ms", "ms"},
	{"rcce.goroutine.ns_per_msg", "ns"}, {"rcce.des.ns_per_msg", "ns"},
	{"rcce.goroutine.barrier_us", "us"}, {"rcce.des.barrier_us", "us"},
	{"rcce.messages", "count"}, {"spmv.rccewith_ms", "ms"},
	{"serve.submit_hit_us", "us"}, {"serve.canonical_hash_us", "us"}, {"serve.http_overhead_us", "us"},
	{"serve.store_hits", "count"}, {"serve.coalesced", "count"}, {"serve.misses", "count"},
	{"serve.jobs_per_s", "1/s"}, {"serve.job_hit_p50_ms", "ms"}, {"serve.job_hit_tail_ms", "ms"},
	{"serve.job_hit_tail_pct", "%"},
	{"serve.job_miss_p50_s", "s"},
	{"experiments.cell_busy_s", "s"}, {"experiments.matrix_fetch_s", "s"},
	{"cpu_share.cache", "ratio"}, {"cpu_share.trace", "ratio"}, {"cpu_share.sparse", "ratio"},
	{"cpu_share.sim", "ratio"}, {"cpu_share.rcce", "ratio"}, {"cpu_share.spmv", "ratio"},
	{"cpu_share.serve", "ratio"}, {"cpu_share.obs", "ratio"}, {"cpu_share.runtime", "ratio"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"host.triad_gbps", "GB/s"}, {"host.triad_array_mb", "MB"}, {"host.llc_mb", "MB"},
	{"host.bytes_per_sim_access", "B"}, {"host.roofline_share", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: plru-exact, geom-analytic, rcce-mesh or serve-mix")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 25, "seconds of operations to measure")
	traced := fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	update := fs.String("write-golden", "", "recompute every output digest and write golden.json to this path, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *update != "" {
		if err := writeGolden(*update); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload plru-exact|geom-analytic|rcce-mesh|serve-mix, --seconds > 0 and --trace 0|1\n")
		return 2
	}

	// One P: on a shared 2-vCPU host the median fig9 render of two
	// back-to-back runs differed by 29% with two and by 1.5% with one. The
	// traced run measures the pool's speedup at every CPU instead.
	runtime.GOMAXPROCS(1)
	var (
		t    *tally
		vals map[string]float64
		defs = endToEnd
		err  error
	)
	if *traced == 1 {
		defs = perLayer
		vals, t, err = tracedRun(w, *seed, *seconds)
	} else {
		t, err = w.phase(*seed, *seconds)
		if err == nil {
			vals = endToEndValues(t)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		if isGuard(err) {
			return 3
		}
		return 1
	}
	for _, p := range t.problems {
		fmt.Fprintf(stderr, "perfbench: %s\n", p)
	}
	if len(t.wall) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d operations, wall min %.4g median %.4g max %.4g s; %d set-ups, median %.4g s\n",
			w.name, len(t.wall), quantile(t.wall, 0), median(t.wall), quantile(t.wall, 1), len(t.setup), median(t.setup))
	}

	res := result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: %s is %v; reporting 0\n", w.name, d.name, v)
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-8s %-30s %14.6g %s\n", w.name, d.name, v, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// quietSlices is how many consecutive stretches of a run wall_quiet_s
// compares.
const quietSlices = 20

// endToEndValues derives the end-to-end metrics from an untraced phase.
func endToEndValues(t *tally) map[string]float64 {
	return map[string]float64{
		"wall_quiet_s": quietMedian(t.wall, quietSlices),
		"setup_s":      median(t.setup),
		"live_heap_mb": t.liveHeapMB,
	}
}
