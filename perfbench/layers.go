package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/rcce"
	"repro/internal/scc"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/spmv"
	"repro/internal/trace"
)

// The traced run measures each layer from outside the program: it times
// calls into the layer's exported functions, reads the counters and timers
// the program already keeps, and attributes a CPU profile of the workload to
// packages. A workload reports the layers it exercises; every other
// per-layer metric reads 0 on it.

// tracedRun runs an untraced and a CPU-profiled phase of the workload, a
// third of the run each, then the workload's layer measurements.
func tracedRun(w workload, seed int64, seconds float64) (map[string]float64, *tally, error) {
	untraced, err := w.phase(seed, seconds/3)
	if err != nil {
		return nil, nil, err
	}
	before := obs.Default.Snapshot()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	traced, err := w.phase(seed, seconds/3)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	after := obs.Default.Snapshot()

	m := map[string]float64{}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	for _, p := range cpuSharePackages {
		m["cpu_share."+p] = shares[p]
	}
	if len(untraced.wall) > 0 && len(traced.wall) > 0 {
		m["obs.trace_overhead_ratio"] = quietMedian(traced.wall, quietSlices) / quietMedian(untraced.wall, quietSlices)
		ops := float64(len(traced.wall))
		for metric, timer := range map[string]string{
			"experiments.cell_busy_s":    "experiments.cell.task_seconds",
			"experiments.matrix_fetch_s": "experiments.matrix.fetch_seconds",
			"sim.ue_walk_busy_s":         "sim.ue_walk.task_seconds",
		} {
			m[metric] = (after.Timers[timer].Sum - before.Timers[timer].Sum) / ops
		}
	}
	for k, v := range traced.counts {
		m[k] = float64(v)
	}
	m["sim.gflop"] = m["sim.flops"] / 1e9
	delete(m, "sim.flops")
	if b, r := m["sim.profiles_built"], m["sim.profiles_reused"]; b+r > 0 {
		m["sim.profile_reuse_ratio"] = r / (b + r)
	}
	for k, v := range traced.extra {
		m[k] = v
	}
	layer, err := w.layers(untraced)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range layer {
		m[k] = v
	}

	all := &tally{attempted: untraced.attempted + traced.attempted, failed: untraced.failed + traced.failed,
		problems: append(untraced.problems, traced.problems...)}
	all.checkCounts(untraced.counts)
	all.checkCounts(traced.counts)
	return m, all, nil
}

// layers of the two simulation workloads.
func (w simWorkload) layers(t *tally) (map[string]float64, error) {
	m := sparseLayers(subsetEntries(subsetStride), subsetScale)
	for k, v := range cacheLayers(t.matrices) {
		m[k] = v
	}
	mid := t.matrices[len(t.matrices)/2]
	m["partition.split_us"] = perCall(func() {
		partition.Split(partition.SchemeByNNZ, mid, 48)
	}) * 1e6
	demands := make([]mem.CoreDemand, 12)
	for i := range demands {
		demands[i] = mem.CoreDemand{ReadBytes: float64(1+i) * 1e6, WriteBytes: 1e5, TimeSec: 1e-3}
	}
	ctl := mem.Controller{MemMHz: scc.Conf0.MemMHz}
	m["mem.slowdown_ns"] = perCall(func() { mem.Slowdown(ctl, demands) }) * 1e9
	m["stats.render_ms"] = perCall(func() {
		for _, tb := range t.tables {
			_ = tb.String() + tb.CSV()
		}
	}) * 1e3

	var cells []float64
	switch w.name {
	case "plru-exact":
		machines := []*sim.Machine{sim.NewMachine(scc.Conf0), sim.NewMachine(scc.Conf1), sim.NewMachine(scc.Conf2)}
		for _, a := range t.matrices {
			start := time.Now()
			if _, err := sim.RunSpMVSweep(machines, a, nil, sim.Options{Mapping: scc.DistanceReductionMapping(48)}); err != nil {
				return nil, err
			}
			cells = append(cells, time.Since(start).Seconds())
		}
		m["sim.exact_cell_ms"] = median(cells) * 1e3
		speedup, err := w.poolSpeedup(quietMedian(t.wall, quietSlices))
		if err != nil {
			return nil, err
		}
		m["sim.pool_speedup"] = speedup
		for k, v := range hostLayers(m["host.bytes_per_sim_access"], m["cache.hier_ns_per_access"]) {
			m[k] = v
		}
	case "geom-analytic":
		var reused []float64
		for _, a := range t.matrices {
			store := sparse.NewMatrixCache(experiments.DefaultMatrixCacheBytes)
			opts := sim.Options{Mapping: scc.DistanceReductionMapping(24), Profiles: store}
			for i, kb := range []int{256, 512} {
				mach := sim.NewMachine(scc.Conf0)
				mach.L2Geom = &cache.Config{SizeBytes: kb << 10, LineBytes: scc.CacheLineBytes, Ways: 4,
					WriteBack: true, Replacement: cache.TrueLRU}
				start := time.Now()
				if _, err := sim.RunSpMVSweep([]*sim.Machine{mach}, a, nil, opts); err != nil {
					return nil, err
				}
				if i == 0 {
					cells = append(cells, time.Since(start).Seconds())
				} else {
					reused = append(reused, time.Since(start).Seconds())
				}
			}
		}
		m["sim.profile_build_ms"] = median(cells) * 1e3
		m["sim.analytic_cell_reused_ms"] = median(reused) * 1e3
		for k, v := range traceLayers(t.matrices) {
			m[k] = v
		}
	}
	return m, nil
}

// poolSpeedup divides the quiet render wall at GOMAXPROCS=1 by that of one
// render at every CPU the host gives the process.
func (w simWorkload) poolSpeedup(wallAt1 float64) (float64, error) {
	t := &tally{}
	err := withProcs(runtime.NumCPU(), func() error { return w.op(t) })
	if err != nil {
		return 0, err
	}
	if len(t.wall) == 0 {
		return 0, fmt.Errorf("parallel render failed: %v", t.problems)
	}
	return wallAt1 / t.wall[0], nil
}

// withProcs runs fn with GOMAXPROCS set to n.
func withProcs(n int, fn func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	return fn()
}

// perCall times fn in batches until about 50 ms have passed and returns
// the median seconds per call over the batches.
func perCall(fn func()) float64 {
	var per []float64
	n := 1
	start := time.Now()
	for len(per) < 5 || time.Since(start) < 50*time.Millisecond {
		b := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(b)
		per = append(per, d.Seconds()/float64(n))
		if d < time.Millisecond {
			n *= 2
		}
	}
	return median(per)
}

// sparseLayers times generation, content hashing and a cache hit on the
// workload's matrices.
func sparseLayers(entries []sparse.TestbedEntry, scale float64) map[string]float64 {
	start := time.Now()
	ms := make([]*sparse.CSR, len(entries))
	for i, e := range entries {
		ms[i] = e.GenerateScaled(scale)
	}
	gen := time.Since(start).Seconds()
	start = time.Now()
	for _, a := range ms {
		a.ContentKey()
	}
	key := time.Since(start).Seconds()
	mc := sparse.NewMatrixCache(experiments.DefaultMatrixCacheBytes)
	mc.Get(entries[0], scale)
	hit := perCall(func() { mc.Get(entries[0], scale) })
	return map[string]float64{
		"sparse.generate_s":       gen,
		"sparse.content_key_s":    key,
		"sparse.cache_get_hit_ns": hit * 1e9,
	}
}

// spmvStream returns one CSR SpMV pass's line-crossing accesses in the
// order the simulator's exact walk probes a core's hierarchy (a single UE
// owning every row, the simulator's address layout). The low bit marks a
// store; every address is at least 4-byte aligned, so it is free.
func spmvStream(a *sparse.CSR) []uint64 {
	const base = uint64(1) << 28
	align := func(v uint64) uint64 { return (v + 63) &^ 63 }
	ptr := base
	index := align(ptr + 4*uint64(a.Rows+1))
	val := align(index + 4*uint64(a.NNZ()))
	x := align(val + 8*uint64(a.NNZ()))
	y := align(x + 8*uint64(a.Cols))
	out := make([]uint64, 0, 2*a.NNZ()+a.Rows)
	last := [4]uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	cross := func(s int, addr uint64) bool {
		line := addr / scc.CacheLineBytes
		if line == last[s] {
			return false
		}
		last[s] = line
		return true
	}
	for i := 0; i < a.Rows; i++ {
		if addr := ptr + 4*uint64(i); cross(0, addr) {
			out = append(out, addr)
		}
		for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
			if addr := index + 4*uint64(k); cross(1, addr) {
				out = append(out, addr)
			}
			if addr := val + 8*uint64(k); cross(2, addr) {
				out = append(out, addr)
			}
			out = append(out, x+8*uint64(a.Index[k]))
		}
		if addr := y + 8*uint64(i); cross(3, addr) {
			out = append(out, addr|1)
		}
	}
	return out
}

// setStateBytes is the replacement state one probe of a cache set reads:
// a tag and a valid flag per way.
func setStateBytes(c cache.Config) float64 { return float64(c.Ways * 9) }

// cacheLayers replays each matrix's stream through a fresh SCC hierarchy
// and a lone L1, a warm-up pass then a timed pass, as the exact walk does.
// It also computes the host bytes a simulated access reads: the CSR arrays
// that form the addresses, plus the probed sets' replacement state.
func cacheLayers(ms []*sparse.CSR) map[string]float64 {
	var hierNs, l1Ns, accesses, l2Probes, l2Misses, moved float64
	for _, a := range ms {
		s := spmvStream(a)
		h := cache.NewSCCHierarchy(true)
		replay := func() time.Duration {
			start := time.Now()
			for _, v := range s {
				h.Access(v&^1, v&1 == 1)
			}
			return time.Since(start)
		}
		replay()
		h.ResetStats()
		hierNs += float64(replay().Nanoseconds())
		st := h.Stats()
		accesses += float64(st.Accesses)
		l2Probes += float64(st.L2Hits + st.MemAccesses)
		l2Misses += float64(st.MemAccesses)
		moved += float64(4*(a.Rows+1)+4*a.NNZ()) + float64(st.Accesses)*setStateBytes(cache.SCCL1()) +
			float64(st.Accesses-st.L1Hits)*setStateBytes(cache.SCCL2())

		l1 := cache.New(cache.SCCL1())
		for pass := 0; pass < 2; pass++ {
			start := time.Now()
			for _, v := range s {
				l1.Access(v&^1, v&1 == 1)
			}
			if pass == 1 {
				l1Ns += float64(time.Since(start).Nanoseconds())
			}
		}
	}
	return map[string]float64{
		"cache.hier_ns_per_access":  hierNs / accesses,
		"cache.l1_ns_per_access":    l1Ns / accesses,
		"cache.accesses":            accesses,
		"cache.l2_miss_ratio":       l2Misses / l2Probes,
		"host.bytes_per_sim_access": moved / accesses,
	}
}

// profileSetConfig mirrors the geometry bounds the simulator's analytic
// pricing profiles with.
var profileSetConfig = trace.SetConfig{MinSetsLog2: 8, MaxSetsLog2: 14, MaxWays: 8}

// traceLayers filters each matrix's stream through the SCC L1 and feeds
// what reaches the L2 to a SetAnalyzer: a warm-up pass unrecorded, then a
// timed, recorded pass, the way analytic pricing builds a profile.
func traceLayers(ms []*sparse.CSR) map[string]float64 {
	type touch struct {
		line uint64
		kind trace.AccessKind
	}
	var ns, touches float64
	for _, a := range ms {
		s := spmvStream(a)
		l1 := cache.New(cache.SCCL1())
		var passes [2][]touch
		for p := range passes {
			for _, v := range s {
				write := v&1 == 1
				r := l1.Access(v&^1, write)
				line := v / scc.CacheLineBytes
				switch {
				case r.Hit && r.WroteThrough:
					passes[p] = append(passes[p], touch{line, trace.ForwardedStore})
				case r.Hit:
				case write && r.WroteThrough:
					passes[p] = append(passes[p], touch{line, trace.DemandStore})
				default:
					passes[p] = append(passes[p], touch{line, trace.DemandRead})
				}
			}
		}
		sa := trace.NewSetAnalyzer(profileSetConfig)
		sa.SetRecording(false)
		for _, t := range passes[0] {
			sa.Touch(t.line, t.kind)
		}
		sa.SetRecording(true)
		start := time.Now()
		for _, t := range passes[1] {
			sa.Touch(t.line, t.kind)
		}
		ns += float64(time.Since(start).Nanoseconds())
		touches += float64(len(passes[1]))
	}
	return map[string]float64{
		"trace.set_ns_per_touch": ns / touches,
		"trace.touches":          touches,
	}
}

// triadArrayBytes sizes each STREAM-triad array. Three of them stay well
// inside a shared host's memory; on a host whose last-level cache is more
// than a quarter of their total, the triad measures that cache rather than
// memory and no roofline share is reported.
const triadArrayBytes = 32 << 20

// hostLayers measures the host's STREAM-triad bandwidth and relates it to
// the exact walk's computed bytes per simulated access: the roofline share
// is the bandwidth the walk's replay implies over the triad's.
func hostLayers(bytesPerAccess, nsPerAccess float64) map[string]float64 {
	n := triadArrayBytes / 8
	a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], c[i] = float64(i), float64(n-i)
	}
	best := time.Duration(1<<63 - 1)
	for rep := 0; rep < 10; rep++ {
		start := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		best = min(best, time.Since(start))
	}
	gbps := 24 * float64(n) / best.Seconds() / 1e9
	llc := llcBytes()
	m := map[string]float64{
		"host.triad_gbps":     gbps,
		"host.triad_array_mb": triadArrayBytes / (1 << 20),
		"host.llc_mb":         float64(llc) / (1 << 20),
	}
	if llc > 0 && 3*triadArrayBytes >= 4*llc {
		m["host.roofline_share"] = bytesPerAccess / nsPerAccess / gbps
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: triad arrays (3 x %d MiB) are under 4x the last-level cache (%d MiB); reporting bytes per simulated access without a roofline share\n",
			triadArrayBytes>>20, llc>>20)
	}
	return m
}

// llcBytes reads the largest cache level's size from sysfs; 0 when the
// host does not expose it.
func llcBytes() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var best int64
	for _, d := range dirs {
		raw, err := os.ReadFile(filepath.Join(d, "size"))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(raw))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v*mult > best {
			best = v * mult
		}
	}
	return best
}

// rcceMeshLayers times the RCCE runtime on both engines and the
// executable SpMV program on the mesh.
func rcceMeshLayers(t *tally) (map[string]float64, error) {
	m := sparseLayers(subsetEntries(subsetStride), subsetScale)
	for _, b := range []rcce.Backend{rcce.BackendGoroutine, rcce.BackendDES} {
		var msg, bar float64
		err := withProcs(runtime.NumCPU(), func() (err error) {
			msg, bar, err = rcceLeg(b)
			return err
		})
		if err != nil {
			return nil, err
		}
		m["rcce."+b.String()+".ns_per_msg"] = msg
		m["rcce."+b.String()+".barrier_us"] = bar
	}
	geom, err := scc.ParseGeometry(meshGeometry)
	if err != nil {
		return nil, err
	}
	n := geom.NumCores()
	var calls []float64
	for _, a := range t.matrices {
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = float64(1 + i%3)
		}
		start := time.Now()
		if _, err := spmv.RCCEWith(rcce.Options{Geometry: geom}, a, x, n, geom.DistanceReductionMapping(n)); err != nil {
			return nil, err
		}
		calls = append(calls, time.Since(start).Seconds())
	}
	m["spmv.rccewith_ms"] = median(calls) * 1e3
	return m, nil
}

// rcceLeg measures one engine with no injected delay: 16 UEs ping-pong
// 8-byte messages in pairs, then cross barriers.
func rcceLeg(b rcce.Backend) (nsPerMsg, barrierUs float64, err error) {
	const ues, rounds, barriers = 16, 2000, 500
	mapping := scc.StandardMapping(ues)
	domains := scc.Uniform(scc.Conf0)
	opts := rcce.Options{Backend: b}
	start := time.Now()
	err = rcce.RunWith(opts, ues, mapping, domains, func(u *rcce.UE) error {
		buf := make([]byte, 8)
		peer := u.Rank() ^ 1
		for r := 0; r < rounds; r++ {
			if u.Rank()%2 == 0 {
				if err := u.Send(buf, peer); err != nil {
					return err
				}
				if err := u.Recv(buf, peer); err != nil {
					return err
				}
			} else {
				if err := u.Recv(buf, peer); err != nil {
					return err
				}
				if err := u.Send(buf, peer); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("rcce %s ping-pong: %w", b, err)
	}
	nsPerMsg = float64(time.Since(start).Nanoseconds()) / float64(ues*rounds)
	start = time.Now()
	err = rcce.RunWith(opts, ues, mapping, domains, func(u *rcce.UE) error {
		for i := 0; i < barriers; i++ {
			if err := u.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, fmt.Errorf("rcce %s barriers: %w", b, err)
	}
	return nsPerMsg, time.Since(start).Seconds() * 1e6 / barriers, nil
}

// serveMixLayers times the daemon's in-process submit of a cached job and
// its config canonicalisation, and splits the HTTP hit latency from them.
func serveMixLayers(t *tally) (map[string]float64, error) {
	m := sparseLayers(subsetEntries(8), serveScale)
	cfg := servePopulation[0].config()
	m["serve.canonical_hash_us"] = perCall(func() {
		c, err := cfg.Canonical()
		if err == nil {
			_ = c.Hash()
		}
	}) * 1e6
	canon, err := cfg.Canonical()
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.ServerConfig{})
	srv.Store().Put(&serve.Result{Hash: canon.Hash(), Experiment: canon.Experiment, Text: []byte("cached")})
	var submits []float64
	for i := 0; i < 2000; i++ {
		start := time.Now()
		out, err := srv.Submit(cfg)
		submits = append(submits, time.Since(start).Seconds())
		if err != nil {
			return nil, err
		}
		if !out.Cached {
			return nil, fmt.Errorf("in-process submit of a stored result was not a cache hit")
		}
	}
	m["serve.submit_hit_us"] = median(submits) * 1e6
	m["serve.http_overhead_us"] = t.extra["serve.job_hit_p50_ms"]*1e3 - m["serve.submit_hit_us"]
	return m, nil
}
