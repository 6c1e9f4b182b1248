package sim

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/rcce"
	"repro/internal/scc"
	"repro/internal/sparse"
	"repro/internal/spmv"
)

// Executable-RCCE scaling sweeps. Unlike the analytic SpMV model above,
// these rows come from actually running the message-passing program
// (internal/spmv.RCCEWith) at each UE count, so they measure what the
// runtime really does: messages exchanged, bytes moved, barriers crossed.
// Every value is deterministic and engine-independent - the goroutine and
// DES backends must render bit-identical rows, which the cross-engine
// determinism tests assert. Wall and virtual time are deliberately absent
// from the rows (they differ between engines by design).

// RCCESweepOptions configures an executable-RCCE scaling sweep.
type RCCESweepOptions struct {
	// Engine selects the RCCE backend (goroutine or DES); both produce
	// identical rows.
	Engine rcce.Backend
	// Geometry is the simulated chip (zero value = the real 48-core SCC).
	// Custom geometries lift the UE cap for beyond-the-hardware counts.
	Geometry scc.Geometry
	// Deadline arms the per-op watchdog for every run (0 = block-forever
	// on the goroutine backend, exact quiescence detection on DES).
	Deadline time.Duration
	// Fault is the deterministic fault-injection plan applied to every
	// run (nil injects nothing). Injected delays never change the rows -
	// only wall clock on the goroutine backend, virtual time on DES.
	Fault *fault.Plan
	// Counts are the UE counts to sweep; nil derives the default ladder
	// from the geometry (the paper's core counts, extended by doubling up
	// to the mesh size on custom geometries).
	Counts []int
}

// RCCESweepRow is one UE count's deterministic outcome.
type RCCESweepRow struct {
	// UEs is the number of units of execution the program ran with.
	UEs int
	// Messages/Bytes/Barriers are the runtime's traffic counters after
	// the program's trailing barrier (see spmv.RCCEWith).
	Messages, Bytes, Barriers uint64
	// MeanHops is the mean core-to-memory-controller distance of the
	// distance-reduction mapping at this count.
	MeanHops float64
	// Checksum is the sum of the product vector, the functional identity
	// of the computation.
	Checksum float64
}

// DefaultRCCECounts returns the sweep ladder for a geometry: the paper's
// core counts up to the real chip, then doublings up to the mesh size,
// always ending at the full mesh.
func DefaultRCCECounts(geom scc.Geometry) []int {
	geom = geom.OrDefault()
	cores := geom.NumCores()
	var counts []int
	for _, n := range []int{1, 2, 4, 8, 16, 24, 32, 48} {
		if n <= cores {
			counts = append(counts, n)
		}
	}
	for n := 64; n <= cores; n *= 2 {
		counts = append(counts, n)
	}
	if counts[len(counts)-1] != cores {
		counts = append(counts, cores)
	}
	return counts
}

// RunRCCESweep runs the executable RCCE SpMV at each UE count and returns
// one row per count. x is the deterministic input vector x[i] = 1+(i mod 3),
// chosen so the checksum exercises every column without overflow.
func RunRCCESweep(a *sparse.CSR, opts RCCESweepOptions) ([]RCCESweepRow, error) {
	geom := opts.Geometry.OrDefault()
	counts := opts.Counts
	if counts == nil {
		counts = DefaultRCCECounts(geom)
	}
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = float64(1 + i%3)
	}
	rows := make([]RCCESweepRow, 0, len(counts))
	for _, n := range counts {
		if n <= 0 || n > geom.NumCores() {
			return nil, fmt.Errorf("sim: rcce sweep count %d outside the %d-core mesh", n, geom.NumCores())
		}
		mapping := geom.DistanceReductionMapping(n)
		res, err := spmv.RCCEWith(rcce.Options{
			Backend:  opts.Engine,
			Geometry: opts.Geometry,
			Deadline: opts.Deadline,
			Fault:    opts.Fault,
		}, a, x, n, mapping)
		if err != nil {
			return nil, fmt.Errorf("sim: rcce sweep at %d UEs: %w", n, err)
		}
		sum := 0.0
		for _, v := range res.Y {
			sum += v
		}
		rows = append(rows, RCCESweepRow{
			UEs:      n,
			Messages: res.Stats.Messages,
			Bytes:    res.Stats.Bytes,
			Barriers: res.Stats.Barriers,
			MeanHops: geom.MeanHops(mapping),
			Checksum: sum,
		})
	}
	return rows, nil
}
