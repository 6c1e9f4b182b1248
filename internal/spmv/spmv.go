// Package spmv provides executable (not simulated) SpMV kernels: the
// sequential reference, a goroutine-parallel version mirroring the OpenMP
// parallelisation the paper uses on the Xeon/Itanium2/Opteron comparison
// systems, and an RCCE-style version that runs on the message-passing
// runtime exactly like the paper's SCC code (x in shared memory, row blocks
// partitioned by nonzeros, results gathered at rank 0). The timing figures
// come from internal/sim; this package establishes functional correctness
// and exercises the RCCE substrate end to end.
package spmv

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/rcce"
	"repro/internal/scc"
	"repro/internal/sparse"
)

// parallelPool fans the shared-memory kernel's row blocks out through the
// engine's instrumented worker pool (spmv.parallel.tasks/task_seconds/
// occupancy), so the executable kernel path is observable like the
// simulation engine and inherits the pool's serial reference path.
var parallelPool = obs.Default.Pool("spmv.parallel")

// Sequential computes y = A·x with the paper's Figure 2 kernel.
func Sequential(a *sparse.CSR, y, x []float64) {
	a.MulVec(y, x)
}

// Parallel computes y = A·x with workers goroutines over a balanced-nonzero
// row partition - the shared-memory (OpenMP-style) parallelisation used on
// the paper's multicore comparison systems.
func Parallel(a *sparse.CSR, y, x []float64, workers int) error {
	if workers <= 0 {
		return fmt.Errorf("spmv: worker count %d must be positive", workers)
	}
	if len(x) != a.Cols || len(y) != a.Rows {
		return fmt.Errorf("spmv: dimension mismatch: %dx%d with len(x)=%d len(y)=%d",
			a.Rows, a.Cols, len(x), len(y))
	}
	parts := partition.ByNNZ(a, workers)
	parallelPool.ForEach(workers, workers, func(w int) {
		for _, ri := range parts[w] {
			i := int(ri)
			var t float64
			for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
				t += a.Val[k] * x[a.Index[k]]
			}
			y[i] = t
		}
	})
	return nil
}

// RCCEResult carries the outcome of an RCCE-parallel SpMV.
type RCCEResult struct {
	// Y is the full product, assembled at rank 0.
	Y []float64
	// Stats reports the communication volume the run generated.
	Stats rcce.Stats
}

// RCCE computes y = A·x on the message-passing runtime with ues units of
// execution placed by mapping (nil = standard). It reproduces the paper's
// SCC program structure: every UE reads the shared x, processes its
// balanced-nonzero row block, and rank 0 gathers the partial results.
func RCCE(a *sparse.CSR, x []float64, ues int, mapping scc.Mapping) (*RCCEResult, error) {
	return RCCEWith(rcce.Options{}, a, x, ues, mapping)
}

// RCCEWith is RCCE with runtime options armed: engine selection, custom
// mesh geometry, deadline watchdog and/or fault injection (see
// rcce.Options). A custom geometry lifts the 48-UE cap for
// beyond-the-hardware scaling runs.
func RCCEWith(opts rcce.Options, a *sparse.CSR, x []float64, ues int, mapping scc.Mapping) (*RCCEResult, error) {
	if len(x) != a.Cols {
		return nil, fmt.Errorf("spmv: len(x)=%d, matrix has %d columns", len(x), a.Cols)
	}
	parts := partition.ByNNZ(a, ues)
	out := &RCCEResult{Y: make([]float64, a.Rows)}

	err := rcce.RunWith(opts, ues, mapping, scc.Uniform(scc.Conf0), func(u *rcce.UE) error {
		// x lives in shared memory, initialised by rank 0 (paper setup).
		shx, err := u.Shmalloc("x", a.Cols)
		if err != nil {
			return err
		}
		if u.Rank() == 0 {
			copy(shx, x)
		}
		if err := u.Barrier(); err != nil {
			return err
		}

		rows := parts[u.Rank()]
		part := make([]float64, len(rows))
		for p, ri := range rows {
			i := int(ri)
			var t float64
			for k := a.Ptr[i]; k < a.Ptr[i+1]; k++ {
				t += a.Val[k] * shx[a.Index[k]]
			}
			part[p] = t
		}

		if u.Rank() == 0 {
			for p, ri := range rows {
				out.Y[ri] = part[p]
			}
			// Receive every other rank's block, tagged implicitly by
			// the deterministic partition.
			for r := 1; r < u.NumUEs(); r++ {
				peer := parts[r]
				if len(peer) == 0 {
					continue
				}
				buf := make([]float64, len(peer))
				if err := u.RecvFloat64s(buf, r); err != nil {
					return err
				}
				for p, ri := range peer {
					out.Y[ri] = buf[p]
				}
			}
		} else if len(part) > 0 {
			if err := u.SendFloat64s(part, 0); err != nil {
				return err
			}
		}
		// The trailing barrier makes the counter snapshot deterministic:
		// every rank's traffic is complete before rank 0 reads the stats,
		// so both engines report identical numbers.
		if err := u.Barrier(); err != nil {
			return err
		}
		if u.Rank() == 0 {
			out.Stats = u.Stats()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
