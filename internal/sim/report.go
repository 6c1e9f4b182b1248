package sim

import (
	"fmt"
	"io"
)

// WriteReport renders a human-readable account of a run: the headline
// numbers and the per-core breakdown (work, time, stall share, contention,
// cache hit ratios). cmd/spmvrun's -verbose output is this report.
func (r *Result) WriteReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "matrix      %s\n", r.Matrix); err != nil {
		return err
	}
	fmt.Fprintf(w, "kernel      %s, %d units of execution\n", r.Variant, r.UEs)
	fmt.Fprintf(w, "time        %.3f ms\n", r.TimeSec*1e3)
	fmt.Fprintf(w, "throughput  %.1f MFLOPS (%.3f GFLOPS)\n", r.MFLOPS, r.GFLOPS)
	fmt.Fprintf(w, "power       %.1f W  ->  %.1f MFLOPS/W\n", r.PowerWatts, r.MFLOPSPerWatt)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "rank  core  hops  rows      nnz        time(ms)  stall%  slowdown  L1hit%  L2hit%")
	for _, c := range r.PerCore {
		total := c.ComputeSec + c.Slowdown*c.MemStallSec
		stallPct := 0.0
		if total > 0 {
			stallPct = 100 * c.Slowdown * c.MemStallSec / total
		}
		acc := float64(c.Cache.Accesses)
		l1, l2 := 0.0, 0.0
		if acc > 0 {
			l1 = 100 * float64(c.Cache.L1Hits) / acc
			l2 = 100 * float64(c.Cache.L2Hits) / acc
		}
		if _, err := fmt.Fprintf(w, "%-5d %-5d %-5d %-9d %-10d %-9.3f %-7.1f %-9.2f %-7.1f %-6.1f\n",
			c.Rank, int(c.Core), c.Hops, c.Rows, c.NNZ, c.TimeSec*1e3, stallPct, c.Slowdown, l1, l2); err != nil {
			return err
		}
	}
	return nil
}
