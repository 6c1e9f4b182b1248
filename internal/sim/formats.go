package sim

import (
	"fmt"

	"repro/internal/partition"
	"repro/internal/scc"
	"repro/internal/sparse"
)

// Storage-format kernels for the format ablation (DESIGN.md, abl-fmt) and
// the cache-blocking ablation. Each is a pass body over the per-rank driver
// CSR uses (drive): the format's virtual layout plus one walk over a rank's
// share that sends the format's real access stream - padding and fill
// overheads included - to the same core, cache and memory-controller
// model, so format comparisons isolate the format.

// runFormat runs the kernel build returns on ues ranks. The UE count is
// validated exactly as a CSR run's is (normalize's Mapping.Validate); the
// ranks are then placed by distance reduction, like every format ablation.
func (m *Machine) runFormat(ues int, build func() kernel) (*Result, error) {
	machines := []*Machine{m}
	opts := Options{UEs: ues}
	if err := prepare(machines, &opts); err != nil {
		return nil, err
	}
	opts.Mapping = scc.DistanceReductionMapping(ues)
	rs, err := drive(machines, opts, build())
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// share is rank's slice [lo, hi) of n rows split evenly over ues ranks.
func share(n, rank, ues int) (lo, hi int) { return n * rank / ues, n * (rank + 1) / ues }

// evenRows reports each rank's row count under share.
func evenRows(n, ues int) func(rank int) int {
	return func(rank int) int {
		lo, hi := share(n, rank, ues)
		return hi - lo
	}
}

// ellLayout places ELL's Index (4 B) and Val (8 B) rectangles, then x and y.
type ellLayout struct{ idx, val, x, y uint64 }

func ellLayoutFor(e *sparse.ELL) ellLayout {
	slots := uint64(e.Rows) * uint64(e.K)
	l := ellLayout{idx: layoutBase}
	l.val = align(l.idx + 4*slots)
	l.x = align(l.val + 8*slots)
	l.y = align(l.x + 8*uint64(e.Cols))
	return l
}

// ellPass walks ELL rows [lo, hi) and stores their y. Rows are left-packed,
// so a row's walk ends at its first padding slot.
func (m *Machine) ellPass(e *sparse.ELL, l ellLayout, x, y []float64, pr *hierProber, lo, hi int) (compute float64, nnz int) {
	var idxS, valS, yS stream
	for i := lo; i < hi; i++ {
		compute += m.Params.RowOverheadCycles
		rowBase := i * e.K
		var t float64
		for s := 0; s < e.K; s++ {
			c := e.Index[rowBase+s]
			if c < 0 {
				break
			}
			if addr := l.idx + 4*uint64(rowBase+s); idxS.crossing(addr) {
				pr.probe(addr, false)
			}
			if addr := l.val + 8*uint64(rowBase+s); valS.crossing(addr) {
				pr.probe(addr, false)
			}
			pr.probe(l.x+8*uint64(c), false)
			t += e.Val[rowBase+s] * x[c]
			compute += m.Params.NNZComputeCycles
			nnz++
		}
		y[i] = t
		if addr := l.y + 8*uint64(i); yS.crossing(addr) {
			pr.probe(addr, true)
		}
	}
	return compute, nnz
}

// RunELL simulates y = A·x over ELLPACK storage with ues units of
// execution, rows split evenly. Padding slots cost compute like real slots
// until the row's first pad (rows are left-packed), mirroring the
// branch-free inner loop ELL enables.
func (m *Machine) RunELL(e *sparse.ELL, ues int) (*Result, error) {
	return m.runFormat(ues, func() kernel {
		l := ellLayoutFor(e)
		x, y := ones(e.Cols), make([]float64, e.Rows)
		return kernel{
			name: e.Name, y: y, nnz: e.NNZ(), rows: evenRows(e.Rows, ues),
			body: func(rank int, pr *hierProber, _ bool) (float64, int) {
				lo, hi := share(e.Rows, rank, ues)
				return m.ellPass(e, l, x, y, pr, lo, hi)
			},
		}
	})
}

// RunBCSR simulates y = A·x over blocked-CSR storage with ues units of
// execution, block rows split evenly. Stored zeros inside blocks cost
// compute and bandwidth - the fill-ratio tax of register blocking.
func (m *Machine) RunBCSR(b *sparse.BCSR, ues int) (*Result, error) {
	return m.runFormat(ues, func() kernel {
		rc := b.R * b.C
		layPtr := layoutBase
		layBIdx := align(layPtr + 4*uint64(b.BRows+1))
		layVal := align(layBIdx + 4*uint64(b.Blocks()))
		layX := align(layVal + 8*uint64(b.Blocks()*rc))
		layY := align(layX + 8*uint64(b.Cols))
		x, y := ones(b.Cols), make([]float64, b.Rows)
		// The flops count every stored entry inside the matrix bounds,
		// explicit zeros included; callers divide MFLOPS by the fill ratio
		// to report useful throughput.
		stored := 0
		for br := 0; br < b.BRows; br++ {
			r := min(b.R, b.Rows-br*b.R)
			for p := b.Ptr[br]; p < b.Ptr[br+1]; p++ {
				stored += r * min(b.C, b.Cols-int(b.BIndex[p])*b.C)
			}
		}
		return kernel{
			name: b.Name, y: y, nnz: stored, rows: evenRows(b.BRows, ues),
			body: func(rank int, pr *hierProber, _ bool) (compute float64, nnz int) {
				lo, hi := share(b.BRows, rank, ues)
				clear(y[min(lo*b.R, b.Rows):min(hi*b.R, b.Rows)])
				var ptrS, bidxS, valS, yS stream
				for br := lo; br < hi; br++ {
					compute += m.Params.RowOverheadCycles
					if addr := layPtr + 4*uint64(br); ptrS.crossing(addr) {
						pr.probe(addr, false)
					}
					rowLo := br * b.R
					for p := int(b.Ptr[br]); p < int(b.Ptr[br+1]); p++ {
						if addr := layBIdx + 4*uint64(p); bidxS.crossing(addr) {
							pr.probe(addr, false)
						}
						colLo := int(b.BIndex[p]) * b.C
						for ri := 0; ri < b.R && rowLo+ri < b.Rows; ri++ {
							var t float64
							for cj := 0; cj < b.C && colLo+cj < b.Cols; cj++ {
								off := p*rc + ri*b.C + cj
								if addr := layVal + 8*uint64(off); valS.crossing(addr) {
									pr.probe(addr, false)
								}
								pr.probe(layX+8*uint64(colLo+cj), false)
								t += b.Val[off] * x[colLo+cj]
								compute += m.Params.NNZComputeCycles
								nnz++
							}
							y[rowLo+ri] += t
						}
					}
					for i := rowLo; i < rowLo+b.R && i < b.Rows; i++ {
						if addr := layY + 8*uint64(i); yS.crossing(addr) {
							pr.probe(addr, true)
						}
					}
				}
				return compute, nnz
			},
		}
	})
}

// RunDIA simulates y = A·x over diagonal storage with ues units of
// execution, rows split evenly. DIA is the stream-friendliest format (both
// the diagonal values and the x accesses are unit-stride); padding slots
// inside stored diagonals cost compute and bandwidth like real entries -
// DIA's fundamental trade. Only true nonzeros count as flops.
func (m *Machine) RunDIA(d *sparse.DIA, ues int) (*Result, error) {
	return m.runFormat(ues, func() kernel {
		layVal := layoutBase
		layX := align(layVal + 8*uint64(len(d.Val)))
		layY := align(layX + 8*uint64(d.Cols))
		x, y := ones(d.Cols), make([]float64, d.Rows)
		return kernel{
			name: d.Name, y: y, nnz: d.NNZ(), rows: evenRows(d.Rows, ues),
			body: func(rank int, pr *hierProber, _ bool) (compute float64, nnz int) {
				lo, hi := share(d.Rows, rank, ues)
				clear(y[lo:hi])
				var valS, xS, yS stream
				// Diagonal-major traversal over the owned row range: the
				// natural DIA loop nest (one pass per diagonal).
				for p, off := range d.Offsets {
					compute += m.Params.RowOverheadCycles // per-diagonal loop setup
					base := p * d.Rows
					rLo, rHi := lo, hi
					if off < 0 && int(-off) > rLo {
						rLo = int(-off)
					}
					if over := d.Rows + int(off) - d.Cols; over > 0 && d.Rows-over < rHi {
						rHi = d.Rows - over
					}
					for i := rLo; i < rHi; i++ {
						if addr := layVal + 8*uint64(base+i); valS.crossing(addr) {
							pr.probe(addr, false)
						}
						if addr := layX + 8*uint64(i+int(off)); xS.crossing(addr) {
							pr.probe(addr, false)
						}
						if addr := layY + 8*uint64(i); yS.crossing(addr) {
							pr.probe(addr, true)
						}
						y[i] += d.Val[base+i] * x[i+int(off)]
						compute += m.Params.NNZComputeCycles
						nnz++
					}
				}
				return compute, nnz
			},
		}
	})
}

// RunHYB simulates y = A·x over hybrid ELL+COO storage: the ELL slab walks
// like RunELL, and the COO tail streams its I/J/V arrays with scattered x
// reads and y read-modify-writes - the price of the overflow path.
func (m *Machine) RunHYB(hyb *sparse.HYB, ues int) (*Result, error) {
	return m.runFormat(ues, func() kernel {
		e, tail := hyb.ELL, hyb.Tail
		l := ellLayoutFor(e)
		tailN := uint64(tail.NNZ())
		layTI := align(l.y + 8*uint64(e.Rows))
		layTJ := align(layTI + 4*tailN)
		layTV := align(layTJ + 4*tailN)
		x, y := ones(e.Cols), make([]float64, e.Rows)
		// Tail triplets are appended row-major, so one forward scan splits
		// them by owning row range.
		tailLo := make([]int, ues+1)
		for rank, p := 0, 0; rank < ues; rank++ {
			_, hi := share(e.Rows, rank, ues)
			for p < tail.NNZ() && int(tail.I[p]) < hi {
				p++
			}
			tailLo[rank+1] = p
		}
		return kernel{
			name: hyb.Name, y: y, nnz: hyb.NNZ(), rows: evenRows(e.Rows, ues),
			body: func(rank int, pr *hierProber, _ bool) (float64, int) {
				lo, hi := share(e.Rows, rank, ues)
				compute, nnz := m.ellPass(e, l, x, y, pr, lo, hi)
				var tiS, tjS, tvS stream
				for p := tailLo[rank]; p < tailLo[rank+1]; p++ {
					if addr := layTI + 4*uint64(p); tiS.crossing(addr) {
						pr.probe(addr, false)
					}
					if addr := layTJ + 4*uint64(p); tjS.crossing(addr) {
						pr.probe(addr, false)
					}
					if addr := layTV + 8*uint64(p); tvS.crossing(addr) {
						pr.probe(addr, false)
					}
					i, j := tail.I[p], tail.J[p]
					pr.probe(l.x+8*uint64(j), false)
					pr.probe(l.y+8*uint64(i), true)
					y[i] += tail.V[p] * x[j]
					compute += m.Params.NNZComputeCycles
					nnz++
				}
				return compute, nnz
			},
		}
	})
}

// RunCacheBlocked simulates the cache-blocked (column-banded) CSR SpMV:
// each core processes its row partition one column band at a time, so the
// active x window is at most 8·bandCols bytes. The gain is x locality for
// scattered matrices; the cost is re-walking the row structure (ptr, y
// read-modify-write) once per non-empty band.
func (m *Machine) RunCacheBlocked(a *sparse.CSR, bandCols, ues int) (*Result, error) {
	if bandCols <= 0 {
		return nil, fmt.Errorf("sim: bandCols %d must be positive", bandCols)
	}
	return m.runFormat(ues, func() kernel {
		bands := sparse.ColumnBands(a, bandCols)
		parts := partition.ByNNZ(a, ues)
		// Each band gets its own ptr/index/val arrays; x and y are shared
		// across bands.
		type bandLay struct{ ptr, index, val uint64 }
		lays := make([]bandLay, len(bands))
		cursor := layoutBase
		for bi, b := range bands {
			lays[bi].ptr = cursor
			lays[bi].index = align(lays[bi].ptr + 4*uint64(a.Rows+1))
			lays[bi].val = align(lays[bi].index + 4*uint64(b.NNZ()))
			cursor = align(lays[bi].val + 8*uint64(b.NNZ()))
		}
		layX := cursor
		layY := align(layX + 8*uint64(a.Cols))
		x, y := ones(a.Cols), make([]float64, a.Rows)
		return kernel{
			name: a.Name, y: y, nnz: a.NNZ(),
			rows: func(rank int) int { return len(parts[rank]) },
			body: func(rank int, pr *hierProber, _ bool) (compute float64, nnz int) {
				rows := parts[rank]
				for _, ri := range rows {
					y[ri] = 0
				}
				for bi, b := range bands {
					if b.NNZ() == 0 {
						continue
					}
					var ptrS, idxS, valS, yS stream
					for _, ri := range rows {
						i := int(ri)
						lo, hi := b.Ptr[i], b.Ptr[i+1]
						if lo == hi {
							continue // skipped rows still cost the ptr walk
						}
						compute += m.Params.RowOverheadCycles
						if addr := lays[bi].ptr + 4*uint64(i); ptrS.crossing(addr) {
							pr.probe(addr, false)
						}
						var t float64
						for k := lo; k < hi; k++ {
							if addr := lays[bi].index + 4*uint64(k); idxS.crossing(addr) {
								pr.probe(addr, false)
							}
							if addr := lays[bi].val + 8*uint64(k); valS.crossing(addr) {
								pr.probe(addr, false)
							}
							pr.probe(layX+8*uint64(b.Index[k]), false)
							t += b.Val[k] * x[b.Index[k]]
							compute += m.Params.NNZComputeCycles
							nnz++
						}
						y[i] += t
						if addr := layY + 8*uint64(i); yS.crossing(addr) {
							pr.probe(addr, true)
						}
					}
				}
				return compute, nnz
			},
		}
	})
}
