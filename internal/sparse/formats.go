package sparse

import "fmt"

// This file holds two of the alternative storage formats used by the format
// ablation (DESIGN.md, abl-fmt): ELLPACK and blocked CSR (DIA and HYB are in
// diahyb.go). The paper itself evaluates plain CSR; these formats quantify
// how much of its conclusions are format-specific.

// ELL is the ELLPACK format: every row is padded to the same width K and the
// columns/values are stored in row-major KxRows rectangles. It trades padding
// waste for a regular access pattern (the format GPUs favour; cf. the
// Bell & Garland kernels the paper uses for its Tesla numbers).
type ELL struct {
	Name       string
	Rows, Cols int
	// K is the padded row width (max nonzeros in any row).
	K int
	// Index and Val are Rows*K entries; slot (i, s) lives at i*K+s.
	// Padding slots have Index = -1 and Val = 0.
	Index []int32
	Val   []float64
}

// ToELL converts a CSR matrix to ELLPACK. It returns an error when the
// padding would exceed maxExpand times the original nonzero count, which is
// how callers detect power-law matrices for which ELL is hopeless.
func ToELL(m *CSR, maxExpand float64) (*ELL, error) {
	k := 0
	for i := 0; i < m.Rows; i++ {
		if w := m.RowNNZ(i); w > k {
			k = w
		}
	}
	padded := float64(k) * float64(m.Rows)
	if nnz := float64(m.NNZ()); nnz > 0 && padded > maxExpand*nnz {
		return nil, fmt.Errorf("sparse: ELL padding %.0f exceeds %.1fx nnz=%.0f", padded, maxExpand, nnz)
	}
	e := &ELL{
		Name:  m.Name,
		Rows:  m.Rows,
		Cols:  m.Cols,
		K:     k,
		Index: make([]int32, m.Rows*k),
		Val:   make([]float64, m.Rows*k),
	}
	for i := range e.Index {
		e.Index[i] = -1
	}
	for i := 0; i < m.Rows; i++ {
		base := i * k
		for s, p := 0, m.Ptr[i]; p < m.Ptr[i+1]; s, p = s+1, p+1 {
			e.Index[base+s] = m.Index[p]
			e.Val[base+s] = m.Val[p]
		}
	}
	return e, nil
}

// NNZ returns the number of non-padding entries.
func (e *ELL) NNZ() int {
	n := 0
	for _, c := range e.Index {
		if c >= 0 {
			n++
		}
	}
	return n
}

// MulVec computes y = A·x over the padded storage.
func (e *ELL) MulVec(y, x []float64) {
	if len(x) != e.Cols || len(y) != e.Rows {
		panic("sparse: ELL MulVec dimension mismatch")
	}
	for i := 0; i < e.Rows; i++ {
		var t float64
		base := i * e.K
		for s := 0; s < e.K; s++ {
			c := e.Index[base+s]
			if c < 0 {
				break // rows are packed left-to-right; first pad ends the row
			}
			t += e.Val[base+s] * x[c]
		}
		y[i] = t
	}
}

// BCSR is a blocked CSR matrix with fixed R x C dense blocks. Register
// blocking is one of the Williams et al. optimisations the paper's related
// work discusses; the ablation measures whether it pays off on the SCC model.
type BCSR struct {
	Name       string
	Rows, Cols int
	R, C       int
	// BRows is the number of block rows: ceil(Rows/R).
	BRows int
	// Ptr has BRows+1 entries delimiting the block rows.
	Ptr []int32
	// BIndex holds the block-column index of each stored block.
	BIndex []int32
	// Val holds R*C values per block, row-major within the block.
	Val []float64
}

// ToBCSR converts a CSR matrix to BCSR with r x c blocks, filling explicit
// zeros inside partially populated blocks.
func ToBCSR(m *CSR, r, c int) *BCSR {
	if r <= 0 || c <= 0 {
		panic("sparse: ToBCSR requires positive block dimensions")
	}
	bRows := (m.Rows + r - 1) / r
	bCols := (m.Cols + c - 1) / c
	b := &BCSR{
		Name: m.Name, Rows: m.Rows, Cols: m.Cols,
		R: r, C: c, BRows: bRows,
		Ptr: make([]int32, bRows+1),
	}
	// Per block row: find the set of populated block columns, then fill.
	seen := make([]int32, bCols) // generation-stamped presence marks
	gen := int32(0)
	cols := make([]int32, 0, 64)
	for br := 0; br < bRows; br++ {
		gen++
		cols = cols[:0]
		rowLo, rowHi := br*r, min(br*r+r, m.Rows)
		for i := rowLo; i < rowHi; i++ {
			for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
				bc := m.Index[k] / int32(c)
				if seen[bc] != gen {
					seen[bc] = gen
					cols = append(cols, bc)
				}
			}
		}
		// CSR columns ascend within a row but block columns can interleave
		// across the rows of the block; sort for deterministic layout.
		insertionSortInt32(cols)
		base := len(b.BIndex)
		b.BIndex = append(b.BIndex, cols...)
		b.Val = append(b.Val, make([]float64, len(cols)*r*c)...)
		// Position of each block column within this block row.
		pos := make(map[int32]int, len(cols))
		for p, bc := range cols {
			pos[bc] = base + p
		}
		for i := rowLo; i < rowHi; i++ {
			ri := i - rowLo
			for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
				col := m.Index[k]
				blk := pos[col/int32(c)]
				cj := int(col) % c
				b.Val[blk*r*c+ri*c+cj] = m.Val[k]
			}
		}
		b.Ptr[br+1] = b.Ptr[br] + int32(len(cols))
	}
	return b
}

// Blocks returns the number of stored blocks.
func (b *BCSR) Blocks() int { return len(b.BIndex) }

// FillRatio returns stored values (including explicit zeros) divided by the
// original nonzero count - the register-blocking expansion factor.
func (b *BCSR) FillRatio(origNNZ int) float64 {
	if origNNZ == 0 {
		return 0
	}
	return float64(len(b.Val)) / float64(origNNZ)
}

// MulVec computes y = A·x block by block.
func (b *BCSR) MulVec(y, x []float64) {
	if len(x) != b.Cols || len(y) != b.Rows {
		panic("sparse: BCSR MulVec dimension mismatch")
	}
	for i := range y {
		y[i] = 0
	}
	rc := b.R * b.C
	for br := 0; br < b.BRows; br++ {
		rowLo := br * b.R
		for p := b.Ptr[br]; p < b.Ptr[br+1]; p++ {
			colLo := int(b.BIndex[p]) * b.C
			blk := b.Val[int(p)*rc : int(p)*rc+rc]
			for ri := 0; ri < b.R; ri++ {
				i := rowLo + ri
				if i >= b.Rows {
					break
				}
				t := y[i]
				for cj := 0; cj < b.C; cj++ {
					j := colLo + cj
					if j >= b.Cols {
						break
					}
					t += blk[ri*b.C+cj] * x[j]
				}
				y[i] = t
			}
		}
	}
}

func insertionSortInt32(a []int32) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
