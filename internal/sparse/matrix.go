// Package sparse provides sparse-matrix storage formats, synthetic pattern
// generators, the paper's 32-matrix testbed, MatrixMarket-style I/O and
// reordering utilities.
//
// The central type is CSR, the Compressed-Sparse-Row format the paper's SpMV
// kernel operates on: the nonzeros of an n-row matrix are stored row-major in
// Val, Index holds each nonzero's column, and Ptr[i]..Ptr[i+1] delimits row i.
// Indices are 32-bit to match the paper's working-set accounting
// (4·((n+1)+nnz) + 8·(nnz+2n) bytes with 32-bit indexing and float64 data).
package sparse

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// CSR is a sparse matrix in Compressed-Sparse-Row format.
// The zero value is an empty 0x0 matrix.
type CSR struct {
	// Name identifies the matrix (testbed name or generator description).
	Name string
	// Rows and Cols are the matrix dimensions.
	Rows, Cols int
	// Ptr has Rows+1 entries; row i occupies Val[Ptr[i]:Ptr[i+1]].
	Ptr []int32
	// Index holds the column of each stored entry, ascending within a row.
	Index []int32
	// Val holds the stored values.
	Val []float64

	// contentKey memoises ContentKey: hashing every nonzero is O(nnz) and
	// geometry sweeps ask for the key once per cell. CSR values are shared
	// by pointer and treated as immutable once built, so the first computed
	// key stays valid for the matrix's lifetime.
	contentKey atomic.Pointer[string]
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// NNZPerRow returns the average number of stored entries per row.
func (m *CSR) NNZPerRow() float64 {
	if m.Rows == 0 {
		return 0
	}
	return float64(m.NNZ()) / float64(m.Rows)
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return int(m.Ptr[i+1] - m.Ptr[i]) }

// Row returns the column indices and values of row i. The slices alias the
// matrix storage and must not be modified.
func (m *CSR) Row(i int) ([]int32, []float64) {
	lo, hi := m.Ptr[i], m.Ptr[i+1]
	return m.Index[lo:hi], m.Val[lo:hi]
}

// SizeBytes returns the in-memory footprint of the CSR arrays (Ptr, Index,
// Val). Unlike WorkingSetBytes it excludes the dense x and y vectors: it
// prices what a matrix cache must keep resident.
func (m *CSR) SizeBytes() int64 {
	return 4*int64(len(m.Ptr)) + 4*int64(len(m.Index)) + 8*int64(len(m.Val))
}

// ContentKey returns a content-addressed identity of the matrix: a 64-bit
// hash over the dimensions and the Ptr/Index/Val arrays, rendered as a
// fixed-width hex string. Two structurally identical matrices share a key
// regardless of Name; any pattern or value difference changes it. It is
// the cache key the analytic-pricing profile store (internal/sim) uses to
// bind persisted stream profiles to exact matrix content. The first call
// hashes the arrays; later calls return the memoised key, relying on the
// convention that a CSR is immutable once handed out.
func (m *CSR) ContentKey() string {
	if k := m.contentKey.Load(); k != nil {
		return *k
	}
	k := m.hashContent()
	m.contentKey.Store(&k)
	return k
}

// hashContent hashes the matrix a 64-bit word at a time, two int32 entries
// to a word. Every step is a bijection of the state for a fixed word and of
// the word for a fixed state, so changing any one word of the input always
// changes the key.
func (m *CSR) hashContent() string {
	h := uint64(14695981039346656037) // FNV-1a's offset basis
	for _, v := range []int{m.Rows, m.Cols, len(m.Ptr), len(m.Index), len(m.Val)} {
		h = mixWord(h, uint64(v))
	}
	h = mixInt32s(h, m.Ptr)
	h = mixInt32s(h, m.Index)
	for _, v := range m.Val {
		h = mixWord(h, math.Float64bits(v))
	}
	return fmt.Sprintf("%016x", h)
}

// mixWord folds v into h: xor, a multiply by an odd constant, and an xor
// of the high half into the low half, so every bit of v reaches the low
// bits of the later state.
func mixWord(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// mixInt32s folds s into h two entries to a word.
func mixInt32s(h uint64, s []int32) uint64 {
	for len(s) >= 2 {
		h = mixWord(h, uint64(uint32(s[0]))|uint64(uint32(s[1]))<<32)
		s = s[2:]
	}
	if len(s) == 1 {
		h = mixWord(h, uint64(uint32(s[0])))
	}
	return h
}

// WorkingSetBytes returns the SpMV working set in bytes exactly as the paper
// computes it: 4·((n+1)+nnz) + 8·(nnz+2·n), i.e. 32-bit Ptr and Index arrays,
// float64 values, and the dense x and y vectors.
func (m *CSR) WorkingSetBytes() int64 {
	n := int64(m.Rows)
	nnz := int64(m.NNZ())
	return 4*((n+1)+nnz) + 8*(nnz+2*n)
}

// WorkingSetMB returns the working set in binary megabytes.
func (m *CSR) WorkingSetMB() float64 {
	return float64(m.WorkingSetBytes()) / (1 << 20)
}

// At returns the value at (i, j), or zero when (i, j) is not stored.
// It binary-searches the row and runs in O(log nnz(i)).
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		return 0
	}
	lo, hi := int(m.Ptr[i]), int(m.Ptr[i+1])
	for lo < hi {
		mid := (lo + hi) / 2
		switch c := int(m.Index[mid]); {
		case c == j:
			return m.Val[mid]
		case c < j:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return 0
}

// MulVec computes y = A·x with the paper's reference CSR kernel
// (Figure 2 of the paper). len(x) must be Cols and len(y) must be Rows.
func (m *CSR) MulVec(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic(fmt.Sprintf("sparse: MulVec dimension mismatch: matrix %dx%d, len(x)=%d, len(y)=%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		var t float64
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			t += m.Val[k] * x[m.Index[k]]
		}
		y[i] = t
	}
}

// MulVecRows computes y[lo:hi] = (A·x)[lo:hi] for the row range [lo, hi).
// It is the building block the row-partitioned parallel kernels use.
func (m *CSR) MulVecRows(y, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		var t float64
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			t += m.Val[k] * x[m.Index[k]]
		}
		y[i] = t
	}
}

// MulVecNoX computes the paper's "no x misses" kernel variant (Section IV-C):
// every reference to x reads x[0], eliminating the irregular access pattern
// while keeping the same flop count and the same traffic on Ptr, Index, Val
// and y. The numerical result is meaningless by design; the variant exists
// purely to isolate the cost of irregular accesses.
func (m *CSR) MulVecNoX(y, x []float64) {
	if len(x) != m.Cols || len(y) != m.Rows {
		panic("sparse: MulVecNoX dimension mismatch")
	}
	x0 := x[0]
	for i := 0; i < m.Rows; i++ {
		var t float64
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			t += m.Val[k] * x0
		}
		y[i] = t
	}
}

// Validate checks the structural invariants of the CSR format: monotone Ptr
// covering Val/Index exactly, in-range ascending column indices per row, and
// finite values. It returns a descriptive error for the first violation.
func (m *CSR) Validate() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimension %dx%d", m.Rows, m.Cols)
	}
	if len(m.Ptr) != m.Rows+1 {
		return fmt.Errorf("sparse: len(Ptr)=%d, want Rows+1=%d", len(m.Ptr), m.Rows+1)
	}
	if len(m.Index) != len(m.Val) {
		return fmt.Errorf("sparse: len(Index)=%d != len(Val)=%d", len(m.Index), len(m.Val))
	}
	if m.Ptr[0] != 0 {
		return fmt.Errorf("sparse: Ptr[0]=%d, want 0", m.Ptr[0])
	}
	if int(m.Ptr[m.Rows]) != len(m.Val) {
		return fmt.Errorf("sparse: Ptr[Rows]=%d, want nnz=%d", m.Ptr[m.Rows], len(m.Val))
	}
	for i := 0; i < m.Rows; i++ {
		if m.Ptr[i] > m.Ptr[i+1] {
			return fmt.Errorf("sparse: Ptr not monotone at row %d: %d > %d", i, m.Ptr[i], m.Ptr[i+1])
		}
		prev := int32(-1)
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			c := m.Index[k]
			if c < 0 || int(c) >= m.Cols {
				return fmt.Errorf("sparse: row %d has out-of-range column %d (Cols=%d)", i, c, m.Cols)
			}
			if c <= prev {
				return fmt.Errorf("sparse: row %d columns not strictly ascending at k=%d (%d after %d)", i, k, c, prev)
			}
			prev = c
			if math.IsNaN(m.Val[k]) || math.IsInf(m.Val[k], 0) {
				return fmt.Errorf("sparse: row %d col %d holds non-finite value %v", i, c, m.Val[k])
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		Name:  m.Name,
		Rows:  m.Rows,
		Cols:  m.Cols,
		Ptr:   make([]int32, len(m.Ptr)),
		Index: make([]int32, len(m.Index)),
		Val:   make([]float64, len(m.Val)),
	}
	copy(c.Ptr, m.Ptr)
	copy(c.Index, m.Index)
	copy(c.Val, m.Val)
	return c
}

// Transpose returns the transpose of the matrix, also in CSR.
// It runs in O(nnz + Rows + Cols) using a counting pass.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		Name:  m.Name + "^T",
		Rows:  m.Cols,
		Cols:  m.Rows,
		Ptr:   make([]int32, m.Cols+1),
		Index: make([]int32, m.NNZ()),
		Val:   make([]float64, m.NNZ()),
	}
	for _, c := range m.Index {
		t.Ptr[c+1]++
	}
	for j := 0; j < m.Cols; j++ {
		t.Ptr[j+1] += t.Ptr[j]
	}
	next := make([]int32, m.Cols)
	copy(next, t.Ptr[:m.Cols])
	for i := 0; i < m.Rows; i++ {
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			c := m.Index[k]
			p := next[c]
			t.Index[p] = int32(i)
			t.Val[p] = m.Val[k]
			next[c] = p + 1
		}
	}
	return t
}

// SymmetricPattern reports whether the nonzero pattern is structurally
// symmetric (a stored (i,j) implies a stored (j,i); values are not compared).
func (m *CSR) SymmetricPattern() bool {
	if m.Rows != m.Cols {
		return false
	}
	t := m.Transpose()
	for i := range m.Index {
		if m.Index[i] != t.Index[i] {
			return false
		}
	}
	for i := range m.Ptr {
		if m.Ptr[i] != t.Ptr[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two matrices have identical dimensions, pattern and
// values (exact float comparison).
func (m *CSR) Equal(o *CSR) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols || m.NNZ() != o.NNZ() {
		return false
	}
	for i := range m.Ptr {
		if m.Ptr[i] != o.Ptr[i] {
			return false
		}
	}
	for k := range m.Val {
		if m.Index[k] != o.Index[k] || m.Val[k] != o.Val[k] {
			return false
		}
	}
	return true
}

// ErrDimension reports incompatible dimensions in a matrix operation.
var ErrDimension = errors.New("sparse: dimension mismatch")
