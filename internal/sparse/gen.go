package sparse

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// This file provides deterministic synthetic pattern generators. The paper
// runs on 32 matrices from the University of Florida collection; those files
// are not available offline, so the testbed (testbed.go) reconstructs each
// matrix from its published statistics using one of the pattern classes
// below. The classes capture the structural properties the paper's analysis
// depends on: locality of the column pattern (x-access reuse), row-length
// distribution (loop overhead) and total working-set size.

// PatternClass names a generator family.
type PatternClass string

const (
	// PatternStencil2D is a 5-point (or wider) finite-difference grid:
	// highly local column pattern, near-constant row length.
	PatternStencil2D PatternClass = "stencil2d"
	// PatternStencil3D is a 3D grid stencil: local but with three
	// diagonal bands spaced a plane apart.
	PatternStencil3D PatternClass = "stencil3d"
	// PatternBanded scatters entries uniformly inside a fixed band
	// around the diagonal: moderate locality.
	PatternBanded PatternClass = "banded"
	// PatternRandom scatters entries uniformly over the whole row:
	// worst-case locality for x accesses.
	PatternRandom PatternClass = "random"
	// PatternPowerLaw draws column targets from a Zipf-like
	// distribution with heavy-tailed row lengths: scale-free graphs,
	// linear programming and circuit matrices.
	PatternPowerLaw PatternClass = "powerlaw"
	// PatternBlock places dense blocks along the diagonal with sparse
	// random coupling between blocks: multi-body / FEM substructures.
	PatternBlock PatternClass = "block"
)

// Gen describes a synthetic matrix to generate.
type Gen struct {
	Name  string
	Class PatternClass
	// N is the matrix dimension (square matrices, like the testbed).
	N int
	// NNZTarget is the approximate number of nonzeros to produce. The
	// generators land within a few percent; exact counts depend on the
	// class (stencil boundaries, duplicate suppression).
	NNZTarget int
	// Bandwidth bounds |i-j| for PatternBanded (0 means N/8).
	Bandwidth int
	// BlockSize is the dense block edge for PatternBlock (0 means 64).
	BlockSize int
	// Seed makes generation deterministic.
	Seed int64
}

// Generate builds the matrix described by g.
func Generate(g Gen) *CSR {
	if g.N <= 0 {
		panic("sparse: Generate requires N > 0")
	}
	rng := rand.New(rand.NewSource(g.Seed))
	var m *CSR
	switch g.Class {
	case PatternStencil2D:
		m = genStencil2D(g, rng)
	case PatternStencil3D:
		m = genStencil3D(g, rng)
	case PatternBanded:
		m = genBanded(g, rng)
	case PatternRandom:
		m = genRandom(g, rng)
	case PatternPowerLaw:
		m = genPowerLaw(g, rng)
	case PatternBlock:
		m = genBlock(g, rng)
	default:
		panic(fmt.Sprintf("sparse: unknown pattern class %q", g.Class))
	}
	m.Name = g.Name
	// The matrix cache budgets by SizeBytes, so hand back arrays of
	// exactly their length. A stencil builder reserves its exact count; the
	// other classes reserve a bound, and their arrays are copied down.
	if cap(m.Index) != len(m.Index) {
		m.Index = slices.Clone(m.Index)
		m.Val = slices.Clone(m.Val)
	}
	m.Index, m.Val = slices.Clip(m.Index), slices.Clip(m.Val)
	return m
}

// rowBuilder accumulates one row's columns, deduplicates and emits CSR.
type rowBuilder struct {
	m    *CSR
	cols []int32
	set  []uint64 // column bitset of the row being flushed; all zero between rows
	rng  *rand.Rand
}

// bitsetWordsPerCol bounds the bitset path of flushRow: a row whose column
// span covers at most this many 64-bit words per pending column is ordered
// by the bitset, any other row by a sort, so a row costs O(len) or
// O(len log len), never O(n). Per column, on rows of 8 to 128 random
// columns, the bitset is no slower than slices.Sort up to 4 words per
// column; past that the shortest rows sort faster.
const bitsetWordsPerCol = 4

func newRowBuilder(n, capHint int, rng *rand.Rand) *rowBuilder {
	return &rowBuilder{
		m: &CSR{
			Rows: n, Cols: n,
			Ptr:   make([]int32, 1, n+1),
			Index: make([]int32, 0, capHint),
			Val:   make([]float64, 0, capHint),
		},
		rng: rng,
	}
}

// flushRow appends the pending columns as the next row, unique and in
// ascending order, drawing one uniform (-1, 1) value per column in that
// order. A row whose column span is dense enough is ordered by setting one
// bit per column in a bitset over [lo, hi] and reading the words back;
// other rows are sorted and deduplicated. Either way the emission order,
// and so the sequence of rng draws, is that of a sort. When the row holds
// its diagonal, that entry's value is replaced by the row length plus one,
// a dominant diagonal that keeps the matrices usable in iterative solvers.
func (b *rowBuilder) flushRow(row int) {
	start := len(b.m.Index)
	diag := -1
	if len(b.cols) > 0 {
		lo, hi := b.cols[0], b.cols[0]
		for _, c := range b.cols[1:] {
			lo, hi = min(lo, c), max(hi, c)
		}
		if words := int(hi-lo)>>6 + 1; words <= bitsetWordsPerCol*len(b.cols) {
			if len(b.set) < words {
				b.set = make([]uint64, words)
			}
			set := b.set[:words]
			for _, c := range b.cols {
				off := c - lo
				set[off>>6] |= 1 << (off & 63)
			}
			for w, word := range set {
				if word == 0 {
					continue
				}
				set[w] = 0
				base := lo + int32(w<<6)
				for word != 0 {
					c := base + int32(bits.TrailingZeros64(word))
					word &= word - 1
					if int(c) == row {
						diag = len(b.m.Index)
					}
					b.emit(c)
				}
			}
		} else {
			slices.Sort(b.cols)
			prev := int32(-1)
			for _, c := range b.cols {
				if c == prev {
					continue
				}
				prev = c
				if int(c) == row {
					diag = len(b.m.Index)
				}
				b.emit(c)
			}
		}
	}
	if diag >= 0 {
		b.m.Val[diag] = float64(len(b.m.Val)-start) + 1
	}
	b.m.Ptr = append(b.m.Ptr, int32(len(b.m.Val)))
	b.cols = b.cols[:0]
}

// emit appends column c to the row being flushed with a value uniform in
// (-1, 1).
func (b *rowBuilder) emit(c int32) {
	b.m.Index = append(b.m.Index, c)
	b.m.Val = append(b.m.Val, b.rng.Float64()*2-1)
}

func (b *rowBuilder) add(col int) {
	if col >= 0 && col < b.m.Cols {
		b.cols = append(b.cols, int32(col))
	}
}

// genStencil2D lays the rows of a sqrt(N) x sqrt(N) grid. The stencil width
// grows until the nnz target is met: 5-point, 9-point, 13-point, ...
func genStencil2D(g Gen, rng *rand.Rand) *CSR {
	side := int(math.Round(math.Sqrt(float64(g.N))))
	if side < 1 {
		side = 1
	}
	n := g.N
	want := float64(g.NNZTarget) / float64(n) // target row length
	// Ring radius r gives roughly 1 + 4r points (von Neumann ring sum).
	radius := int(math.Max(1, math.Round((want-1)/4)))
	b := newRowBuilder(n, stencilNNZ(n, side, radius, false), rng)
	for i := 0; i < n; i++ {
		x := i % side
		b.add(i)
		for r := 1; r <= radius; r++ {
			if x-r >= 0 {
				b.add(i - r)
			}
			if x+r < side {
				b.add(i + r)
			}
			b.add(i - r*side)
			b.add(i + r*side)
		}
		b.flushRow(i)
	}
	return b.m
}

// stencilNNZ is the exact entry count of genStencil2D's grid (genStencil3D's
// with threeD) for n rows of side columns and the given radius. A row holds
// its diagonal and its in-range neighbours: i±r within its grid row, i±r·side
// and, in 3D, i±r·side². No in-row neighbour lands on another's column, but
// in 3D the plane neighbour i±k·side² is also the column neighbour at
// distance k·side when k·side <= radius, and counts once.
func stencilNNZ(n, side, radius int, threeD bool) int {
	total := 0
	for i := 0; i < n; i++ {
		x := i % side
		row := 1 + min(radius, x) + min(radius, side-1-x, n-1-i) + min(radius, i/side) + min(radius, (n-1-i)/side)
		if threeD {
			plane := side * side
			down, up := min(radius, i/plane), min(radius, (n-1-i)/plane)
			row += down + up - min(down, radius/side) - min(up, radius/side)
		}
		total += row
	}
	return total
}

// genStencil3D lays the rows of a cbrt(N)^3 grid with a cross stencil in
// three dimensions, widened to meet the nnz target.
func genStencil3D(g Gen, rng *rand.Rand) *CSR {
	side := int(math.Round(math.Cbrt(float64(g.N))))
	if side < 1 {
		side = 1
	}
	plane := side * side
	n := g.N
	want := float64(g.NNZTarget) / float64(n)
	radius := int(math.Max(1, math.Round((want-1)/6)))
	b := newRowBuilder(n, stencilNNZ(n, side, radius, true), rng)
	for i := 0; i < n; i++ {
		x := i % side
		b.add(i)
		for r := 1; r <= radius; r++ {
			if x-r >= 0 {
				b.add(i - r)
			}
			if x+r < side {
				b.add(i + r)
			}
			b.add(i - r*side)
			b.add(i + r*side)
			b.add(i - r*plane)
			b.add(i + r*plane)
		}
		b.flushRow(i)
	}
	return b.m
}

// genBanded scatters row entries uniformly within the band plus the diagonal.
func genBanded(g Gen, rng *rand.Rand) *CSR {
	n := g.N
	bw := g.Bandwidth
	if bw <= 0 {
		bw = n / 8
	}
	if bw < 1 {
		bw = 1
	}
	perRow := g.NNZTarget / n
	if perRow < 1 {
		perRow = 1
	}
	b := newRowBuilder(n, n*perRow, rng) // perRow columns a row, before duplicates
	for i := 0; i < n; i++ {
		b.add(i)
		lo, hi := i-bw, i+bw
		if lo < 0 {
			lo = 0
		}
		if hi >= n {
			hi = n - 1
		}
		span := hi - lo + 1
		for k := 0; k < perRow-1; k++ {
			b.add(lo + rng.Intn(span))
		}
		b.flushRow(i)
	}
	return b.m
}

// genRandom scatters entries uniformly over the entire row.
func genRandom(g Gen, rng *rand.Rand) *CSR {
	n := g.N
	perRow := g.NNZTarget / n
	if perRow < 1 {
		perRow = 1
	}
	b := newRowBuilder(n, n*perRow, rng) // perRow columns a row, before duplicates
	for i := 0; i < n; i++ {
		b.add(i)
		for k := 0; k < perRow-1; k++ {
			b.add(rng.Intn(n))
		}
		b.flushRow(i)
	}
	return b.m
}

// genPowerLaw draws both row lengths and column targets from heavy-tailed
// distributions, producing scale-free connectivity.
func genPowerLaw(g Gen, rng *rand.Rand) *CSR {
	n := g.N
	mean := float64(g.NNZTarget) / float64(n)
	// Row length ~ Pareto with the requested mean; clamp to [1, n].
	alpha := 2.2
	// The mean of Pareto(alpha, xm) is xm*alpha/(alpha-1); solve for xm.
	xm := mean * (alpha - 1) / alpha
	if xm < 1 {
		xm = 1
	}
	// Row lengths are drawn as the rows are built, so no bound is known up
	// front: reserve the target, and let a longer draw grow the arrays.
	b := newRowBuilder(n, g.NNZTarget+n, rng)
	for i := 0; i < n; i++ {
		u := rng.Float64()
		l := int(xm / math.Pow(1-u, 1/alpha))
		if l < 1 {
			l = 1
		}
		if l > n {
			l = n
		}
		b.add(i)
		for k := 0; k < l-1; k++ {
			// Zipf-like hub preference: square the uniform draw to
			// bias toward low-numbered columns (the hubs).
			u := rng.Float64()
			b.add(int(u * u * float64(n)))
		}
		b.flushRow(i)
	}
	return b.m
}

// genBlock places dense blocks along the diagonal plus sparse random
// inter-block coupling (roughly 10% of the nonzeros).
func genBlock(g Gen, rng *rand.Rand) *CSR {
	n := g.N
	bs := g.BlockSize
	if bs <= 0 {
		bs = 64
	}
	if bs > n {
		bs = n
	}
	// Dense diagonal blocks contribute about n*bs entries; shrink the
	// block fill to hit the target when that overshoots.
	fill := 0.9 * float64(g.NNZTarget) / (float64(n) * float64(bs))
	if fill > 1 {
		fill = 1
	}
	coupling := g.NNZTarget / 10
	perRowCoupling := coupling / n
	// A row draws at most its block's columns and its coupling columns;
	// a sparse block fill stays near the target.
	b := newRowBuilder(n, min(n*(bs+perRowCoupling), g.NNZTarget+n), rng)
	for i := 0; i < n; i++ {
		blk := i / bs
		lo := blk * bs
		hi := lo + bs
		if hi > n {
			hi = n
		}
		b.add(i)
		for j := lo; j < hi; j++ {
			if j != i && rng.Float64() < fill {
				b.add(j)
			}
		}
		for k := 0; k < perRowCoupling; k++ {
			b.add(rng.Intn(n))
		}
		b.flushRow(i)
	}
	return b.m
}

// Identity returns the n x n identity matrix.
func Identity(n int) *CSR {
	m := &CSR{
		Name: fmt.Sprintf("eye%d", n),
		Rows: n, Cols: n,
		Ptr:   make([]int32, n+1),
		Index: make([]int32, n),
		Val:   make([]float64, n),
	}
	for i := 0; i < n; i++ {
		m.Ptr[i+1] = int32(i + 1)
		m.Index[i] = int32(i)
		m.Val[i] = 1
	}
	return m
}

// Laplacian2D returns the standard 5-point Laplacian on a side x side grid:
// the canonical symmetric positive definite test matrix for the CG example.
func Laplacian2D(side int) *CSR {
	n := side * side
	m := &CSR{
		Name: fmt.Sprintf("laplace2d_%d", side),
		Rows: n, Cols: n,
		Ptr: make([]int32, 1, n+1),
	}
	for i := 0; i < n; i++ {
		x, y := i%side, i/side
		type e struct {
			c int32
			v float64
		}
		var row []e
		if y > 0 {
			row = append(row, e{int32(i - side), -1})
		}
		if x > 0 {
			row = append(row, e{int32(i - 1), -1})
		}
		row = append(row, e{int32(i), 4})
		if x < side-1 {
			row = append(row, e{int32(i + 1), -1})
		}
		if y < side-1 {
			row = append(row, e{int32(i + side), -1})
		}
		for _, en := range row {
			m.Index = append(m.Index, en.c)
			m.Val = append(m.Val, en.v)
		}
		m.Ptr = append(m.Ptr, int32(len(m.Val)))
	}
	return m
}
