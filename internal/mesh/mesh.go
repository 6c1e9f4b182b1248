// Package mesh models the SCC's on-die interconnect: a 6x4 2D grid of
// routers (one per tile) using dimension-ordered X-then-Y routing. The
// timing model only needs hop counts: the SCC latency formula charges
// 4·2·C_mesh per hop.
package mesh

import "fmt"

// Coord is a router/tile coordinate on the grid; X grows rightward across
// the 6 columns, Y upward across the 4 rows.
type Coord struct {
	X, Y int
}

// String implements fmt.Stringer.
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Mesh is a W x H grid of routers.
type Mesh struct {
	W, H int
}

// New builds a W x H mesh. The SCC's is 6x4.
func New(w, h int) *Mesh {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("mesh: non-positive dimensions %dx%d", w, h))
	}
	return &Mesh{W: w, H: h}
}

// NewSCC returns the SCC's 6x4 mesh.
func NewSCC() *Mesh { return New(6, 4) }

// InBounds reports whether c is a valid coordinate.
func (m *Mesh) InBounds(c Coord) bool {
	return c.X >= 0 && c.X < m.W && c.Y >= 0 && c.Y < m.H
}

// Hops returns the Manhattan distance between two routers - the hop count
// XY routing traverses.
func (m *Mesh) Hops(a, b Coord) int {
	m.check(a)
	m.check(b)
	return abs(a.X-b.X) + abs(a.Y-b.Y)
}

func (m *Mesh) check(c Coord) {
	if !m.InBounds(c) {
		panic(fmt.Sprintf("mesh: coordinate %v outside %dx%d", c, m.W, m.H))
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
