package scc

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mesh"
)

// Geometry parameterises the chip layout the runtime simulates: an
// TilesX x TilesY mesh of tiles with CoresPerTile cores each and four
// memory controllers on the periphery, generalising the real SCC's fixed
// 6x4x2 arrangement. The zero value means "the real chip" everywhere a
// Geometry is accepted, so existing callers keep the paper's hardware
// without writing anything.
//
// The package-level constants and functions (TilesX, Controllers,
// HopsToMC, StandardMapping, ...) stay the authority for the real chip;
// Geometry reproduces them exactly when it equals DefaultGeometry (a
// property pinned by tests). Custom geometries exist for the
// discrete-event RCCE backend's beyond-the-hardware scaling studies
// (8x8, 16x16, 32x32 meshes), where the mesh distances still follow the
// SCC's quadrant rules but the chip never existed.
type Geometry struct {
	// TilesX and TilesY are the mesh dimensions in tiles.
	TilesX, TilesY int
	// CoresPerTile is the number of cores sharing each tile router.
	CoresPerTile int
}

// DefaultGeometry returns the real SCC: 6x4 tiles, 2 cores per tile.
func DefaultGeometry() Geometry {
	return Geometry{TilesX: TilesX, TilesY: TilesY, CoresPerTile: CoresPerTile}
}

// IsZero reports whether g is the zero value (meaning "default chip").
func (g Geometry) IsZero() bool { return g == Geometry{} }

// OrDefault returns g, or the real chip's geometry when g is zero.
func (g Geometry) OrDefault() Geometry {
	if g.IsZero() {
		return DefaultGeometry()
	}
	return g
}

// maxGeometryCores bounds custom geometries so a typo'd mesh cannot ask
// the runtime for millions of UEs.
const maxGeometryCores = 1 << 16

// Validate checks that the mesh is well formed: at least 2x2 tiles (the
// four quadrant memory controllers need distinct corners), at least one
// core per tile, and a bounded total core count. Each dimension is
// bounded before the product is formed, so a huge mesh cannot wrap
// NumCores into range.
func (g Geometry) Validate() error {
	if g.TilesX < 2 || g.TilesY < 2 {
		return fmt.Errorf("scc: geometry %s needs at least a 2x2 tile mesh", g)
	}
	if g.CoresPerTile < 1 {
		return fmt.Errorf("scc: geometry %s needs at least one core per tile", g)
	}
	if g.TilesX > maxGeometryCores || g.TilesY > maxGeometryCores || g.CoresPerTile > maxGeometryCores {
		return fmt.Errorf("scc: geometry %s has a dimension above the %d-core limit", g, maxGeometryCores)
	}
	if n := int64(g.TilesX) * int64(g.TilesY) * int64(g.CoresPerTile); n > maxGeometryCores {
		return fmt.Errorf("scc: geometry %s has %d cores, above the %d limit", g, n, maxGeometryCores)
	}
	return nil
}

// NumTiles returns the tile count.
func (g Geometry) NumTiles() int { return g.TilesX * g.TilesY }

// NumCores returns the total core count.
func (g Geometry) NumCores() int { return g.NumTiles() * g.CoresPerTile }

// TileOf returns the tile index hosting the core (cores are numbered
// consecutively within a tile, like the SCC's default numbering).
func (g Geometry) TileOf(c CoreID) int { return int(c) / g.CoresPerTile }

// TileCoord returns a tile's mesh coordinate (row-major from the
// bottom-left corner, like TileID.Coord on the real chip).
func (g Geometry) TileCoord(tile int) mesh.Coord {
	return mesh.Coord{X: tile % g.TilesX, Y: tile / g.TilesX}
}

// CoreCoord returns the mesh coordinate of the core's tile router.
func (g Geometry) CoreCoord(c CoreID) mesh.Coord { return g.TileCoord(g.TileOf(c)) }

// Controllers returns the four memory controllers in ID order, placed
// like the real chip's: on the left and right mesh edges, at row 0 and
// row TilesY/2 (MC0 bottom-left, MC1 bottom-right, MC2 upper-left, MC3
// upper-right). For the default geometry this is exactly Controllers().
func (g Geometry) Controllers() [NumControllers]MemController {
	return [NumControllers]MemController{
		{ID: 0, Coord: mesh.Coord{X: 0, Y: 0}},
		{ID: 1, Coord: mesh.Coord{X: g.TilesX - 1, Y: 0}},
		{ID: 2, Coord: mesh.Coord{X: 0, Y: g.TilesY / 2}},
		{ID: 3, Coord: mesh.Coord{X: g.TilesX - 1, Y: g.TilesY / 2}},
	}
}

// ControllerFor returns the controller serving the core's private memory
// under the quadrant assignment the real chip uses: the mesh splits into
// four quadrants at TilesX/2 and TilesY/2, each served by its corner
// controller.
func (g Geometry) ControllerFor(c CoreID) MemController {
	if int(c) < 0 || int(c) >= g.NumCores() {
		panic(fmt.Sprintf("scc: invalid core %d for geometry %s", c, g))
	}
	pos := g.CoreCoord(c)
	idx := 0
	if pos.X >= g.TilesX/2 {
		idx++
	}
	if pos.Y >= g.TilesY/2 {
		idx += 2
	}
	return g.Controllers()[idx]
}

// HopsToMC returns the mesh hop count between the core's router and its
// quadrant memory controller's router.
func (g Geometry) HopsToMC(c CoreID) int {
	mc := g.ControllerFor(c)
	pos := g.CoreCoord(c)
	return abs(pos.X-mc.Coord.X) + abs(pos.Y-mc.Coord.Y)
}

// MaxPossibleHops returns the largest core-to-controller distance any
// core of the mesh can have (the deepest corner of a quadrant).
func (g Geometry) MaxPossibleHops() int {
	best := 0
	for c := 0; c < g.NumCores(); c += g.CoresPerTile {
		if h := g.HopsToMC(CoreID(c)); h > best {
			best = h
		}
	}
	return best
}

// StandardMapping is the RCCE default on this geometry: ranks 0..n-1 on
// cores 0..n-1.
func (g Geometry) StandardMapping(n int) Mapping {
	m := make(Mapping, n)
	for i := range m {
		m[i] = CoreID(i)
	}
	return m
}

// DistanceReductionMapping generalises the paper's placement policy to
// this geometry: fill distance level by distance level, round-robining
// the four controllers within a level (one tile's worth of cores at a
// time) and taking cores in ascending id order within a controller. On
// the default geometry it reproduces DistanceReductionMapping exactly.
func (g Geometry) DistanceReductionMapping(n int) Mapping {
	levels := g.MaxPossibleHops() + 1
	perMC := make([][][]CoreID, NumControllers) // [mc][hops][]cores
	for mc := 0; mc < NumControllers; mc++ {
		perMC[mc] = make([][]CoreID, levels)
	}
	for c := CoreID(0); int(c) < g.NumCores(); c++ {
		mc := g.ControllerFor(c).ID
		h := g.HopsToMC(c)
		perMC[mc][h] = append(perMC[mc][h], c)
	}
	m := make(Mapping, 0, n)
	for h := 0; h < levels && len(m) < n; h++ {
		idx := [NumControllers]int{}
		for len(m) < n {
			progressed := false
			for mc := 0; mc < NumControllers && len(m) < n; mc++ {
				for take := 0; take < g.CoresPerTile && idx[mc] < len(perMC[mc][h]) && len(m) < n; take++ {
					m = append(m, perMC[mc][h][idx[mc]])
					idx[mc]++
					progressed = true
				}
			}
			if !progressed {
				break // level exhausted
			}
		}
	}
	return m
}

// ValidateMapping checks that the mapping uses valid, distinct cores of
// this geometry (the geometry-aware form of Mapping.Validate).
func (g Geometry) ValidateMapping(m Mapping) error {
	if len(m) == 0 || len(m) > g.NumCores() {
		return fmt.Errorf("scc: mapping size %d outside [1, %d] for geometry %s", len(m), g.NumCores(), g)
	}
	seen := map[CoreID]bool{}
	for rank, c := range m {
		if int(c) < 0 || int(c) >= g.NumCores() {
			return fmt.Errorf("scc: rank %d mapped to invalid core %d for geometry %s", rank, c, g)
		}
		if seen[c] {
			return fmt.Errorf("scc: core %d mapped twice", c)
		}
		seen[c] = true
	}
	return nil
}

// MeanHops returns the average core-to-controller distance of the
// mapping under this geometry.
func (g Geometry) MeanHops(m Mapping) float64 {
	if len(m) == 0 {
		return 0
	}
	s := 0
	for _, c := range m {
		s += g.HopsToMC(c)
	}
	return float64(s) / float64(len(m))
}

// String renders the geometry as "TilesXxTilesYxCoresPerTile", the form
// ParseGeometry accepts (e.g. "6x4x2", "32x32x1").
func (g Geometry) String() string {
	return fmt.Sprintf("%dx%dx%d", g.TilesX, g.TilesY, g.CoresPerTile)
}

// ParseGeometry parses "XxYxC" (e.g. "16x16x2") into a validated
// Geometry. An empty string returns the zero Geometry, meaning "the
// real chip" to every consumer.
func ParseGeometry(s string) (Geometry, error) {
	if s == "" {
		return Geometry{}, nil
	}
	parts := strings.Split(s, "x")
	if len(parts) != 3 {
		return Geometry{}, fmt.Errorf("scc: geometry %q is not of the form XxYxC (e.g. 6x4x2)", s)
	}
	dims := make([]int, 3)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return Geometry{}, fmt.Errorf("scc: geometry %q is not of the form XxYxC (e.g. 6x4x2)", s)
		}
		dims[i] = v
	}
	g := Geometry{TilesX: dims[0], TilesY: dims[1], CoresPerTile: dims[2]}
	if err := g.Validate(); err != nil {
		return Geometry{}, err
	}
	return g, nil
}
