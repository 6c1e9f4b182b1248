package scc

import (
	"testing"
)

// The zero/default Geometry must agree with the package-level fixed-chip
// functions on every core: same controllers, same hop counts, same
// mappings. This is the contract that lets callers pass a Geometry
// everywhere without changing the paper's results.
func TestDefaultGeometryMatchesFixedChip(t *testing.T) {
	g := Geometry{}.OrDefault()
	if err := g.Validate(); err != nil {
		t.Fatalf("default geometry invalid: %v", err)
	}
	if g.NumTiles() != NumTiles || g.NumCores() != NumCores {
		t.Fatalf("default geometry %s has %d tiles / %d cores, want %d / %d",
			g, g.NumTiles(), g.NumCores(), NumTiles, NumCores)
	}
	if g.Controllers() != Controllers() {
		t.Fatalf("controllers differ: %v vs %v", g.Controllers(), Controllers())
	}
	for c := CoreID(0); c < NumCores; c++ {
		if got, want := g.TileOf(c), int(c.Tile()); got != want {
			t.Fatalf("core %d: tile %d, want %d", c, got, want)
		}
		if got, want := g.CoreCoord(c), c.Coord(); got != want {
			t.Fatalf("core %d: coord %v, want %v", c, got, want)
		}
		if got, want := g.ControllerFor(c), ControllerFor(c); got != want {
			t.Fatalf("core %d: controller %v, want %v", c, got, want)
		}
		if got, want := g.HopsToMC(c), HopsToMC(c); got != want {
			t.Fatalf("core %d: hops %d, want %d", c, got, want)
		}
	}
	if got := g.MaxPossibleHops(); got != 3 {
		t.Fatalf("default max hops %d, want 3", got)
	}
	for n := 1; n <= NumCores; n++ {
		std, fixed := g.StandardMapping(n), StandardMapping(n)
		dr, fixedDR := g.DistanceReductionMapping(n), DistanceReductionMapping(n)
		for i := 0; i < n; i++ {
			if std[i] != fixed[i] {
				t.Fatalf("standard mapping n=%d rank %d: %d vs %d", n, i, std[i], fixed[i])
			}
			if dr[i] != fixedDR[i] {
				t.Fatalf("distance mapping n=%d rank %d: %d vs %d", n, i, dr[i], fixedDR[i])
			}
		}
		if err := g.ValidateMapping(dr); err != nil {
			t.Fatalf("distance mapping n=%d invalid: %v", n, err)
		}
		if got, want := g.MeanHops(dr), dr.MeanHops(); got != want {
			t.Fatalf("mean hops n=%d: %v vs %v", n, got, want)
		}
	}
}

func TestCustomGeometry(t *testing.T) {
	g := Geometry{TilesX: 32, TilesY: 32, CoresPerTile: 1}
	if err := g.Validate(); err != nil {
		t.Fatalf("32x32x1 invalid: %v", err)
	}
	if g.NumCores() != 1024 {
		t.Fatalf("32x32x1 has %d cores, want 1024", g.NumCores())
	}
	// Every core lands on a valid controller and the hop distance is
	// bounded by the quadrant diagonal.
	maxSeen := 0
	counts := map[int]int{}
	for c := CoreID(0); int(c) < g.NumCores(); c++ {
		mc := g.ControllerFor(c)
		if mc.ID < 0 || mc.ID >= NumControllers {
			t.Fatalf("core %d: controller %d out of range", c, mc.ID)
		}
		counts[mc.ID]++
		if h := g.HopsToMC(c); h > maxSeen {
			maxSeen = h
		}
	}
	if maxSeen != g.MaxPossibleHops() {
		t.Fatalf("max observed hops %d != MaxPossibleHops %d", maxSeen, g.MaxPossibleHops())
	}
	for id := 0; id < NumControllers; id++ {
		if counts[id] != g.NumCores()/NumControllers {
			t.Fatalf("controller %d serves %d cores, want %d", id, counts[id], g.NumCores()/NumControllers)
		}
	}
	// The distance mapping must be a valid permutation prefix with mean
	// hops no worse than the standard mapping.
	for _, n := range []int{1, 7, 64, 1024} {
		dr := g.DistanceReductionMapping(n)
		if len(dr) != n {
			t.Fatalf("distance mapping n=%d has %d entries", n, len(dr))
		}
		if err := g.ValidateMapping(dr); err != nil {
			t.Fatalf("distance mapping n=%d invalid: %v", n, err)
		}
		if g.MeanHops(dr) > g.MeanHops(g.StandardMapping(n)) {
			t.Fatalf("distance mapping n=%d has worse mean hops than standard", n)
		}
	}
}

func TestParseGeometry(t *testing.T) {
	cases := []struct {
		in   string
		want Geometry
		ok   bool
	}{
		{"", Geometry{}, true},
		{"6x4x2", Geometry{6, 4, 2}, true},
		{"32x32x1", Geometry{32, 32, 1}, true},
		{"8x8x2", Geometry{8, 8, 2}, true},
		{"6x4", Geometry{}, false},
		{"ax4x2", Geometry{}, false},
		{"1x4x2", Geometry{}, false},     // needs >= 2x2 tiles
		{"6x4x0", Geometry{}, false},     // needs >= 1 core per tile
		{"300x300x2", Geometry{}, false}, // above the core-count bound
		// Products that overflow int: one wraps to 0 cores, one negative.
		{"4294967296x4294967296x1", Geometry{}, false},
		{"3037000500x3037000500x3", Geometry{}, false},
	}
	for _, c := range cases {
		got, err := ParseGeometry(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Fatalf("ParseGeometry(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Fatalf("ParseGeometry(%q) accepted, want error", c.in)
		}
	}
	if got := (Geometry{16, 16, 2}).String(); got != "16x16x2" {
		t.Fatalf("String() = %q", got)
	}
}

// FuzzParseGeometry: whatever ParseGeometry accepts is a bounded,
// non-empty mesh that round-trips through String. The empty string is
// the one accepted input that yields the zero Geometry ("the real chip").
func FuzzParseGeometry(f *testing.F) {
	for _, s := range []string{
		"", "6x4x2", "16x16x2", "+6x4x2",
		"4294967296x4294967296x1", "3037000500x3037000500x3",
		"6x4", "6x4x2x1", "x4x2", "6xx2", "-6x4x2", "6X4X2", " 6x4x2", "6x4x2 ", "0x0x0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		g, err := ParseGeometry(s)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if s == "" {
			if !g.IsZero() {
				t.Fatalf("ParseGeometry(\"\") = %v, want the zero Geometry", g)
			}
			return
		}
		if n := g.NumCores(); n < 1 || n > maxGeometryCores {
			t.Fatalf("ParseGeometry(%q) = %v with %d cores, outside [1, %d]", s, g, n, maxGeometryCores)
		}
		again, err := ParseGeometry(g.String())
		if err != nil || again != g {
			t.Fatalf("ParseGeometry(%q) = %v does not round-trip: ParseGeometry(%q) = %v, %v", s, g, g.String(), again, err)
		}
	})
}
