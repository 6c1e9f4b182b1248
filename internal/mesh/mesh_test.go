package mesh

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewSCCDimensions(t *testing.T) {
	m := NewSCC()
	if m.W != 6 || m.H != 4 {
		t.Fatalf("SCC mesh %dx%d, want 6x4", m.W, m.H)
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, d := range [][2]int{{0, 1}, {1, 0}, {-1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", d[0], d[1])
				}
			}()
			New(d[0], d[1])
		}()
	}
}

func TestHopsManhattan(t *testing.T) {
	m := NewSCC()
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{0, 0}, 0},
		{Coord{0, 0}, Coord{5, 0}, 5},
		{Coord{0, 0}, Coord{5, 3}, 8},
		{Coord{2, 1}, Coord{3, 2}, 2},
		{Coord{5, 3}, Coord{0, 0}, 8},
	}
	for _, c := range cases {
		if got := m.Hops(c.a, c.b); got != c.want {
			t.Errorf("Hops(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestRouteIsXThenY(t *testing.T) {
	m := NewSCC()
	path := m.Route(Coord{1, 1}, Coord{3, 3})
	want := []Coord{{1, 1}, {2, 1}, {3, 1}, {3, 2}, {3, 3}}
	if len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
}

func TestRouteSelf(t *testing.T) {
	m := NewSCC()
	path := m.Route(Coord{2, 2}, Coord{2, 2})
	if len(path) != 1 || path[0] != (Coord{2, 2}) {
		t.Fatalf("self route = %v", path)
	}
}

func TestRouteNegativeDirections(t *testing.T) {
	m := NewSCC()
	path := m.Route(Coord{3, 3}, Coord{1, 1})
	if len(path) != 5 {
		t.Fatalf("path length %d, want 5", len(path))
	}
	if path[1] != (Coord{2, 3}) {
		t.Fatalf("first step %v; X must move first", path[1])
	}
}

func TestTraverseAccountsLinks(t *testing.T) {
	m := NewSCC()
	hops := m.Traverse(Coord{0, 0}, Coord{2, 1})
	if hops != 3 {
		t.Fatalf("hops = %d, want 3", hops)
	}
	if got := m.LinkLoad(Coord{0, 0}, Coord{1, 0}); got != 1 {
		t.Fatalf("link (0,0)-(1,0) load = %d, want 1", got)
	}
	if got := m.LinkLoad(Coord{1, 0}, Coord{2, 0}); got != 1 {
		t.Fatalf("link (1,0)-(2,0) load = %d, want 1", got)
	}
	if got := m.LinkLoad(Coord{2, 0}, Coord{2, 1}); got != 1 {
		t.Fatalf("link (2,0)-(2,1) load = %d, want 1", got)
	}
	if got := m.LinkLoad(Coord{0, 0}, Coord{0, 1}); got != 0 {
		t.Fatalf("unused link load = %d, want 0", got)
	}
	if m.TotalTraversals() != 3 {
		t.Fatalf("total = %d, want 3", m.TotalTraversals())
	}
}

func TestLinkLoadSymmetricLookup(t *testing.T) {
	m := NewSCC()
	m.Traverse(Coord{0, 0}, Coord{1, 0})
	if m.LinkLoad(Coord{1, 0}, Coord{0, 0}) != 1 {
		t.Fatal("reverse lookup of link load failed")
	}
	m.Traverse(Coord{4, 2}, Coord{4, 1}) // downward Y
	if m.LinkLoad(Coord{4, 1}, Coord{4, 2}) != 1 {
		t.Fatal("downward traversal not recorded")
	}
}

func TestLinkLoadPanicsOnNonAdjacent(t *testing.T) {
	m := NewSCC()
	defer func() {
		if recover() == nil {
			t.Fatal("LinkLoad on non-adjacent pair did not panic")
		}
	}()
	m.LinkLoad(Coord{0, 0}, Coord{2, 0})
}

func TestOutOfBoundsPanics(t *testing.T) {
	m := NewSCC()
	defer func() {
		if recover() == nil {
			t.Fatal("Hops out of bounds did not panic")
		}
	}()
	m.Hops(Coord{0, 0}, Coord{6, 0})
}

func TestMaxLinkLoadFindsHotspot(t *testing.T) {
	m := NewSCC()
	for i := 0; i < 7; i++ {
		m.Traverse(Coord{0, 0}, Coord{1, 0})
	}
	m.Traverse(Coord{5, 3}, Coord{4, 3})
	if got := m.MaxLinkLoad(); got != 7 {
		t.Fatalf("max link load = %d, want 7", got)
	}
}

func TestResetLoads(t *testing.T) {
	m := NewSCC()
	m.Traverse(Coord{0, 0}, Coord{5, 3})
	m.ResetLoads()
	if m.TotalTraversals() != 0 || m.MaxLinkLoad() != 0 {
		t.Fatal("loads survive reset")
	}
}

// Property: route length equals Manhattan distance + 1, endpoints match,
// and consecutive coordinates are grid neighbours.
func TestQuickRouteWellFormed(t *testing.T) {
	m := NewSCC()
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		a := Coord{rng.Intn(6), rng.Intn(4)}
		b := Coord{rng.Intn(6), rng.Intn(4)}
		path := m.Route(a, b)
		if len(path) != m.Hops(a, b)+1 {
			return false
		}
		if path[0] != a || path[len(path)-1] != b {
			return false
		}
		for i := 0; i+1 < len(path); i++ {
			dx := path[i+1].X - path[i].X
			dy := path[i+1].Y - path[i].Y
			if abs(dx)+abs(dy) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(func(uint8) bool { return f() }, quickConfig(t, 100)); err != nil {
		t.Fatal(err)
	}
}

// Property: total traversals equals the sum of per-message hop counts.
func TestQuickTraversalConservation(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		m := NewSCC()
		rng := rand.New(rand.NewSource(seed))
		var sum uint64
		for i := 0; i < int(n); i++ {
			a := Coord{rng.Intn(6), rng.Intn(4)}
			b := Coord{rng.Intn(6), rng.Intn(4)}
			sum += uint64(m.Traverse(a, b))
		}
		return m.TotalTraversals() == sum
	}
	if err := quick.Check(f, quickConfig(t, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestDiameterAndBisection(t *testing.T) {
	m := NewSCC()
	if m.Diameter() != 8 {
		t.Fatalf("SCC diameter = %d, want 8", m.Diameter())
	}
	if m.BisectionLinks() != 4 {
		t.Fatalf("SCC bisection = %d, want 4", m.BisectionLinks())
	}
	if New(1, 3).BisectionLinks() != 0 {
		t.Fatal("1-wide mesh has no bisection cut")
	}
}

func TestAverageDistance(t *testing.T) {
	// 2x1 mesh: the only pair is 1 hop apart.
	if got := New(2, 1).AverageDistance(); got != 1 {
		t.Fatalf("2x1 average = %v, want 1", got)
	}
	// SCC: average Manhattan distance on 6x4 grid.
	got := NewSCC().AverageDistance()
	if got < 3 || got > 3.6 {
		t.Fatalf("SCC average distance = %v, want ~3.3", got)
	}
	// Exhaustively verify against Hops.
	m := NewSCC()
	total, pairs := 0, 0
	for ax := 0; ax < 6; ax++ {
		for ay := 0; ay < 4; ay++ {
			for bx := 0; bx < 6; bx++ {
				for by := 0; by < 4; by++ {
					if ax == bx && ay == by {
						continue
					}
					total += m.Hops(Coord{ax, ay}, Coord{bx, by})
					pairs++
				}
			}
		}
	}
	want := float64(total) / float64(pairs)
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("average %v != brute force %v", got, want)
	}
}

// quickSeed seeds every property's random source, so a failure reproduces.
const quickSeed = 1

// quickConfig returns a quick.Config drawing its inputs from quickSeed.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	t.Helper()
	t.Logf("quick seed %d", quickSeed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(quickSeed))}
}
