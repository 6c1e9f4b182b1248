package mesh

import "testing"

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

func TestOutOfBoundsPanics(t *testing.T) {
	m := NewSCC()
	defer func() {
		if recover() == nil {
			t.Fatal("Hops out of bounds did not panic")
		}
	}()
	m.Hops(Coord{0, 0}, Coord{6, 0})
}
