package scc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStandardMapping(t *testing.T) {
	m := StandardMapping(4)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for rank, c := range m {
		if int(c) != rank {
			t.Fatalf("standard mapping rank %d -> core %d", rank, c)
		}
	}
}

func TestDistanceReductionPaperExample(t *testing.T) {
	// Section IV-A: with 4 UEs the distance-reduction configuration uses
	// cores 0, 1, 10 and 11.
	m := DistanceReductionMapping(4)
	want := []CoreID{0, 1, 10, 11}
	if len(m) != 4 {
		t.Fatalf("mapping = %v", m)
	}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("mapping = %v, want %v", m, want)
		}
	}
}

func TestDistanceReductionFillsByDistance(t *testing.T) {
	// The first 8 ranks must land on the 8 zero-hop cores.
	m := DistanceReductionMapping(8)
	for _, c := range m {
		if HopsToMC(c) != 0 {
			t.Fatalf("rank on core %d with %d hops; want 0-hop cores first", c, HopsToMC(c))
		}
	}
	// Ranks 9..24 must use 1-hop cores.
	m = DistanceReductionMapping(24)
	for i, c := range m {
		h := HopsToMC(c)
		switch {
		case i < 8 && h != 0:
			t.Fatalf("rank %d at %d hops, want 0", i, h)
		case i >= 8 && h != 1:
			t.Fatalf("rank %d at %d hops, want 1", i, h)
		}
	}
}

func TestDistanceReductionFull48(t *testing.T) {
	m := DistanceReductionMapping(48)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(m) != 48 {
		t.Fatalf("len = %d", len(m))
	}
	// All cores used exactly once; MaxHops is 3 like the standard mapping.
	if m.MaxHops() != 3 {
		t.Fatalf("max hops = %d", m.MaxHops())
	}
}

func TestDistanceReductionBeatsStandardOnMeanHops(t *testing.T) {
	for _, n := range []int{4, 8, 16, 24, 32} {
		dr := DistanceReductionMapping(n)
		std := StandardMapping(n)
		if dr.MeanHops() >= std.MeanHops() {
			t.Errorf("n=%d: distance reduction mean hops %.2f >= standard %.2f",
				n, dr.MeanHops(), std.MeanHops())
		}
	}
	// At 48 cores both use the whole chip: identical mean.
	if DistanceReductionMapping(48).MeanHops() != StandardMapping(48).MeanHops() {
		t.Error("full-chip mappings should have equal mean hops")
	}
}

func TestDistanceReductionBalancesControllers(t *testing.T) {
	m := DistanceReductionMapping(16)
	perMC := map[int]int{}
	for _, c := range m {
		perMC[ControllerFor(c).ID]++
	}
	for mc, n := range perMC {
		if n != 4 {
			t.Errorf("MC%d got %d ranks, want 4 (balanced)", mc, n)
		}
	}
}

func TestRandomMappingValidAndSeeded(t *testing.T) {
	a := RandomMapping(10, 1)
	b := RandomMapping(10, 1)
	c := RandomMapping(10, 2)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
	}
	if !same {
		t.Fatal("same seed produced different mappings")
	}
	diff := false
	for i := range a {
		if a[i] != c[i] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical mappings")
	}
}

func TestMapDispatch(t *testing.T) {
	for _, p := range []MappingPolicy{MapStandard, MapDistanceReduction, MapRandom} {
		m, err := Map(p, 6, 3)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	if _, err := Map("bogus", 4, 0); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := Map(MapStandard, 0, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Map(MapStandard, 49, 0); err == nil {
		t.Fatal("n=49 accepted")
	}
}

func TestMappingValidateRejectsBad(t *testing.T) {
	if err := (Mapping{0, 0}).Validate(); err == nil {
		t.Error("duplicate core accepted")
	}
	if err := (Mapping{99}).Validate(); err == nil {
		t.Error("invalid core accepted")
	}
	if err := (Mapping{}).Validate(); err == nil {
		t.Error("empty mapping accepted")
	}
}

// Property: for every n, both policies produce valid mappings of size n and
// the distance-reduction mean hops never exceeds standard's.
func TestQuickMappingsValid(t *testing.T) {
	f := func(raw uint8) bool {
		n := int(raw)%NumCores + 1
		dr := DistanceReductionMapping(n)
		std := StandardMapping(n)
		if dr.Validate() != nil || std.Validate() != nil {
			return false
		}
		if len(dr) != n || len(std) != n {
			return false
		}
		return dr.MeanHops() <= std.MeanHops()+1e-9
	}
	if err := quick.Check(f, quickConfig(t, 60)); err != nil {
		t.Fatal(err)
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
