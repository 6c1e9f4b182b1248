package sparse

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestTestbedHas32OrderedEntries(t *testing.T) {
	tb := Testbed()
	if len(tb) != 32 {
		t.Fatalf("testbed has %d entries, want 32", len(tb))
	}
	for i, e := range tb {
		if e.ID != i+1 {
			t.Errorf("entry %d has ID %d", i, e.ID)
		}
		if e.N <= 0 || e.NNZ <= 0 {
			t.Errorf("%s: non-positive dimensions", e.Name)
		}
		if e.Name == "" {
			t.Errorf("entry %d unnamed", i)
		}
	}
}

func TestTestbedNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Testbed() {
		if seen[e.Name] {
			t.Errorf("duplicate name %q", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestTestbedEntryByName(t *testing.T) {
	e, ok := TestbedEntryByName("F1")
	if !ok || e.ID != 2 {
		t.Fatalf("F1 lookup = %+v, %v", e, ok)
	}
	if _, ok := TestbedEntryByName("nonexistent"); ok {
		t.Fatal("lookup of missing name succeeded")
	}
}

func TestShortRowEntriesMatchPaper(t *testing.T) {
	// The paper singles out matrices 24 and 25 for tiny nnz/n.
	ids := ShortRowEntries()
	if len(ids) != 2 || ids[0] != 24 || ids[1] != 25 {
		t.Fatalf("ShortRowEntries = %v, want [24 25]", ids)
	}
	tb := Testbed()
	for _, id := range ids {
		e := tb[id-1]
		if e.NNZPerRow() > 8 {
			t.Errorf("%s (id %d): nnz/n = %.1f, want short rows (<8)", e.Name, id, e.NNZPerRow())
		}
	}
	// And they must be among the smaller working sets (the paper's point:
	// small ws yet slow). Check they are below the suite median ws.
	var wss []float64
	for _, e := range tb {
		wss = append(wss, e.WorkingSetMB())
	}
	median := medianOf(wss)
	for _, id := range ids {
		if tb[id-1].WorkingSetMB() >= median {
			t.Errorf("entry %d ws %.1f MB not below median %.1f", id, tb[id-1].WorkingSetMB(), median)
		}
	}
}

func medianOf(v []float64) float64 {
	c := append([]float64(nil), v...)
	for i := 1; i < len(c); i++ {
		for j := i; j > 0 && c[j] < c[j-1]; j-- {
			c[j], c[j-1] = c[j-1], c[j]
		}
	}
	return c[len(c)/2]
}

func TestTestbedWorkingSetRangeStraddlesL2(t *testing.T) {
	// Figure 6 requires matrices on both sides of the aggregate L2
	// capacity at 24 and 48 cores (256 KB per core).
	for _, cores := range []int{24, 48} {
		agg := float64(cores) * 256 / 1024 // MB
		below, above := 0, 0
		for _, e := range Testbed() {
			if e.WorkingSetMB() < agg {
				below++
			} else {
				above++
			}
		}
		if below < 4 || above < 4 {
			t.Errorf("at %d cores (agg %.1f MB): %d below, %d above; need both sides populated",
				cores, agg, below, above)
		}
	}
	// And at 8 cores (2 MB aggregate) essentially nothing should fit,
	// matching the paper's "no relation at 8 cores" observation.
	fits := 0
	for _, e := range Testbed() {
		if e.WorkingSetMB() < 8*256.0/1024 {
			fits++
		}
	}
	if fits > 2 {
		t.Errorf("%d matrices fit in 8-core aggregate L2; paper says none do", fits)
	}
}

func TestGenerateScaledPreservesShape(t *testing.T) {
	e := Testbed()[21] // e40r0100, mid-sized
	m := e.GenerateScaled(0.1)
	if err := m.Validate(); err != nil {
		t.Fatalf("scaled matrix invalid: %v", err)
	}
	wantN := int(math.Round(float64(e.N) * 0.1))
	if m.Rows != wantN {
		t.Fatalf("scaled rows %d, want %d", m.Rows, wantN)
	}
	// Average row length should be roughly preserved.
	if r := m.NNZPerRow() / e.NNZPerRow(); r < 0.4 || r > 2.5 {
		t.Errorf("scaled nnz/row ratio %.2f; want near 1", r)
	}
}

func TestGenerateScaledBounds(t *testing.T) {
	e := Testbed()[0]
	for _, bad := range []float64{0, -1, 1.5, math.NaN()} {
		func() {
			defer func() {
				// The panic must come from the scale check, not from a
				// downstream generator fed a garbage size.
				if r := recover(); !strings.Contains(fmt.Sprint(r), "scale") {
					t.Errorf("GenerateScaled(%v) panicked with %v, want a scale error", bad, r)
				}
			}()
			e.GenerateScaled(bad)
		}()
	}
}

func TestTestbedGenerationSmallScaleAllEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("generating 32 matrices")
	}
	for _, e := range Testbed() {
		m := e.GenerateScaled(0.02)
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}

// TestGenerateExactSizeArrays checks that generated matrices hold no spare
// capacity: the matrix cache budgets by SizeBytes, which prices len, so any
// spare capacity would be resident memory the budget does not see.
func TestGenerateExactSizeArrays(t *testing.T) {
	for _, e := range Testbed() {
		m := e.GenerateScaled(0.05)
		if cap(m.Ptr) != len(m.Ptr) || cap(m.Index) != len(m.Index) || cap(m.Val) != len(m.Val) {
			t.Errorf("%s: cap/len Ptr %d/%d, Index %d/%d, Val %d/%d", e.Name,
				cap(m.Ptr), len(m.Ptr), cap(m.Index), len(m.Index), cap(m.Val), len(m.Val))
		}
	}
}

func TestTestbedEntryWorkingSetFormula(t *testing.T) {
	e := TestbedEntry{ID: 1, Name: "x", N: 1000, NNZ: 10000}
	want := int64(4*(1001+10000) + 8*(10000+2000))
	if got := e.WorkingSetBytes(); got != want {
		t.Fatalf("WorkingSetBytes = %d, want %d", got, want)
	}
}
