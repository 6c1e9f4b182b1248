package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Fatalf("geomean = %v, want 2", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("geomean of zero did not panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

func TestMinMaxMedian(t *testing.T) {
	v := []float64{5, 1, 3}
	if Min(v) != 1 || Max(v) != 5 || Median(v) != 3 {
		t.Fatalf("min/max/median = %v/%v/%v", Min(v), Max(v), Median(v))
	}
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("even median")
	}
	if Median(nil) != 0 {
		t.Fatal("empty median")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max")
	}
}

func TestStddev(t *testing.T) {
	if Stddev([]float64{2, 2, 2}) != 0 {
		t.Fatal("constant stddev != 0")
	}
	if got := Stddev([]float64{1, 3}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("stddev = %v, want 1", got)
	}
	if Stddev(nil) != 0 {
		t.Fatal("empty stddev")
	}
}

func TestSpeedup(t *testing.T) {
	if Speedup(2, 3) != 1.5 {
		t.Fatal("speedup")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero baseline did not panic")
		}
	}()
	Speedup(0, 1)
}

func TestFractionAbove(t *testing.T) {
	v := []float64{1, 2, 3, 4}
	if got := FractionAbove(v, 2); got != 0.5 {
		t.Fatalf("fraction = %v", got)
	}
	if FractionAbove(nil, 0) != 0 {
		t.Fatal("empty fraction")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || s.Mean != 2 || s.Min != 1 || s.Max != 3 || s.Median != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if !strings.Contains(s.String(), "n=3") {
		t.Fatalf("summary string = %q", s.String())
	}
	if Summarize(nil).N != 0 {
		t.Fatal("empty summary")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 12345.0)
	tb.AddNote("calibrated to %d entries", 2)
	out := tb.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "alpha") {
		t.Fatalf("table output:\n%s", out)
	}
	if !strings.Contains(out, "note: calibrated to 2 entries") {
		t.Fatalf("missing note:\n%s", out)
	}
	// Header separator present and aligned (same line count check).
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 6 { // title, header, sep, 2 rows, note
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	if tb.Rows() != 2 {
		t.Fatalf("Rows() = %d", tb.Rows())
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", `q"u`)
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"q""u"`) {
		t.Fatalf("CSV quoting broken: %q", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("CSV header: %q", csv)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:       "0",
		12345:   "12345",
		42.25:   "42.2",
		3.14159: "3.14",
		0.0001:  "1.00e-04",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

// Property: Min <= Median <= Max and Min <= Mean <= Max.
func TestQuickSummaryOrdering(t *testing.T) {
	f := func(raw []float64) bool {
		v := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				v = append(v, math.Mod(x, 1e6))
			}
		}
		if len(v) == 0 {
			return true
		}
		s := Summarize(v)
		return s.Min <= s.Median+1e-9 && s.Median <= s.Max+1e-9 &&
			s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, quickConfig(t, 50)); err != nil {
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
