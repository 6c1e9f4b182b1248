package stats

import (
	"math"
	"strings"
	"testing"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty mean")
	}
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("mean = %v", got)
	}
}

func TestMax(t *testing.T) {
	if Max([]float64{5, 1, 3}) != 5 {
		t.Fatal("max")
	}
	if !math.IsInf(Max(nil), -1) {
		t.Fatal("empty max")
	}
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
