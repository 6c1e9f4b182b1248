package mem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func ctl() Controller { return Controller{ID: 0, MemMHz: 800} }

func TestPeakBandwidth(t *testing.T) {
	if got := ctl().PeakBytesPerSec(); got != 800e6*8 {
		t.Fatalf("peak = %v, want 6.4e9", got)
	}
	fast := Controller{ID: 0, MemMHz: 1066}
	if fast.PeakBytesPerSec() <= ctl().PeakBytesPerSec() {
		t.Fatal("1066 MHz controller not faster")
	}
}

func TestPeakPanicsOnBadClock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero clock did not panic")
		}
	}()
	Controller{}.PeakBytesPerSec()
}

func TestReadBandwidthFlatInReaders(t *testing.T) {
	c := ctl()
	one := c.EffectiveReadBW(1)
	twelve := c.EffectiveReadBW(12)
	if one != twelve {
		t.Fatalf("read BW changed with readers: %v vs %v", one, twelve)
	}
	if one <= 0 || one >= c.PeakBytesPerSec() {
		t.Fatalf("read BW %v outside (0, peak)", one)
	}
	if c.EffectiveReadBW(0) != 0 {
		t.Fatal("zero readers should have zero bandwidth")
	}
}

func TestWriteBandwidthDegradesWithWriters(t *testing.T) {
	// The Melot et al. asymmetry the paper cites: aggregate write
	// throughput decreases as writers are added.
	c := ctl()
	prev := c.EffectiveWriteBW(1)
	for k := 2; k <= 12; k++ {
		cur := c.EffectiveWriteBW(k)
		if cur >= prev {
			t.Fatalf("write BW did not degrade at %d writers: %v >= %v", k, cur, prev)
		}
		prev = cur
	}
}

func TestReadsSustainMoreThanContendedWrites(t *testing.T) {
	c := ctl()
	if c.EffectiveReadBW(12) <= c.EffectiveWriteBW(12) {
		t.Fatal("12-reader bandwidth should beat 12-writer bandwidth")
	}
}

func TestSlowdownBelowSaturationIsOne(t *testing.T) {
	c := ctl()
	// One core reading 1 MB over 1 second: utterly under-subscribed.
	d := []CoreDemand{{ReadBytes: 1 << 20, TimeSec: 1}}
	if s := Slowdown(c, d); s < 1 || s > 1.01 {
		t.Fatalf("slowdown = %v, want ~1 (negligible queueing)", s)
	}
	if Slowdown(c, nil) != 1 {
		t.Fatal("empty demand should not slow down")
	}
	if Slowdown(c, []CoreDemand{{ReadBytes: 100, TimeSec: 0}}) != 1 {
		t.Fatal("zero window should not slow down")
	}
	// At half utilisation the queueing term applies: 1 + 0.3*0.5 = 1.15.
	bw := c.EffectiveReadBW(1)
	half := []CoreDemand{{ReadBytes: bw / 2, TimeSec: 1}}
	if s := Slowdown(c, half); math.Abs(s-1.15) > 1e-9 {
		t.Fatalf("half-utilisation slowdown = %v, want 1.15", s)
	}
}

func TestSlowdownAtSaturation(t *testing.T) {
	c := ctl()
	bw := c.EffectiveReadBW(1)
	// Demand exactly 2x the effective read bandwidth over 1 second.
	d := []CoreDemand{{ReadBytes: 2 * bw, TimeSec: 1}}
	if s := Slowdown(c, d); math.Abs(s-2) > 1e-9 {
		t.Fatalf("slowdown = %v, want 2", s)
	}
}

func TestSlowdownAggregatesCores(t *testing.T) {
	c := ctl()
	bw := c.EffectiveReadBW(12)
	per := bw / 4 // each core asks a quarter of the capacity
	var ds []CoreDemand
	for i := 0; i < 12; i++ {
		ds = append(ds, CoreDemand{ReadBytes: per, TimeSec: 1})
	}
	// 12 cores x bw/4 = 3x oversubscription.
	if s := Slowdown(c, ds); math.Abs(s-3) > 1e-9 {
		t.Fatalf("slowdown = %v, want 3", s)
	}
}

func TestSlowdownCountsWritesSeparately(t *testing.T) {
	c := ctl()
	// Push past saturation so the slowdown is demand-sensitive.
	readOnly := []CoreDemand{{ReadBytes: 5e9, TimeSec: 1}}
	readWrite := []CoreDemand{{ReadBytes: 5e9, WriteBytes: 2e9, TimeSec: 1}}
	if Slowdown(c, readWrite) <= Slowdown(c, readOnly) {
		t.Fatal("adding write traffic did not increase slowdown")
	}
}

func TestWriteHeavySlowdownWorsensWithWriters(t *testing.T) {
	c := ctl()
	mk := func(k int) []CoreDemand {
		ds := make([]CoreDemand, k)
		for i := range ds {
			ds[i] = CoreDemand{WriteBytes: 4e9 / float64(k), TimeSec: 1}
		}
		return ds
	}
	// Same total write demand split over more writers gets slower
	// because aggregate write bandwidth degrades.
	if Slowdown(c, mk(12)) <= Slowdown(c, mk(2)) {
		t.Fatal("write slowdown should worsen with writer count")
	}
}

func TestUtilizationReporting(t *testing.T) {
	c := ctl()
	bw := c.EffectiveReadBW(1)
	half := []CoreDemand{{ReadBytes: bw / 2, TimeSec: 1}}
	u := Utilization(c, half)
	if math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %v, want 0.5", u)
	}
	over := []CoreDemand{{ReadBytes: 3 * bw, TimeSec: 1}}
	if got := Utilization(c, over); math.Abs(got-3) > 1e-9 {
		t.Fatalf("oversubscribed utilization = %v, want 3", got)
	}
	if Utilization(c, nil) != 0 {
		t.Fatal("empty utilization != 0")
	}
}

// Property: slowdown is always >= 1 and monotone in added demand.
func TestQuickSlowdownMonotone(t *testing.T) {
	c := ctl()
	f := func(r1, w1, r2, w2 uint32) bool {
		d1 := []CoreDemand{{ReadBytes: float64(r1), WriteBytes: float64(w1), TimeSec: 0.01}}
		d2 := append(d1, CoreDemand{ReadBytes: float64(r2), WriteBytes: float64(w2), TimeSec: 0.01})
		s1, s2 := Slowdown(c, d1), Slowdown(c, d2)
		return s1 >= 1 && s2 >= s1-1e-12
	}
	if err := quick.Check(f, quickConfig(t, 100)); err != nil {
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
