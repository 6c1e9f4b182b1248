package trace

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func TestTouchColdAndImmediate(t *testing.T) {
	r := NewReuseAnalyzer(8)
	if d := r.Touch(100); d != Infinite {
		t.Fatalf("first touch distance = %d, want Infinite", d)
	}
	if d := r.Touch(100); d != 0 {
		t.Fatalf("immediate re-touch distance = %d, want 0", d)
	}
	if d := r.Touch(200); d != Infinite {
		t.Fatalf("new key distance = %d, want Infinite", d)
	}
	if d := r.Touch(100); d != 1 {
		t.Fatalf("one-intervening distance = %d, want 1", d)
	}
}

func TestTouchCyclicPattern(t *testing.T) {
	// Cycling through k distinct keys gives distance k-1 after warmup.
	const k = 5
	r := NewReuseAnalyzer(64)
	for round := 0; round < 4; round++ {
		for key := uint64(0); key < k; key++ {
			d := r.Touch(key)
			if round == 0 {
				if d != Infinite {
					t.Fatalf("round 0 key %d: distance %d", key, d)
				}
			} else if d != k-1 {
				t.Fatalf("round %d key %d: distance %d, want %d", round, key, d, k-1)
			}
		}
	}
}

func TestTouchRepeatedIntervening(t *testing.T) {
	// Distance counts *distinct* intervening keys, not accesses.
	r := NewReuseAnalyzer(16)
	r.Touch(1)
	r.Touch(2)
	r.Touch(2)
	r.Touch(2)
	if d := r.Touch(1); d != 1 {
		t.Fatalf("distance = %d, want 1 (key 2 repeated)", d)
	}
}

func TestAnalyzerGrowth(t *testing.T) {
	// Start tiny and force several growth cycles; the distances of a
	// cyclic pattern must stay exact.
	r := NewReuseAnalyzer(1)
	const k = 7
	for round := 0; round < 30; round++ {
		for key := uint64(0); key < k; key++ {
			d := r.Touch(key)
			if round > 0 && d != k-1 {
				t.Fatalf("round %d: distance %d, want %d", round, d, k-1)
			}
		}
	}
	p := r.Profile()
	if p.Accesses != 30*k || p.Cold != k {
		t.Fatalf("profile = %+v", p)
	}
}

func TestProfileCounts(t *testing.T) {
	r := NewReuseAnalyzer(16)
	r.Touch(1)
	r.Touch(2)
	r.Touch(1) // distance 1
	r.Touch(1) // distance 0
	p := r.Profile()
	if p.Accesses != 4 || p.Cold != 2 || p.DistinctKeys != 2 {
		t.Fatalf("profile = %+v", p)
	}
	if p.Hist[0] != 1 || p.Hist[1] != 1 {
		t.Fatalf("hist = %v", p.Hist[:4])
	}
	if p.MaxDistance != 1 {
		t.Fatalf("max distance = %d", p.MaxDistance)
	}
	if p.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestHitRatioAtCapacity(t *testing.T) {
	// Cyclic over 8 keys: all re-accesses have distance 7. A capacity-8
	// LRU hits them all; capacity 4 misses them all.
	r := NewReuseAnalyzer(128)
	for round := 0; round < 10; round++ {
		for key := uint64(0); key < 8; key++ {
			r.Touch(key)
		}
	}
	p := r.Profile()
	reaccess := float64(p.Accesses-p.Cold) / float64(p.Accesses)
	if got := p.HitRatioAtCapacity(8); got < reaccess-0.01 {
		t.Fatalf("capacity-8 hit ratio %.3f, want ~%.3f", got, reaccess)
	}
	if got := p.HitRatioAtCapacity(4); got > 0.35*reaccess {
		t.Fatalf("capacity-4 hit ratio %.3f, want near 0", got)
	}
	if p.HitRatioAtCapacity(0) != 0 {
		t.Fatal("zero capacity must miss everything")
	}
	if (Profile{}).HitRatioAtCapacity(8) != 0 {
		t.Fatal("empty profile hit ratio != 0")
	}
}

func TestHitRatioMonotoneInCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := NewReuseAnalyzer(4096)
	for i := 0; i < 4096; i++ {
		r.Touch(uint64(rng.Intn(300)))
	}
	p := r.Profile()
	prev := -1.0
	for _, c := range []int64{1, 2, 4, 16, 64, 256, 1024} {
		h := p.HitRatioAtCapacity(c)
		if h < prev-1e-12 {
			t.Fatalf("hit ratio not monotone at capacity %d: %v < %v", c, h, prev)
		}
		if h < 0 || h > 1 {
			t.Fatalf("hit ratio %v outside [0,1]", h)
		}
		prev = h
	}
}

func TestXLineTraceLocalVsRandom(t *testing.T) {
	local := sparse.Generate(sparse.Gen{Name: "l", Class: sparse.PatternBanded, N: 4000, NNZTarget: 40000, Bandwidth: 64, Seed: 1})
	random := sparse.Generate(sparse.Gen{Name: "r", Class: sparse.PatternRandom, N: 4000, NNZTarget: 40000, Seed: 1})
	pl := XLineTrace(local, 32)
	pr := XLineTrace(random, 32)
	// At an L1-like capacity (512 lines) the banded matrix's x accesses
	// must hit far more often than the random one's.
	hl, hr := pl.HitRatioAtCapacity(512), pr.HitRatioAtCapacity(512)
	if hl <= hr {
		t.Fatalf("banded x hit ratio %.3f not above random %.3f", hl, hr)
	}
	if hl < 0.5 {
		t.Fatalf("banded x hit ratio %.3f suspiciously low", hl)
	}
}

func TestStreamLineTraceHasLineReuseOnly(t *testing.T) {
	a := sparse.Generate(sparse.Gen{Name: "s", Class: sparse.PatternBanded, N: 1000, NNZTarget: 8000, Seed: 2})
	p := StreamLineTrace(a, 32)
	// A pure stream revisits each line only while inside it: every
	// finite distance must be 0.
	for b := 1; b < len(p.Hist); b++ {
		if p.Hist[b] != 0 {
			t.Fatalf("stream trace has distance bucket %d populated", b)
		}
	}
	if p.Cold == 0 || p.Hist[0] == 0 {
		t.Fatalf("stream profile degenerate: %+v", p)
	}
}

func TestTracePanicsOnBadLine(t *testing.T) {
	a := sparse.Identity(4)
	for _, f := range []func(){
		func() { XLineTrace(a, 0) },
		func() { StreamLineTrace(a, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad line size did not panic")
				}
			}()
			f()
		}()
	}
}

// TestExactVsBucketedDivergence pins the bucketing error of the log2
// histogram at a non-power-of-two capacity: all re-accesses in the stream
// have distance 2 (bucket 2 spans distances 2..3), so a capacity-3 LRU
// hits every one of them. The bucketed estimate splits the straddled
// bucket 50/50 and reports only half the hits; the exact histogram must
// report them all.
func TestExactVsBucketedDivergence(t *testing.T) {
	mk := func(exactBound int) Profile {
		r := NewReuseAnalyzerExact(64, exactBound)
		// Cycle over 3 keys: after warmup every access has distance 2.
		for round := 0; round < 100; round++ {
			for key := uint64(0); key < 3; key++ {
				r.Touch(key)
			}
		}
		return r.Profile()
	}

	exact := mk(8)
	bucketed := mk(0) // no exact histogram: falls back to log2 buckets

	reaccess := float64(exact.Accesses-exact.Cold) / float64(exact.Accesses)
	if got := exact.HitRatioAtCapacity(3); got != reaccess {
		t.Fatalf("exact capacity-3 hit ratio = %v, want %v", got, reaccess)
	}
	got := bucketed.HitRatioAtCapacity(3)
	want := reaccess / 2 // proportional split of bucket [2,3]
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("bucketed capacity-3 hit ratio = %v, want %v (half the bucket)", got, want)
	}
	// The divergence is the full half-bucket mass — this is the error the
	// HitRatioAtCapacity godoc documents.
	if div := exact.HitRatioAtCapacity(3) - got; div < 0.45 {
		t.Fatalf("exact-vs-bucketed divergence %v, want ~%v", div, reaccess/2)
	}
	// At bucket boundaries (power-of-two capacities) the two must agree.
	for _, c := range []int64{1, 2, 4, 8} {
		e, b := exact.HitRatioAtCapacity(c), bucketed.HitRatioAtCapacity(c)
		if d := e - b; d > 1e-12 || d < -1e-12 {
			t.Fatalf("capacity %d: exact %v != bucketed %v at bucket boundary", c, e, b)
		}
	}
	// Beyond the exact bound the exact profile falls back to buckets too.
	if e, b := exact.HitRatioAtCapacity(9), bucketed.HitRatioAtCapacity(9); e != b {
		t.Fatalf("above bound: exact-profile ratio %v != bucketed %v", e, b)
	}
}

// Property: distances computed by the Fenwick analyzer match a brute-force
// LRU stack simulation.
func TestQuickReuseMatchesBruteForce(t *testing.T) {
	f := func(seed int64, rawN uint8) bool {
		n := int(rawN)%200 + 1
		rng := rand.New(rand.NewSource(seed))
		r := NewReuseAnalyzer(4)
		var stack []uint64 // most recent first
		for i := 0; i < n; i++ {
			key := uint64(rng.Intn(20))
			got := r.Touch(key)
			// Brute force: position in stack = distance.
			want := Infinite
			for pos, k := range stack {
				if k == key {
					want = int64(pos)
					stack = append(stack[:pos], stack[pos+1:]...)
					break
				}
			}
			stack = append([]uint64{key}, stack...)
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 40)); err != nil {
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
