package trace

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
)

// access is one step of a synthetic line stream.
type access struct {
	line  uint64
	kind  AccessKind
	store bool
}

func randomStream(seed int64, n, lines int) []access {
	rng := rand.New(rand.NewSource(seed))
	out := make([]access, n)
	for i := range out {
		k := DemandRead
		switch rng.Intn(5) {
		case 0:
			k = DemandStore
		case 1:
			k = ForwardedStore
		}
		out[i] = access{
			line:  uint64(rng.Intn(lines)),
			kind:  k,
			store: k != DemandRead,
		}
	}
	return out
}

// TestSetProfileMatchesTrueLRUCache is the core oracle of the analytic
// pricing path: for every covered (sets, ways) geometry, the counts priced
// from one SetAnalyzer pass must equal an actual TrueLRU cache simulation
// of the same stream - hits, misses and dirty write-backs.
func TestSetProfileMatchesTrueLRUCache(t *testing.T) {
	cfg := SetConfig{MinSetsLog2: 0, MaxSetsLog2: 5, MaxWays: 6}
	for _, seed := range []int64{1, 2, 3} {
		checkAgainstLRU(t, cfg, randomStream(seed, 4000, 300))
	}
}

// checkAgainstLRU prices stream, recorded in one pass, at every geometry
// cfg covers and compares each with a TrueLRU cache's run of it.
func checkAgainstLRU(t *testing.T, cfg SetConfig, stream []access) {
	t.Helper()
	const lineBytes = 32
	a := NewSetAnalyzer(cfg)
	for _, ac := range stream {
		a.Touch(ac.line, ac.kind)
	}
	p := a.Profile()
	for s := cfg.MinSetsLog2; s <= cfg.MaxSetsLog2; s++ {
		for ways := 1; ways <= cfg.MaxWays; ways++ {
			c := cache.New(cache.Config{
				SizeBytes:   (1 << uint(s)) * ways * lineBytes,
				LineBytes:   lineBytes,
				Ways:        ways,
				WriteBack:   true,
				Replacement: cache.TrueLRU,
			})
			var wantHits, wantMisses uint64
			for _, ac := range stream {
				r := c.Access(ac.line*lineBytes, ac.store)
				if r.Hit {
					wantHits++
				} else {
					wantMisses++
				}
			}
			got, ok := p.Price(s, ways)
			if !ok {
				t.Fatalf("%+v: profile does not cover sets=2^%d ways=%d", cfg, s, ways)
			}
			if hits := got.DemandHits + got.FwdHits; hits != wantHits {
				t.Fatalf("%+v sets=2^%d ways=%d: priced hits %d, cache %d", cfg, s, ways, hits, wantHits)
			}
			if misses := got.DemandMisses + got.FwdMisses; misses != wantMisses {
				t.Fatalf("%+v sets=2^%d ways=%d: priced misses %d, cache %d", cfg, s, ways, misses, wantMisses)
			}
			if wb := c.Stats().WriteBacks; got.WriteBacks != wb {
				t.Fatalf("%+v sets=2^%d ways=%d: priced write-backs %d, cache %d", cfg, s, ways, got.WriteBacks, wb)
			}
		}
	}
}

// TestSetProfileWarmupSplit mirrors the simulator's two-pass protocol:
// stack state advances through a non-recording warm-up, counts cover only
// the recorded pass, and they equal a real cache run with ResetStats at
// the pass boundary.
func TestSetProfileWarmupSplit(t *testing.T) {
	const lineBytes = 32
	cfg := SetConfig{MinSetsLog2: 1, MaxSetsLog2: 3, MaxWays: 4}
	stream := randomStream(7, 2000, 120)

	a := NewSetAnalyzer(cfg)
	a.SetRecording(false)
	for _, ac := range stream {
		a.Touch(ac.line, ac.kind)
	}
	a.SetRecording(true)
	for _, ac := range stream {
		a.Touch(ac.line, ac.kind)
	}
	p := a.Profile()

	for s := cfg.MinSetsLog2; s <= cfg.MaxSetsLog2; s++ {
		for ways := 1; ways <= cfg.MaxWays; ways++ {
			c := cache.New(cache.Config{
				SizeBytes:   (1 << uint(s)) * ways * lineBytes,
				LineBytes:   lineBytes,
				Ways:        ways,
				WriteBack:   true,
				Replacement: cache.TrueLRU,
			})
			for _, ac := range stream {
				c.Access(ac.line*lineBytes, ac.store)
			}
			c.ResetStats()
			for _, ac := range stream {
				c.Access(ac.line*lineBytes, ac.store)
			}
			got, _ := p.Price(s, ways)
			st := c.Stats()
			if hits := got.DemandHits + got.FwdHits; hits != st.Hits {
				t.Fatalf("sets=2^%d ways=%d: warmed hits %d, cache %d", s, ways, hits, st.Hits)
			}
			if got.WriteBacks != st.WriteBacks {
				t.Fatalf("sets=2^%d ways=%d: warmed write-backs %d, cache %d", s, ways, got.WriteBacks, st.WriteBacks)
			}
		}
	}
}

// TestSetProfileKindSplit checks the demand/forwarded split: a stream of
// forwarded stores only must land entirely in FwdHist.
func TestSetProfileKindSplit(t *testing.T) {
	a := NewSetAnalyzer(SetConfig{MinSetsLog2: 0, MaxSetsLog2: 0, MaxWays: 2})
	a.Touch(1, ForwardedStore)
	a.Touch(1, ForwardedStore)
	a.Touch(2, DemandRead)
	p := a.Profile()
	got, _ := p.Price(0, 2)
	if got.FwdHits != 1 || got.FwdMisses != 1 {
		t.Fatalf("fwd split = %+v", got)
	}
	if got.DemandHits != 0 || got.DemandMisses != 1 {
		t.Fatalf("demand split = %+v", got)
	}
}

// TestSetProfileCoverage pins the Covers/Price bounds behaviour.
func TestSetProfileCoverage(t *testing.T) {
	a := NewSetAnalyzer(SetConfig{MinSetsLog2: 2, MaxSetsLog2: 4, MaxWays: 8})
	p := a.Profile()
	for _, bad := range [][2]int{{1, 4}, {5, 4}, {3, 0}, {3, 9}} {
		if _, ok := p.Price(bad[0], bad[1]); ok {
			t.Fatalf("Price(%d, %d) unexpectedly covered", bad[0], bad[1])
		}
	}
	if _, ok := p.Price(3, 8); !ok {
		t.Fatal("Price(3, 8) not covered")
	}
	if p.SizeBytes() <= 0 {
		t.Fatal("non-positive profile size")
	}
	if err := (SetConfig{MinSetsLog2: 3, MaxSetsLog2: 2, MaxWays: 4}).Validate(); err == nil {
		t.Fatal("inverted set range validated")
	}
	if err := (SetConfig{MinSetsLog2: 0, MaxSetsLog2: 2, MaxWays: 0}).Validate(); err == nil {
		t.Fatal("zero MaxWays validated")
	}
}

// TestSetAnalyzerResetEqualsNew reuses one analyzer per configuration
// across random streams, Reset before each, and compares every Profile
// with a new analyzer's over the same stream: a warm-up and a recorded
// split of it, or a single recorded pass. The analyzer is left in either
// recording state before its Reset.
func TestSetAnalyzerResetEqualsNew(t *testing.T) {
	const seed = 26
	t.Logf("seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 12; trial++ {
		lo := rng.Intn(4)
		cfg := SetConfig{MinSetsLog2: lo, MaxSetsLog2: lo + rng.Intn(4), MaxWays: 1 + rng.Intn(15)}
		reused := NewSetAnalyzer(cfg)
		for round := 0; round < 4; round++ {
			stream := randomStream(rng.Int63(), 1+rng.Intn(3000), 1+rng.Intn(600))
			split := rng.Intn(len(stream) + 1)
			if rng.Intn(3) == 0 {
				split = -1 // a single recorded pass
			}
			run := func(a *SetAnalyzer) SetProfile {
				for i, ac := range stream {
					if split >= 0 {
						a.SetRecording(i >= split)
					}
					a.Touch(ac.line, ac.kind)
				}
				return a.Profile()
			}
			reused.Reset()
			got, want := run(reused), run(NewSetAnalyzer(cfg))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d round %d %+v split %d: reset analyzer's profile\n%+v\nnew analyzer's\n%+v", trial, round, cfg, split, got, want)
			}
			reused.SetRecording(rng.Intn(2) == 0)
		}
	}
}

// TestSetConfigEntryBounds pins the bounds of the packed entry: tau takes
// 4 bits, so MaxWays stops at 15, and the coarsest level's tag 23, so the
// line limit is 2^(23+MinSetsLog2)-1. A 15-way analyzer over lines at that
// limit must still price like TrueLRU caches, and one line past it panics.
func TestSetConfigEntryBounds(t *testing.T) {
	if err := (SetConfig{MinSetsLog2: 0, MaxSetsLog2: 2, MaxWays: 16}).Validate(); err == nil {
		t.Error("MaxWays 16 validated")
	}
	if err := (SetConfig{MinSetsLog2: 0, MaxSetsLog2: 2, MaxWays: 15}).Validate(); err != nil {
		t.Errorf("MaxWays 15: %v", err)
	}
	for _, cfg := range []SetConfig{
		{MinSetsLog2: 8, MaxSetsLog2: 14, MaxWays: 8},
		{MinSetsLog2: 2, MaxSetsLog2: 5, MaxWays: 15},
	} {
		limit := cfg.MaxLine()
		if want := uint64(1)<<(23+cfg.MinSetsLog2) - 1; limit != want {
			t.Fatalf("%+v: MaxLine %#x, want %#x", cfg, limit, want)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%+v: Touch(%#x) did not panic", cfg, limit+1)
				}
			}()
			NewSetAnalyzer(cfg).Touch(limit+1, DemandRead)
		}()
		// Lines at and just below the limit: every coarsest set holds some,
		// and one set holds more than MaxWays of them.
		stream := randomStream(int64(cfg.MinSetsLog2), 3000, 200)
		for i := range stream {
			if i%2 == 0 {
				stream[i].line = limit - stream[i].line<<cfg.MaxSetsLog2
			} else {
				stream[i].line = limit - stream[i].line
			}
		}
		stream[len(stream)-1].line = limit
		checkAgainstLRU(t, cfg, stream)
	}
}
