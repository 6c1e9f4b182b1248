package sim

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/partition"
	"repro/internal/scc"
	"repro/internal/sparse"
)

func ctxTestMatrix() *sparse.CSR {
	return sparse.Generate(sparse.Gen{
		Name: "ctx-test", Class: sparse.PatternStencil3D, N: 512, NNZTarget: 8192, Seed: 42,
	})
}

func TestRunSpMVCancelledContext(t *testing.T) {
	a := ctxTestMatrix()
	m := NewMachine(scc.Conf0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RunSpMV(a, nil, Options{UEs: 8, Ctx: ctx}); err != context.Canceled {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
}

func TestRunSpMVNilContextMatchesExplicitBackground(t *testing.T) {
	a := ctxTestMatrix()
	m := NewMachine(scc.Conf0)
	base, err := m.RunSpMV(a, nil, Options{UEs: 8})
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := m.RunSpMV(a, nil, Options{UEs: 8, Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if base.TimeSec != withCtx.TimeSec || base.GFLOPS != withCtx.GFLOPS {
		t.Fatalf("explicit Background context changed results: %v vs %v", base.TimeSec, withCtx.TimeSec)
	}
	for i := range base.Y {
		if base.Y[i] != withCtx.Y[i] {
			t.Fatalf("Y[%d] differs under explicit context", i)
		}
	}
}

// flipCtx is a context whose Err turns to context.Canceled at its k-th
// call and stays there, as a real context's error does; k <= 0 never
// flips. Done is nil, so the engine sees the flip only where it checks
// Err: prepare, the pool, and every walk's record and replay boundaries.
type flipCtx struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func (c *flipCtx) Done() <-chan struct{} { return nil }

func (c *flipCtx) Err() error {
	if n := c.calls.Add(1); c.k > 0 && n >= c.k {
		return context.Canceled
	}
	return nil
}

// TestCancelAtEveryBoundary cancels a run at each of its context checks in
// turn, on the exact path and on the analytic profile build, with and
// without the warm-up, serially and on two workers, and on an analytic run
// that reuses a stored profile. Every cancelled run must return
// context.Canceled and no Result, and a cancelled build must persist no
// profile.
func TestCancelAtEveryBoundary(t *testing.T) {
	a := ctxTestMatrix()
	m := NewMachine(scc.Conf0)
	const ues = 8
	for _, pricing := range []Pricing{PricingExact, PricingAnalytic} {
		for _, cold := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				run := func(k int64, store *sparse.MatrixCache) (*Result, *flipCtx, error) {
					ctx := &flipCtx{Context: context.Background(), k: k}
					r, err := m.RunSpMV(a, nil, Options{UEs: ues, Ctx: ctx, Pricing: pricing, ColdCache: cold,
						Parallelism: workers, Profiles: store})
					return r, ctx, err
				}
				newStore := func() *sparse.MatrixCache { return sparse.NewMatrixCache(1 << 30) }
				_, counter, err := run(0, newStore())
				if err != nil {
					t.Fatal(err)
				}
				checks := counter.calls.Load()
				// Each rank checks before its record and before each
				// replay. prepare checks once, and the pool once at the
				// end and, serially, before each rank.
				perRank := int64(3)
				if cold {
					perRank = 2
				}
				if workers == 1 {
					perRank++
				}
				if want := 2 + perRank*ues; checks != want {
					t.Fatalf("%v cold=%v workers=%d: %d context checks, want %d", pricing, cold, workers, checks, want)
				}
				key := profileKey(a, &Options{Scheme: partition.SchemeByNNZ, UEs: ues, ColdCache: cold})
				for k := int64(1); k <= checks; k++ {
					store := newStore()
					r, _, err := run(k, store)
					if err != context.Canceled || r != nil {
						t.Fatalf("%v cold=%v workers=%d: cancelled at check %d of %d: result %v, error %v", pricing, cold, workers, k, checks, r != nil, err)
					}
					if _, ok := store.GetBlob(key); ok {
						t.Fatalf("%v cold=%v workers=%d: cancelled at check %d of %d persisted a profile", pricing, cold, workers, k, checks)
					}
				}
				store := newStore()
				r, _, err := run(checks+1, store)
				if err != nil || r == nil {
					t.Fatalf("%v cold=%v: run past the last check: %v", pricing, cold, err)
				}
				if _, ok := store.GetBlob(key); ok != (pricing == PricingAnalytic) {
					t.Errorf("%v cold=%v: completed run persisted a profile: %v", pricing, cold, ok)
				}
				if pricing != PricingAnalytic {
					continue
				}
				// A run that reuses the stored profile walks nothing: it
				// checks in prepare and once more before pricing.
				if _, counter, err := run(0, store); err != nil || counter.calls.Load() != 2 {
					t.Fatalf("cold=%v workers=%d: reusing run: %d context checks, want 2, error %v", cold, workers, counter.calls.Load(), err)
				}
				for k := int64(1); k <= 2; k++ {
					if r, _, err := run(k, store); err != context.Canceled || r != nil {
						t.Fatalf("cold=%v workers=%d: reusing run cancelled at check %d of 2: result %v, error %v", cold, workers, k, r != nil, err)
					}
				}
			}
		}
	}
}
