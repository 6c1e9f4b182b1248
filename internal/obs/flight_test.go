package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestRecorderRingWraparound(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record("trk", "k", fmt.Sprintf("e%d", i), "")
	}
	snap := r.Snapshot()
	if len(snap.Events) != 4 {
		t.Fatalf("retained %d events, want 4", len(snap.Events))
	}
	if snap.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", snap.Dropped)
	}
	// The tail must be the LAST events, oldest first, contiguous seqs.
	for i, e := range snap.Events {
		if want := fmt.Sprintf("e%d", 6+i); e.Name != want {
			t.Fatalf("event %d = %q, want %q", i, e.Name, want)
		}
		if i > 0 && e.Seq != snap.Events[i-1].Seq+1 {
			t.Fatalf("seqs not contiguous: %d after %d", e.Seq, snap.Events[i-1].Seq)
		}
	}
}

func TestRecorderPartialFill(t *testing.T) {
	r := NewRecorder(8)
	r.Record("a", "k", "one", "d1")
	r.RecordDur("b", "task", "two", "", 5*time.Millisecond)
	r.RecordDur("b", "task", "neg", "", -time.Second) // clamps
	snap := r.Snapshot()
	if len(snap.Events) != 3 || snap.Dropped != 0 {
		t.Fatalf("got %d events dropped=%d, want 3/0", len(snap.Events), snap.Dropped)
	}
	if snap.Events[1].DurNanos != int64(5*time.Millisecond) {
		t.Fatalf("dur = %d", snap.Events[1].DurNanos)
	}
	if snap.Events[2].DurNanos != 0 {
		t.Fatalf("negative duration not clamped: %d", snap.Events[2].DurNanos)
	}
}

// TestRecorderGrowsOnDemand pins the on-demand ring: a fresh recorder
// holds no slots, the buffer never outgrows its bound (including bounds
// append's own growth would round past), and every snapshot - filling,
// full and wrapped - is the last min(count, n) events, oldest first,
// with the rest counted as dropped.
func TestRecorderGrowsOnDemand(t *testing.T) {
	for _, tc := range []struct{ n, events int }{
		{1000, 2500}, // wraps twice, off a power of two
		{1, 5},
		{8, 5}, // partial fill
		{3, 3}, // exactly full
	} {
		r := NewRecorder(tc.n)
		if c := cap(r.buf); c != 0 {
			t.Fatalf("n=%d: fresh recorder holds %d slots, want 0", tc.n, c)
		}
		for i := 0; i < tc.events; i++ {
			r.Record("trk", "k", fmt.Sprintf("e%d", i), "")
			if c := cap(r.buf); c > tc.n {
				t.Fatalf("n=%d: %d slots after %d events, bound is %d", tc.n, c, i+1, tc.n)
			}
			count := i + 1
			if count != tc.events && count%97 != 0 && count > 2*tc.n {
				continue // snapshot a sample once the ring has wrapped twice
			}
			snap := r.Snapshot()
			kept := min(count, tc.n)
			if len(snap.Events) != kept || r.Len() != kept {
				t.Fatalf("n=%d after %d: retained %d (Len %d), want %d", tc.n, count, len(snap.Events), r.Len(), kept)
			}
			if want := uint64(count - kept); snap.Dropped != want {
				t.Fatalf("n=%d after %d: dropped %d, want %d", tc.n, count, snap.Dropped, want)
			}
			for k, e := range snap.Events {
				first := count - kept
				if want := fmt.Sprintf("e%d", first+k); e.Name != want || e.Seq != uint64(first+k+1) {
					t.Fatalf("n=%d after %d: event %d = %q seq %d, want %q seq %d",
						tc.n, count, k, e.Name, e.Seq, want, first+k+1)
				}
			}
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record("a", "b", "c", "d")
	r.Recordf("a", "b", "c", "%d", 1)
	r.RecordDur("a", "b", "c", "", time.Second)
	if r.Len() != 0 {
		t.Fatal("nil recorder Len != 0")
	}
	snap := r.Snapshot()
	if snap == nil || len(snap.Events) != 0 {
		t.Fatal("nil recorder snapshot must be empty, not nil")
	}
}

func TestRecorderContextRoundTrip(t *testing.T) {
	rec := NewRecorder(4)
	ctx := WithRecorder(context.Background(), rec)
	if RecorderFrom(ctx) != rec {
		t.Fatal("RecorderFrom lost the recorder")
	}
	if RecorderFrom(context.Background()) != nil {
		t.Fatal("plain context should have no recorder")
	}
	if RecorderFrom(nil) != nil { //nolint - nil ctx is part of the contract
		t.Fatal("nil context should have no recorder")
	}
	if got := WithRecorder(context.Background(), nil); RecorderFrom(got) != nil {
		t.Fatal("WithRecorder(nil) must not store a nil recorder")
	}
}

func TestRecorderConcurrentWriters(t *testing.T) {
	r := NewRecorder(64)
	var wg sync.WaitGroup
	const g, per = 8, 100
	wg.Add(g)
	for i := 0; i < g; i++ {
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				r.Record("trk", "k", fmt.Sprintf("g%d", i), "")
				_ = r.Snapshot() // racing reads must be safe too
			}
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	if len(snap.Events) != 64 {
		t.Fatalf("retained %d, want 64", len(snap.Events))
	}
	if snap.Dropped != g*per-64 {
		t.Fatalf("dropped = %d, want %d", snap.Dropped, g*per-64)
	}
	for i := 1; i < len(snap.Events); i++ {
		if snap.Events[i].Seq <= snap.Events[i-1].Seq {
			t.Fatalf("snapshot seqs not increasing at %d", i)
		}
	}
}

func TestPoolRecordsTaskEvents(t *testing.T) {
	r := New()
	rec := NewRecorder(32)
	ctx := WithRecorder(context.Background(), rec)
	p := r.Pool("experiments.cell")
	if err := p.ForEachCtx(ctx, 4, 2, func(int) {}); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if len(snap.Events) != 4 {
		t.Fatalf("recorded %d task events, want 4", len(snap.Events))
	}
	for _, e := range snap.Events {
		if e.Kind != "task" {
			t.Fatalf("event kind = %q, want task", e.Kind)
		}
		if e.Track != "experiments.cell/w0" && e.Track != "experiments.cell/w1" {
			t.Fatalf("unexpected track %q", e.Track)
		}
	}
	// Without a recorder in the context the pool records nothing and
	// the histogram still fills - telemetry stays write-only.
	if err := p.ForEachCtx(context.Background(), 2, 1, func(int) {}); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 4 {
		t.Fatal("recorder grew without being in the context")
	}
	if st := p.TaskHist.Stats(); st.Count != 6 {
		t.Fatalf("task histogram count = %d, want 6", st.Count)
	}
}
