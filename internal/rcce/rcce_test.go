package rcce

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"repro/internal/scc"
)

func run(t *testing.T, n int, body func(*UE) error) {
	t.Helper()
	if err := RunWith(Options{}, n, nil, scc.Uniform(scc.Conf0), body); err != nil {
		t.Fatal(err)
	}
}

func TestRunBasics(t *testing.T) {
	var count atomic.Int32
	run(t, 8, func(u *UE) error {
		count.Add(1)
		if u.Rank() < 0 || u.Rank() >= 8 {
			return fmt.Errorf("bad rank %d", u.Rank())
		}
		if u.NumUEs() != 8 {
			return fmt.Errorf("NumUEs = %d", u.NumUEs())
		}
		return nil
	})
	if count.Load() != 8 {
		t.Fatalf("%d UEs ran, want 8", count.Load())
	}
}

func TestRunValidatesArguments(t *testing.T) {
	body := func(*UE) error { return nil }
	if err := RunWith(Options{}, 0, nil, scc.Uniform(scc.Conf0), body); err == nil {
		t.Error("n=0 accepted")
	}
	if err := RunWith(Options{}, 49, nil, scc.Uniform(scc.Conf0), body); err == nil {
		t.Error("n=49 accepted")
	}
	if err := RunWith(Options{}, 4, scc.Mapping{0, 1}, scc.Uniform(scc.Conf0), body); err == nil {
		t.Error("short mapping accepted")
	}
	if err := RunWith(Options{}, 2, scc.Mapping{0, 0}, scc.Uniform(scc.Conf0), body); err == nil {
		t.Error("duplicate mapping accepted")
	}
}

func TestRunCollectsErrors(t *testing.T) {
	sentinel := errors.New("rank failure")
	err := RunWith(Options{}, 4, nil, scc.Uniform(scc.Conf0), func(u *UE) error {
		if u.Rank() == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

func TestRunRecoversPanics(t *testing.T) {
	err := RunWith(Options{}, 2, nil, scc.Uniform(scc.Conf0), func(u *UE) error {
		if u.Rank() == 1 {
			panic("boom")
		}
		// Rank 0 must not block forever on a dead peer; do no comms.
		return nil
	})
	if err == nil {
		t.Fatal("panic not surfaced as error")
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	payload := []byte("hello from rank 0")
	run(t, 2, func(u *UE) error {
		if u.Rank() == 0 {
			return u.Send(payload, 1)
		}
		buf := make([]byte, len(payload))
		if err := u.Recv(buf, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, payload) {
			return fmt.Errorf("got %q", buf)
		}
		return nil
	})
}

func TestSendRecvLargePayloadChunks(t *testing.T) {
	// 3.5 MPB chunks force the chunked path.
	n := ChunkBytes*3 + ChunkBytes/2
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 31)
	}
	run(t, 2, func(u *UE) error {
		if u.Rank() == 0 {
			return u.Send(data, 1)
		}
		buf := make([]byte, n)
		if err := u.Recv(buf, 0); err != nil {
			return err
		}
		if !bytes.Equal(buf, data) {
			return errors.New("payload corrupted in chunked transfer")
		}
		return nil
	})
}

func TestSendRecvZeroLength(t *testing.T) {
	run(t, 2, func(u *UE) error {
		if u.Rank() == 0 {
			return u.Send(nil, 1)
		}
		return u.Recv(nil, 0)
	})
}

func TestSendRecvValidation(t *testing.T) {
	run(t, 2, func(u *UE) error {
		if u.Rank() != 0 {
			return nil
		}
		if err := u.Send([]byte("x"), 5); err == nil {
			return errors.New("send to rank 5 accepted")
		}
		if err := u.Send([]byte("x"), 0); err == nil {
			return errors.New("self-send accepted")
		}
		if err := u.Recv(make([]byte, 1), -1); err == nil {
			return errors.New("recv from -1 accepted")
		}
		if err := u.Recv(make([]byte, 1), 0); err == nil {
			return errors.New("self-recv accepted")
		}
		return nil
	})
}

func TestPingPongOrdering(t *testing.T) {
	// Messages between a pair preserve order.
	const k = 20
	run(t, 2, func(u *UE) error {
		if u.Rank() == 0 {
			for i := 0; i < k; i++ {
				if err := u.Send([]byte{byte(i)}, 1); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < k; i++ {
			b := make([]byte, 1)
			if err := u.Recv(b, 0); err != nil {
				return err
			}
			if b[0] != byte(i) {
				return fmt.Errorf("message %d arrived as %d", i, b[0])
			}
		}
		return nil
	})
}

func TestBarrierSynchronises(t *testing.T) {
	// Classic flag test: all UEs set a flag before the barrier; after
	// the barrier every UE must observe every flag.
	const n = 8
	flags := make([]atomic.Bool, n)
	run(t, n, func(u *UE) error {
		flags[u.Rank()].Store(true)
		u.Barrier()
		for i := 0; i < n; i++ {
			if !flags[i].Load() {
				return fmt.Errorf("rank %d missing flag %d after barrier", u.Rank(), i)
			}
		}
		return nil
	})
}

func TestBarrierReusable(t *testing.T) {
	const n, rounds = 6, 5
	counters := make([]atomic.Int32, rounds)
	run(t, n, func(u *UE) error {
		for r := 0; r < rounds; r++ {
			counters[r].Add(1)
			u.Barrier()
			if got := counters[r].Load(); got != n {
				return fmt.Errorf("round %d: %d arrivals visible after barrier", r, got)
			}
		}
		return nil
	})
}

func TestStatsCount(t *testing.T) {
	run(t, 2, func(u *UE) error {
		if u.Rank() == 0 {
			if err := u.Send(make([]byte, 100), 1); err != nil {
				return err
			}
		} else {
			if err := u.Recv(make([]byte, 100), 0); err != nil {
				return err
			}
		}
		u.Barrier()
		s := u.Stats()
		if s.Messages != 1 || s.Bytes != 100 || s.Barriers != 1 {
			return fmt.Errorf("stats = %+v", s)
		}
		return nil
	})
}

func TestCustomMapping(t *testing.T) {
	// A valid custom mapping runs every rank; one naming a core outside
	// the geometry is rejected before any UE starts.
	var count atomic.Int32
	err := RunWith(Options{}, 4, scc.DistanceReductionMapping(4), scc.Uniform(scc.Conf0), func(u *UE) error {
		count.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if count.Load() != 4 {
		t.Fatalf("%d UEs ran, want 4", count.Load())
	}
	if err := RunWith(Options{}, 2, scc.Mapping{0, 48}, scc.Uniform(scc.Conf0), func(*UE) error { return nil }); err == nil {
		t.Error("mapping onto core 48 of a 48-core chip accepted")
	}
}

func TestSendRecvFloat64s(t *testing.T) {
	// The blocking and the non-blocking float64 sends share one wire
	// encoding.
	vals := []float64{math.Pi, -1.5, 0, math.Inf(1)}
	run(t, 2, func(u *UE) error {
		if u.Rank() == 0 {
			if err := u.SendFloat64s(vals, 1); err != nil {
				return err
			}
			return u.IsendFloat64s(vals, 1).Wait()
		}
		for round := 0; round < 2; round++ {
			out := make([]float64, len(vals))
			if err := u.RecvFloat64s(out, 0); err != nil {
				return err
			}
			for i := range vals {
				if out[i] != vals[i] {
					return fmt.Errorf("round %d: out = %v", round, out)
				}
			}
		}
		return nil
	})
}

func TestShmallocShared(t *testing.T) {
	run(t, 4, func(u *UE) error {
		s, err := u.Shmalloc("x", 4)
		if err != nil {
			return err
		}
		s[u.Rank()] = float64(u.Rank() + 1)
		u.Barrier()
		for i := 0; i < 4; i++ {
			if s[i] != float64(i+1) {
				return fmt.Errorf("rank %d sees shm %v", u.Rank(), s)
			}
		}
		u.Barrier()
		// Size conflict must error.
		if _, err := u.Shmalloc("x", 8); err == nil {
			return errors.New("conflicting shmalloc accepted")
		}
		if _, err := u.Shmalloc("neg", -1); err == nil {
			return errors.New("negative shmalloc accepted")
		}
		return nil
	})
}

// TestRCCEParallelSpMV runs the paper's actual communication pattern: x in
// shared memory, row-partitioned SpMV, gather of y at rank 0 - verifying
// the runtime supports the kernel end to end.
func TestRCCEParallelSpMV(t *testing.T) {
	const n, ues = 64, 4
	// A small deterministic matrix (dense rows to keep it simple).
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = float64((i*j)%7) - 3
		}
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i%5) + 0.5
	}
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want[i] += a[i][j] * x[j]
		}
	}

	got := make([]float64, n)
	err := RunWith(Options{}, ues, nil, scc.Uniform(scc.Conf0), func(u *UE) error {
		shx, err := u.Shmalloc("x", n)
		if err != nil {
			return err
		}
		if u.Rank() == 0 {
			copy(shx, x)
		}
		u.Barrier()
		lo := u.Rank() * n / ues
		hi := (u.Rank() + 1) * n / ues
		part := make([]float64, hi-lo)
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				part[i-lo] += a[i][j] * shx[j]
			}
		}
		if u.Rank() == 0 {
			copy(got[lo:hi], part)
			tmp := make([]float64, n/ues)
			for r := 1; r < ues; r++ {
				if err := u.RecvFloat64s(tmp, r); err != nil {
					return err
				}
				copy(got[r*n/ues:], tmp)
			}
			return nil
		}
		return u.SendFloat64s(part, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
