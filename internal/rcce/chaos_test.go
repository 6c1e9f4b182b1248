package rcce

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/scc"
)

// pingPong is a 4-rank program with a barrier and a ring of point-to-point
// messages - enough traffic that every fault class below has something to
// hit. Returns rank 0's received value for sanity checks.
func pingPong(t *testing.T, opts Options) error {
	t.Helper()
	return RunWith(opts, 4, nil, scc.Uniform(scc.Conf0), func(u *UE) error {
		if err := u.Barrier(); err != nil {
			return err
		}
		next := (u.Rank() + 1) % u.NumUEs()
		prev := (u.Rank() + u.NumUEs() - 1) % u.NumUEs()
		msg := []byte{byte(u.Rank())}
		got := make([]byte, 1)
		// Even ranks send first; odd ranks receive first - deadlock-free.
		if u.Rank()%2 == 0 {
			if err := u.Send(msg, next); err != nil {
				return err
			}
			if err := u.Recv(got, prev); err != nil {
				return err
			}
		} else {
			if err := u.Recv(got, prev); err != nil {
				return err
			}
			if err := u.Send(msg, next); err != nil {
				return err
			}
		}
		if got[0] != byte(prev) {
			t.Errorf("rank %d received %d, want %d", u.Rank(), got[0], prev)
		}
		return u.Barrier()
	})
}

func TestChaosNoFaultUnderDeadline(t *testing.T) {
	// A generous deadline and an empty plan must change nothing.
	if err := pingPong(t, Options{Deadline: 5 * time.Second, Fault: &fault.Plan{}}); err != nil {
		t.Fatalf("fault-free run under deadline failed: %v", err)
	}
}

func TestChaosWedgedRankBecomesDeadlockError(t *testing.T) {
	// Rank 2 wedges at its very first op (the opening barrier): everyone
	// else blocks in that barrier and the watchdog must name them all.
	start := time.Now()
	err := pingPong(t, Options{
		Deadline: 50 * time.Millisecond,
		Fault:    &fault.Plan{Wedge: &fault.RankFault{Rank: 2, AfterOps: 0}},
	})
	elapsed := time.Since(start)
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("wedged rank returned %v, want a *DeadlockError", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadlock detection took %v with a 50ms deadline", elapsed)
	}
	if len(derr.Blocked) == 0 {
		t.Fatal("DeadlockError names no blocked ranks")
	}
	// The wedge parks rank 2 inside its barrier op; the global barrier is
	// poisoned so the other three ranks wake with the verdict too.
	seen := map[int]string{}
	for i, op := range derr.Blocked {
		seen[op.Rank] = op.Op
		if i > 0 && derr.Blocked[i-1].Rank > op.Rank {
			t.Errorf("Blocked not sorted by rank: %v", derr.Blocked)
		}
	}
	if seen[2] != "wedged:barrier" {
		t.Errorf("DeadlockError %v does not name the wedged rank 2", derr)
	}
	for _, r := range []int{0, 1, 3} {
		if seen[r] != "barrier" {
			t.Errorf("DeadlockError %v does not show rank %d blocked in the barrier", derr, r)
		}
	}
	if derr.Error() == "" || derr.Deadline != 50*time.Millisecond {
		t.Errorf("malformed DeadlockError: %v", derr)
	}
}

func TestChaosDroppedMessageBecomesDeadlockError(t *testing.T) {
	// Drop rank 0's first message to rank 1: rank 1 blocks in Recv forever
	// and the watchdog must name it with the peer it waited on.
	err := pingPong(t, Options{
		Deadline: 50 * time.Millisecond,
		Fault:    &fault.Plan{Drop: []fault.Message{{Src: 0, Dst: 1, Seq: 0}}},
	})
	var derr *DeadlockError
	if !errors.As(err, &derr) {
		t.Fatalf("dropped message returned %v, want a *DeadlockError", err)
	}
	foundRecv := false
	for _, op := range derr.Blocked {
		if op.Rank == 1 && op.Op == "recv" && op.Peer == 0 {
			foundRecv = true
		}
	}
	if !foundRecv {
		t.Errorf("DeadlockError %v does not show rank 1 blocked receiving from rank 0", derr)
	}
}

func TestChaosDelayedMessageStillCompletes(t *testing.T) {
	// A delay well under the deadline must not fail the run.
	err := pingPong(t, Options{
		Deadline: 2 * time.Second,
		Fault: &fault.Plan{Slow: []fault.Delay{
			{Message: fault.Message{Src: 0, Dst: 1, Seq: 0}, By: 10 * time.Millisecond},
		}},
	})
	if err != nil {
		t.Fatalf("delayed run failed: %v", err)
	}
}

func TestChaosFailedRankPropagatesInjectedError(t *testing.T) {
	// Rank 3 fails at its first op; the program must end (not hang: its
	// peers' rendezvous are freed by the watchdog) and the joined error
	// must carry the injected marker.
	err := pingPong(t, Options{
		Deadline: 50 * time.Millisecond,
		Fault:    &fault.Plan{Fail: &fault.RankFault{Rank: 3, AfterOps: 0}},
	})
	if err == nil {
		t.Fatal("failed rank produced no error")
	}
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("error %v does not wrap fault.ErrInjected", err)
	}
}

func TestChaosIsendDoesNotHideBlockedRecv(t *testing.T) {
	// Regression: the watchdog kept one blocked op per rank, so when rank
	// 0's isend finished it erased rank 0's still-blocked receive and the
	// deadline never fired: the program hung. Each blocking call now has
	// its own entry.
	done := make(chan error, 1)
	go func() {
		done <- RunWith(Options{Deadline: 50 * time.Millisecond}, 3, nil, scc.Uniform(scc.Conf0), func(u *UE) error {
			switch u.Rank() {
			case 0:
				req := u.isend(make([]byte, 3*ChunkBytes), 1)
				recvErr := u.Recv(make([]byte, 1), 2) // rank 2 never sends
				if err := req.Wait(); err != nil {
					return err
				}
				return recvErr
			case 1:
				time.Sleep(10 * time.Millisecond) // let rank 0 block in its receive first
				return u.Recv(make([]byte, 3*ChunkBytes), 0)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		var derr *DeadlockError
		if !errors.As(err, &derr) {
			t.Fatalf("stuck receive returned %v, want a *DeadlockError", err)
		}
		if b := derr.Blocked; len(b) != 1 || b[0].Rank != 0 || b[0].Op != "recv" || b[0].Peer != 2 {
			t.Errorf("DeadlockError %v, want only rank 0's recv(peer 2)", derr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the watchdog never fired on rank 0's stuck receive")
	}
}

func TestRunWithRejectsNegativeDeadline(t *testing.T) {
	err := RunWith(Options{Deadline: -time.Second}, 2, nil, scc.Uniform(scc.Conf0),
		func(u *UE) error { return nil })
	if err == nil {
		t.Fatal("negative deadline accepted")
	}
}
