package rcce

import (
	"errors"
	"fmt"
	"testing"
)

func TestIsendCopiesData(t *testing.T) {
	run(t, 2, func(u *UE) error {
		if u.Rank() == 0 {
			vals := []float64{1, 2, 3}
			req := u.IsendFloat64s(vals, 1)
			vals[0] = 99 // must not affect the in-flight payload
			return req.Wait()
		}
		out := make([]float64, 3)
		if err := u.RecvFloat64s(out, 0); err != nil {
			return err
		}
		if out[0] != 1 {
			return errors.New("isend did not snapshot the payload")
		}
		return nil
	})
}

func TestIsendInvalidDestination(t *testing.T) {
	run(t, 2, func(u *UE) error {
		if u.Rank() != 0 {
			return nil
		}
		if err := u.isend([]byte{1}, 9).Wait(); err == nil {
			return errors.New("isend to rank 9 accepted")
		}
		if err := u.isend([]byte{1}, 0).Wait(); err == nil {
			return errors.New("isend to self accepted")
		}
		if err := u.IsendFloat64s([]float64{1}, -1).Wait(); err == nil {
			return errors.New("float64 isend to -1 accepted")
		}
		return nil
	})
}

func TestWaitAll(t *testing.T) {
	run(t, 3, func(u *UE) error {
		switch u.Rank() {
		case 0:
			a := u.isend([]byte{1}, 1)
			b := u.isend([]byte{2}, 2)
			return WaitAll(a, b)
		default:
			buf := make([]byte, 1)
			if err := u.Recv(buf, 0); err != nil {
				return err
			}
			if buf[0] != byte(u.Rank()) {
				return fmt.Errorf("rank %d received %d", u.Rank(), buf[0])
			}
			return nil
		}
	})
}

func TestWaitAllPropagatesError(t *testing.T) {
	run(t, 2, func(u *UE) error {
		if u.Rank() != 0 {
			return nil
		}
		bad := u.isend([]byte{1}, 7)
		if err := WaitAll(bad); err == nil {
			return errors.New("WaitAll swallowed the error")
		}
		return nil
	})
}

func TestSendRecvExchangeNoDeadlock(t *testing.T) {
	// Every rank exchanges with a partner simultaneously - a blocking
	// Send/Send would deadlock; isend then Recv must not.
	const n = 8
	run(t, n, func(u *UE) error {
		partner := u.Rank() ^ 1 // pairs (0,1), (2,3), ...
		s := u.isend([]byte{byte(u.Rank())}, partner)
		in := make([]byte, 1)
		if err := u.Recv(in, partner); err != nil {
			return err
		}
		if err := s.Wait(); err != nil {
			return err
		}
		if in[0] != byte(partner) {
			return fmt.Errorf("rank %d got %d from partner %d", u.Rank(), in[0], partner)
		}
		return nil
	})
}

func TestSendRecvRing(t *testing.T) {
	// A full ring shift: rank r sends to r+1 and receives from r-1.
	// With symmetric blocking sends this deadlocks; isend breaks it.
	const n = 6
	run(t, n, func(u *UE) error {
		next := (u.Rank() + 1) % n
		prev := (u.Rank() + n - 1) % n
		s := u.isend([]byte{byte(u.Rank())}, next)
		in := make([]byte, 1)
		if err := u.Recv(in, prev); err != nil {
			return err
		}
		if err := s.Wait(); err != nil {
			return err
		}
		if in[0] != byte(prev) {
			return fmt.Errorf("rank %d got %d, want %d", u.Rank(), in[0], prev)
		}
		return nil
	})
}

func TestRequestDoubleWaitIsSafe(t *testing.T) {
	run(t, 2, func(u *UE) error {
		if u.Rank() == 0 {
			req := u.isend([]byte{5}, 1)
			if err := req.Wait(); err != nil {
				return err
			}
			return req.Wait() // second wait returns the same result
		}
		return u.Recv(make([]byte, 1), 0)
	})
}
