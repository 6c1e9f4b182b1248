package rcce

import "fmt"

// Non-blocking sends in the style of iRCCE, the asynchronous extension
// library Intel shipped alongside RCCE. IsendFloat64s returns a *Request
// immediately; the transfer progresses on a helper task (standing in for
// iRCCE's progress engine) and Wait completes it. Sends on one
// (source, destination) pair are ordered only while one is in flight at a
// time: a later send to the same rank can overtake a non-blocking one
// that has not been waited for (both engines), so wait for it first.

// Request tracks an in-flight non-blocking send.
type Request struct {
	// wait joins the transfer and returns its error; the engine that
	// started the transfer supplies it.
	wait func() error
}

// Wait blocks until the send completes and returns its error; waiting
// again returns the same error.
func (r *Request) Wait() error { return r.wait() }

// failedRequest is a request that never started: Wait returns err.
func failedRequest(err error) *Request {
	return &Request{wait: func() error { return err }}
}

// isend starts a non-blocking send of buf to dst and returns at once; the
// transfer owns buf from here on. Completion (Wait) follows RCCE's
// synchronous semantics: the send is done when the receiver has accepted
// the whole payload.
func (u *UE) isend(buf []byte, dst int) *Request {
	if dst < 0 || dst >= u.comm.n {
		return failedRequest(fmt.Errorf("rcce: isend to invalid rank %d", dst))
	}
	if dst == u.rank {
		return failedRequest(fmt.Errorf("rcce: UE %d isend to itself", u.rank))
	}
	return u.comm.eng.isend(u, buf, dst)
}

// WaitAll waits for every request and returns the first error encountered.
func WaitAll(reqs ...*Request) error {
	var first error
	for _, r := range reqs {
		if err := r.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
