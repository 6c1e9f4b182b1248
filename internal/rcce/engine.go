package rcce

import (
	"fmt"
	"time"
)

// Backend selects the concurrency engine behind a program.
type Backend int

const (
	// BackendGoroutine is the default engine and the semantic oracle:
	// one live goroutine per UE, unbuffered channels for the synchronous
	// rendezvous, a wall-clock watchdog. Misordered programs really
	// deadlock, and the race detector sees every interleaving.
	BackendGoroutine Backend = iota
	// BackendDES is the discrete-event engine: a single-threaded
	// virtual-time scheduler that runs exactly one UE at a time and
	// advances a virtual clock instead of sleeping. It produces
	// bit-identical results to the goroutine backend (pinned by tests),
	// detects deadlocks exactly instead of by timeout, and simulates
	// thousands of UEs at full host speed because injected delays cost
	// nothing in wall time.
	BackendDES
)

// String renders the backend in the form ParseBackend accepts.
func (b Backend) String() string {
	switch b {
	case BackendGoroutine:
		return "goroutine"
	case BackendDES:
		return "des"
	default:
		return fmt.Sprintf("backend(%d)", int(b))
	}
}

// ParseBackend parses a -engine flag value. The empty string means the
// default goroutine backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "goroutine":
		return BackendGoroutine, nil
	case "des":
		return BackendDES, nil
	default:
		return 0, fmt.Errorf("rcce: unknown engine %q (want goroutine or des)", s)
	}
}

// engine is the concurrency substrate behind a program: how UEs run, how a
// rendezvous blocks and wakes, and how a wedged program is converted into
// a DeadlockError. The program state (comm) and the public API above it
// (Send/Recv/Barrier/IsendFloat64s/Shmalloc) are engine-free; everything
// that blocks goes through these hooks.
type engine interface {
	// run launches one task per rank executing body and joins them all,
	// combining their errors like errors.Join.
	run(body func(*UE) error) error
	// newBarrier returns a counting barrier for n participants wired to
	// this engine's blocking and abort machinery.
	newBarrier(n int) commBarrier
	// sendChunk and recvChunk perform one synchronous rendezvous on the
	// ordered pair: a send blocks until the matching receive takes the
	// chunk, and vice versa. last marks a message's final chunk and
	// travels with it.
	sendChunk(u *UE, dst int, chunk []byte, last bool) error
	recvChunk(u *UE, src int) (chunk []byte, last bool, err error)
	// delay blocks u for d (an injected message latency) as a
	// watchdog-visible "delay" op: the deadline applies to it and an
	// abort interrupts it, exactly like a rendezvous.
	delay(u *UE, peer int, d time.Duration) error
	// park blocks u indefinitely (an injected wedge); only a watchdog
	// abort releases it.
	park(u *UE, op string, peer int) error
	// isend starts the asynchronous send behind a Request; the engine
	// owns buf from here on.
	isend(u *UE, buf []byte, dst int) *Request
}

// commBarrier is a reusable counting barrier owned by an engine. A
// poisoned barrier (watchdog fired) stops admitting waiters and wakes
// the blocked ones with the poison error; a phase that completed
// normally before the poison landed still reports success.
type commBarrier interface {
	// wait blocks u until all participants arrive or the program aborts.
	// The last arrival runs onRelease (may be nil) before waking the
	// others, so side effects ordered by the barrier are visible to
	// every participant on exit. op names the wait in deadlock reports.
	wait(u *UE, op string, onRelease func()) error
	// poisonWith aborts the barrier for current and future waiters; the
	// first poison wins.
	poisonWith(err error)
}
