package rcce

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// BlockedOp describes one rank's communication operation that was still
// blocked when the deadline watchdog fired.
type BlockedOp struct {
	// Rank is the blocked UE and Op the operation it was inside
	// ("send", "recv", "barrier", "wedged:send", ...).
	Rank int
	Op   string
	// Peer is the counterpart rank of a point-to-point op; -1 for
	// barriers.
	Peer int
	// For is how long the op had been blocked when the watchdog fired.
	For time.Duration
}

func (b BlockedOp) String() string {
	if b.Peer >= 0 {
		return fmt.Sprintf("rank %d %s(peer %d) blocked %v", b.Rank, b.Op, b.Peer, b.For.Round(time.Millisecond))
	}
	return fmt.Sprintf("rank %d %s blocked %v", b.Rank, b.Op, b.For.Round(time.Millisecond))
}

// DeadlockError is the structured error the watchdog converts a wedged
// program into: every operation still blocked past the deadline, named by
// rank and op, so a hung sweep reports *who* stopped the run instead of
// hanging it.
type DeadlockError struct {
	// Deadline is the per-operation bound that was exceeded.
	Deadline time.Duration
	// Blocked lists the stuck operations, sorted by rank, op and peer.
	Blocked []BlockedOp
}

// sortBlocked puts a report in the order both engines give it; ties keep
// their order.
func sortBlocked(ops []BlockedOp) {
	sort.SliceStable(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Peer < b.Peer
	})
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rcce: deadlock: %d op(s) blocked past the %v deadline", len(e.Blocked), e.Deadline)
	for _, op := range e.Blocked {
		b.WriteString("; ")
		b.WriteString(op.String())
	}
	return b.String()
}

// watchdog observes the goroutine backend's blocked communication
// operations and aborts the whole program when any single op stays
// blocked past the deadline. Channel waiters observe the abort by
// selecting on `aborted`; barrier waiters are woken by poisoning the
// program's barrier (the poison callback). The DES backend has no
// watchdog goroutine: its deadline checks are virtual-time events.
type watchdog struct {
	deadline time.Duration
	rec      *obs.Recorder
	poison   func(error)

	mu      sync.Mutex
	blocked map[*blockedEntry]struct{} // every op now blocked
	derr    *DeadlockError

	aborted chan struct{} // closed exactly once, when the deadline fires
	stop    chan struct{} // closed by halt() when the program finishes first
}

type blockedEntry struct {
	rank  int
	op    string
	peer  int
	since time.Time
}

func newWatchdog(deadline time.Duration, rec *obs.Recorder, poison func(error)) *watchdog {
	return &watchdog{
		deadline: deadline,
		rec:      rec,
		poison:   poison,
		blocked:  map[*blockedEntry]struct{}{},
		aborted:  make(chan struct{}),
		stop:     make(chan struct{}),
	}
}

// enter registers an op of the rank as blocked and returns the entry
// leave clears. Each blocking call has its own entry, so a rank's UE and
// its in-flight isends never hide one another: a finished isend must not
// clear its UE's still-blocked receive, or the deadline could never fire.
// Each chunk of a long message is its own call, which makes the deadline
// a per-rendezvous bound rather than a per-message one.
func (w *watchdog) enter(rank int, op string, peer int) *blockedEntry {
	e := &blockedEntry{rank: rank, op: op, peer: peer, since: time.Now()}
	w.mu.Lock()
	w.blocked[e] = struct{}{}
	w.mu.Unlock()
	return e
}

// leave clears one entry enter returned.
func (w *watchdog) leave(e *blockedEntry) {
	w.mu.Lock()
	delete(w.blocked, e)
	w.mu.Unlock()
}

// err returns the DeadlockError after the watchdog fired (nil before).
func (w *watchdog) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.derr == nil {
		return nil
	}
	return w.derr
}

// halt stops the scan loop; called when the program's UEs all returned.
func (w *watchdog) halt() { close(w.stop) }

// run is the scan loop. It polls at a fraction of the deadline so a wedge
// is detected within ~1.25x the configured bound.
func (w *watchdog) run() {
	tick := w.deadline / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			if w.scan() {
				return
			}
		}
	}
}

// scan fires the abort if any op has been blocked past the deadline,
// returning true when the watchdog's job is done.
func (w *watchdog) scan() bool {
	now := time.Now()
	w.mu.Lock()
	blocked := len(w.blocked)
	overdue := false
	for e := range w.blocked {
		if now.Sub(e.since) >= w.deadline {
			overdue = true
			break
		}
	}
	if !overdue {
		w.mu.Unlock()
		if blocked > 0 {
			w.rec.Recordf(rcceTrack, "watchdog_tick", "watchdog tick",
				"%d op(s) blocked, none past the %v deadline", blocked, w.deadline)
		}
		return false
	}
	derr := &DeadlockError{Deadline: w.deadline}
	for e := range w.blocked {
		derr.Blocked = append(derr.Blocked, BlockedOp{Rank: e.rank, Op: e.op, Peer: e.peer, For: now.Sub(e.since)})
	}
	sortBlocked(derr.Blocked)
	w.derr = derr
	w.mu.Unlock()

	// Wake every waiter: channel ops select on aborted, barrier waiters
	// are poisoned and broadcast.
	w.rec.Record(rcceTrack, "deadlock", "watchdog fired", derr.Error())
	close(w.aborted)
	w.poison(derr)
	return true
}
