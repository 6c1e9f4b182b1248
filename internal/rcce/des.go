package rcce

import (
	"container/heap"
	"errors"
	"fmt"
	"sort"
	"time"
)

// desEngine is the discrete-event RCCE substrate: a single-threaded
// cooperative scheduler that runs exactly one task at a time and keys
// everything that waits - rendezvous, barriers, injected delays and
// wedges, the deadlock watchdog - on a virtual clock instead of real
// timers.
//
// Tasks (UE bodies and the auxiliary transfers behind isend) each
// live on a host goroutine, but strictly one is runnable at any moment:
// the scheduler hands a task the baton through its resume channel and
// waits on the shared yielded channel until the task blocks or exits.
// Because only the baton holder ever touches engine state, the engine
// needs no locks, and because the ready queue is FIFO and the timer
// heap breaks ties by push order, every run of the same program is the
// same interleaving - the scheduler is deterministic by construction.
//
// The virtual clock advances only when the ready queue drains and the
// earliest timer pops, so a one-hour injected latency costs nothing in
// wall time and the clock reads the simulated hour. Deadlock detection is
// exact rather than timed: when every live task is blocked and no timer
// can wake one, the program can never progress, and the engine raises a
// DeadlockError immediately - even with no deadline armed, where the
// goroutine oracle would block forever (the one documented divergence:
// a hung single-threaded simulation reports instead of hanging).
type desEngine struct {
	c        *comm
	deadline time.Duration

	// now is the virtual clock; seq numbers tasks and timers so FIFO
	// and heap ordering are deterministic.
	now time.Duration
	seq int

	cur     *desTask
	yielded chan struct{}

	ready  []*desTask
	timers desTimerHeap

	// pairs holds the per-ordered-pair rendezvous queues: a blocked
	// sender parks in sendq with its chunk, a blocked receiver in recvq.
	pairs map[pairKey]*desPair

	// blocked tracks every parked task for the deadlock report; liveUEs
	// counts unfinished rank tasks (aux transfers don't keep the
	// scheduler alive, mirroring how the goroutine backend only joins
	// UE goroutines).
	blocked map[*desTask]struct{}
	liveUEs int

	// abort is the DeadlockError once the virtual watchdog fired; every
	// subsequent blocking op returns it immediately, mirroring the
	// goroutine backend's closed abort channel.
	abort error
}

type desTask struct {
	id   int
	rank int
	// kind is "ue" for rank tasks, "isend" for aux transfers.
	kind   string
	resume chan struct{}

	// op/peer/since describe the block the task is inside (deadlock
	// reporting); gen invalidates stale timers across block episodes.
	op    string
	peer  int
	since time.Duration
	gen   int

	// chunk/last carry the rendezvous payload and its last-chunk mark: a
	// parked sender's offered chunk, or the chunk handed to a woken
	// receiver.
	chunk []byte
	last  bool
	// err is the verdict delivered on wake (nil = woken normally).
	err error

	// done/derr/joiners implement completion: join blocks the caller
	// as a joiner until the task finishes.
	done    bool
	derr    error
	joiners []*desTask
}

type desPair struct {
	sendq []*desTask
	recvq []*desTask
}

// desTimer is one virtual-time event: a delay wakeup or a watchdog
// deadline check for a specific block episode of a task.
type desTimer struct {
	at   time.Duration
	seq  int
	task *desTask
	gen  int
	// watch marks a deadline check (fires the deadlock verdict if the
	// task is still inside the same block episode).
	watch bool
}

type desTimerHeap []desTimer

func (h desTimerHeap) Len() int { return len(h) }
func (h desTimerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h desTimerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *desTimerHeap) Push(x any)   { *h = append(*h, x.(desTimer)) }
func (h *desTimerHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func newDESEngine(c *comm) *desEngine {
	return &desEngine{
		c:        c,
		deadline: c.deadline,
		yielded:  make(chan struct{}),
		pairs:    make(map[pairKey]*desPair),
		blocked:  make(map[*desTask]struct{}),
	}
}

func (e *desEngine) nextSeq() int {
	e.seq++
	return e.seq
}

func (e *desEngine) run(body func(*UE) error) error {
	c := e.c
	errs := make([]error, c.n)
	for r := 0; r < c.n; r++ {
		rank := r
		t := e.newTask(rank, "ue")
		e.liveUEs++
		e.start(t, func() error { return body(&UE{comm: c, rank: rank}) }, func(err error) { errs[rank] = err })
	}
	e.loop()
	return errors.Join(errs...)
}

func (e *desEngine) newTask(rank int, kind string) *desTask {
	return &desTask{id: e.nextSeq(), rank: rank, kind: kind, resume: make(chan struct{})}
}

// start enqueues the task and launches its host goroutine, parked on
// the resume baton until the scheduler picks it. record (may be nil)
// receives the task's final error before completion is published.
func (e *desEngine) start(t *desTask, fn func() error, record func(error)) {
	e.ready = append(e.ready, t)
	// DES tasks are cooperatively scheduled entities, not host fan-out:
	// exactly one runs at a time (baton passing through resume/yielded),
	// and the scheduler loop observes every completion before run returns.
	go func() { //sccvet:allow bare-goroutine DES scheduler entity: one runnable at a time via baton passing, joined by the scheduler loop
		<-t.resume
		err := runDESTask(t, fn)
		if record != nil {
			record(err)
		}
		e.finish(t, err)
	}()
}

func runDESTask(t *desTask, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("rcce: UE %d panicked: %v", t.rank, p)
		}
	}()
	return fn()
}

// finish publishes the task's completion (run on the task's goroutine,
// still holding the baton), wakes its joiners and hands the baton back.
func (e *desEngine) finish(t *desTask, err error) {
	t.done = true
	t.derr = err
	for _, j := range t.joiners {
		j.err = nil
		e.makeReady(j)
	}
	t.joiners = nil
	if t.kind == "ue" {
		e.liveUEs--
	}
	e.yielded <- struct{}{}
}

// loop is the scheduler: drain the ready queue, then advance the
// virtual clock to the earliest timer; if neither can make progress
// while UEs are still live, the program is deadlocked - exactly.
func (e *desEngine) loop() {
	for e.liveUEs > 0 {
		if len(e.ready) > 0 {
			t := e.ready[0]
			e.ready = e.ready[1:]
			e.cur = t
			t.resume <- struct{}{}
			<-e.yielded
			e.cur = nil
			continue
		}
		if e.timers.Len() > 0 {
			tm := heap.Pop(&e.timers).(desTimer)
			if tm.at > e.now {
				e.now = tm.at
			}
			t := tm.task
			if t.done || tm.gen != t.gen {
				continue // stale: the block episode this timer belonged to ended
			}
			if _, isBlocked := e.blocked[t]; !isBlocked {
				continue
			}
			if tm.watch {
				if e.abort == nil {
					e.fireDeadlock()
				}
				continue
			}
			// Delay wakeup: the virtual sleep elapsed.
			t.err = nil
			e.makeReady(t)
			continue
		}
		if e.abort != nil || len(e.blocked) == 0 {
			// Unreachable by construction: an abort wakes every blocked
			// task, and a live UE is always ready, running, blocked or
			// finished. Fail loudly rather than hang the scheduler.
			panic("rcce: internal: DES scheduler quiescent with live UEs and nothing to wake")
		}
		// Global quiescence with live UEs and no timer that could wake
		// anyone: a genuine deadlock, detected exactly (no deadline
		// needed - the event model proves no progress is possible).
		e.fireDeadlock()
	}
}

// fireDeadlock converts the blocked-task table into a DeadlockError,
// poisons the barrier and wakes every parked task with the verdict -
// the virtual-time equivalent of the wall watchdog's abort.
func (e *desEngine) fireDeadlock() {
	derr := &DeadlockError{Deadline: e.deadline}
	stuck := make([]*desTask, 0, len(e.blocked))
	for t := range e.blocked {
		stuck = append(stuck, t)
	}
	// Task ids give a deterministic order independent of map iteration.
	sort.Slice(stuck, func(i, j int) bool { return stuck[i].id < stuck[j].id })
	for _, t := range stuck {
		derr.Blocked = append(derr.Blocked, BlockedOp{Rank: t.rank, Op: t.op, Peer: t.peer, For: e.now - t.since})
	}
	sortBlocked(derr.Blocked)
	e.abort = derr
	e.c.rec.Record(rcceTrack, "deadlock", "virtual watchdog fired", derr.Error())
	e.c.barrier.poisonWith(derr)
	for _, t := range stuck {
		t.err = derr
		t.gen++ // invalidate any pending timers for this episode
		e.makeReady(t)
	}
}

func (e *desEngine) makeReady(t *desTask) {
	delete(e.blocked, t)
	e.ready = append(e.ready, t)
}

// parkTask records the current block episode; the caller then yields.
func (e *desEngine) parkTask(t *desTask, op string, peer int) {
	t.op, t.peer, t.since = op, peer, e.now
	t.gen++
	e.blocked[t] = struct{}{}
}

func (e *desEngine) armWatch(t *desTask) {
	if e.deadline > 0 {
		heap.Push(&e.timers, desTimer{at: e.now + e.deadline, seq: e.nextSeq(), task: t, gen: t.gen, watch: true})
	}
}

// yieldCurrent hands the baton to the scheduler and parks until woken;
// the wake verdict arrives in t.err.
func (e *desEngine) yieldCurrent(t *desTask) error {
	e.yielded <- struct{}{}
	<-t.resume
	return t.err
}

// block parks the current task inside op until a peer, the watchdog or
// the quiescence check wakes it.
func (e *desEngine) block(t *desTask, op string, peer int) error {
	e.parkTask(t, op, peer)
	e.armWatch(t)
	return e.yieldCurrent(t)
}

func (e *desEngine) pairOf(k pairKey) *desPair {
	p, ok := e.pairs[k]
	if !ok {
		p = &desPair{}
		e.pairs[k] = p
	}
	return p
}

func (e *desEngine) sendChunk(u *UE, dst int, chunk []byte, last bool) error {
	if e.abort != nil {
		return e.abort
	}
	t := e.cur
	p := e.pairOf(pairKey{u.rank, dst})
	if len(p.recvq) > 0 {
		// A receiver is already parked: hand over the chunk and wake it.
		// Both sides complete at the same virtual instant - RCCE's
		// synchronous rendezvous.
		r := p.recvq[0]
		p.recvq = p.recvq[1:]
		r.chunk, r.last = chunk, last
		r.err = nil
		e.makeReady(r)
		return nil
	}
	t.chunk, t.last = chunk, last
	p.sendq = append(p.sendq, t)
	if err := e.block(t, "send", dst); err != nil {
		return err
	}
	return nil
}

func (e *desEngine) recvChunk(u *UE, src int) ([]byte, bool, error) {
	if e.abort != nil {
		return nil, false, e.abort
	}
	t := e.cur
	p := e.pairOf(pairKey{src, u.rank})
	if len(p.sendq) > 0 {
		s := p.sendq[0]
		p.sendq = p.sendq[1:]
		chunk := s.chunk
		s.chunk = nil
		s.err = nil
		e.makeReady(s)
		return chunk, s.last, nil
	}
	p.recvq = append(p.recvq, t)
	if err := e.block(t, "recv", src); err != nil {
		return nil, false, err
	}
	chunk := t.chunk
	t.chunk = nil
	return chunk, t.last, nil
}

// delay advances the task past d of virtual time: it parks as a
// watchdog-visible "delay" op with a wake timer, so a latency longer
// than the deadline trips the deadlock verdict exactly like a stuck
// rendezvous - but costs nothing in wall time.
func (e *desEngine) delay(u *UE, peer int, d time.Duration) error {
	if e.abort != nil {
		return e.abort
	}
	t := e.cur
	e.parkTask(t, "delay", peer)
	// The wake timer is pushed before the watch timer, so an exactly
	// deadline-long delay wakes rather than fires (FIFO tie-break).
	heap.Push(&e.timers, desTimer{at: e.now + d, seq: e.nextSeq(), task: t, gen: t.gen})
	e.armWatch(t)
	return e.yieldCurrent(t)
}

func (e *desEngine) park(u *UE, op string, peer int) error {
	if e.abort != nil {
		return e.abort
	}
	return e.block(e.cur, op, peer)
}

func (e *desEngine) isend(u *UE, buf []byte, dst int) *Request {
	t := e.newTask(u.rank, "isend")
	e.start(t, func() error { return u.Send(buf, dst) }, nil)
	return &Request{wait: func() error { return e.join(t, dst) }}
}

// join waits for an aux transfer task: the caller parks as a "wait-isend"
// op until the transfer finishes (or the program aborts) and gets the
// transfer's error, like Request.Wait on the goroutine backend.
func (e *desEngine) join(a *desTask, dst int) error {
	if !a.done {
		t := e.cur
		a.joiners = append(a.joiners, t)
		if err := e.block(t, "wait-isend", dst); err != nil {
			return err
		}
	}
	return a.derr
}

func (e *desEngine) newBarrier(n int) commBarrier {
	return &desBarrier{e: e, n: n}
}

// desBarrier is the DES backend's counting barrier: waiters park in
// arrival order and the last arrival releases them all at the same
// virtual instant.
type desBarrier struct {
	e       *desEngine
	n       int
	count   int
	waiters []*desTask
	poison  error
}

func (b *desBarrier) wait(u *UE, op string, onRelease func()) error {
	e := b.e
	if e.abort != nil {
		return e.abort
	}
	if b.poison != nil {
		return b.poison
	}
	if b.count+1 == b.n {
		// Last arrival: release the phase without blocking.
		b.count = 0
		if onRelease != nil {
			onRelease()
		}
		ws := b.waiters
		b.waiters = nil
		for _, w := range ws {
			w.err = nil
			e.makeReady(w)
		}
		return nil
	}
	b.count++
	t := e.cur
	b.waiters = append(b.waiters, t)
	return e.block(t, op, -1)
}

// poisonWith marks the barrier aborted for future waiters; the engine's
// deadlock sweep wakes the currently parked ones (poisonWith is only
// called from fireDeadlock, which holds the baton).
func (b *desBarrier) poisonWith(err error) {
	if b.poison == nil {
		b.poison = err
	}
}
