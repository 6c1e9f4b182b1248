package rcce

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// goroutineEngine is the original RCCE substrate and the semantic
// oracle the DES backend is tested against: one live goroutine per UE,
// unbuffered per-pair channels for the synchronous rendezvous, and a
// wall-clock watchdog polling the blocked-op table.
type goroutineEngine struct {
	c *comm

	// chans holds the per-ordered-pair rendezvous channels; chansMu
	// guards the table (channels are created lazily on first use).
	chans   map[pairKey]chan chunkMsg
	chansMu sync.Mutex

	// watch is the deadline watchdog (nil when no deadline is armed).
	watch *watchdog
}

func newGoroutineEngine(c *comm) *goroutineEngine {
	e := &goroutineEngine{c: c, chans: make(map[pairKey]chan chunkMsg)}
	if c.deadline > 0 {
		e.watch = newWatchdog(c.deadline, c.rec, func(err error) { c.barrier.poisonWith(err) })
	}
	return e
}

func (e *goroutineEngine) run(body func(*UE) error) error {
	c := e.c
	if e.watch != nil {
		// The watchdog is a supervisor, not a worker: it must keep
		// scanning while every UE goroutine is blocked, which is exactly
		// the situation a pool-dispatched task could not observe.
		go e.watch.run() //sccvet:allow bare-goroutine deadline watchdog must run outside the pool it supervises; it only reads the blocked-op table and never touches results
	}
	errs := make([]error, c.n)
	var wg sync.WaitGroup
	for r := 0; r < c.n; r++ {
		wg.Add(1)
		// UEs *are* the simulated cores of the RCCE thread model: their
		// concurrency is the semantics under test, not host fan-out.
		go func(rank int) { //sccvet:allow bare-goroutine UEs are the RCCE thread model itself, not host work distribution; run joins them all before returning
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[rank] = fmt.Errorf("rcce: UE %d panicked: %v", rank, p)
				}
			}()
			errs[rank] = body(&UE{comm: c, rank: rank})
		}(r)
	}
	wg.Wait()
	if e.watch != nil {
		e.watch.halt()
	}
	return errors.Join(errs...)
}

// chunkMsg is one chunk on a pair channel, with its last-chunk mark.
type chunkMsg struct {
	data []byte
	last bool
}

// channel returns the rendezvous channel for the ordered pair (src, dst).
// Channels are unbuffered: a send blocks until the receiver arrives, which
// is RCCE's synchronous point-to-point semantics.
func (e *goroutineEngine) channel(src, dst int) chan chunkMsg {
	e.chansMu.Lock()
	defer e.chansMu.Unlock()
	k := pairKey{src, dst}
	ch, ok := e.chans[k]
	if !ok {
		ch = make(chan chunkMsg)
		e.chans[k] = ch
	}
	return ch
}

// sendChunk moves one chunk through the pair channel, honouring the
// watchdog deadline when one is armed.
func (e *goroutineEngine) sendChunk(u *UE, dst int, chunk []byte, last bool) error {
	ch := e.channel(u.rank, dst)
	msg := chunkMsg{chunk, last}
	w := e.watch
	if w == nil {
		ch <- msg
		return nil
	}
	defer w.leave(w.enter(u.rank, "send", dst))
	select {
	case ch <- msg:
		return nil
	case <-w.aborted:
		return w.err()
	}
}

// recvChunk receives one chunk from the pair channel, honouring the
// watchdog deadline when one is armed.
func (e *goroutineEngine) recvChunk(u *UE, src int) ([]byte, bool, error) {
	ch := e.channel(src, u.rank)
	w := e.watch
	if w == nil {
		msg := <-ch
		return msg.data, msg.last, nil
	}
	defer w.leave(w.enter(u.rank, "recv", src))
	select {
	case msg := <-ch:
		return msg.data, msg.last, nil
	case <-w.aborted:
		return nil, false, w.err()
	}
}

// delay blocks the rank for an injected message latency. It is a
// watchdog-visible "delay" op: the deadline applies to the sleep and an
// abort interrupts it (a bare time.Sleep here used to survive a
// watchdog fire and then still perform its rendezvous).
func (e *goroutineEngine) delay(u *UE, peer int, d time.Duration) error {
	w := e.watch
	if w == nil {
		// No watchdog armed: block-forever semantics, nothing can abort
		// the program, so an uninterruptible sleep is faithful.
		time.Sleep(d) //sccvet:allow lock-across-blocking no watchdog armed: nothing exists to interrupt the injected latency, matching block-forever semantics
		return nil
	}
	defer w.leave(w.enter(u.rank, "delay", peer))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-w.aborted:
		return w.err()
	}
}

// park blocks the rank as a wedged op. With a watchdog it returns the
// DeadlockError once the deadline fires; without one it blocks forever.
func (e *goroutineEngine) park(u *UE, op string, peer int) error {
	w := e.watch
	if w == nil {
		select {} // wedged with no watchdog: hung hardware, hung program
	}
	defer w.leave(w.enter(u.rank, op, peer))
	<-w.aborted
	return w.err()
}

func (e *goroutineEngine) isend(u *UE, buf []byte, dst int) *Request {
	done := make(chan struct{})
	var err error
	// The progress goroutine stands in for iRCCE's asynchronous engine; it
	// must block on the rendezvous independently of the issuing UE, which a
	// pool task (one of finitely many workers) cannot.
	go func() { //sccvet:allow bare-goroutine iRCCE progress engine: completion is joined through Request.Wait, never left dangling
		err = u.Send(buf, dst)
		close(done)
	}()
	return &Request{wait: func() error {
		// A waiting UE is a blocked "wait-isend" op, as on DES. It needs
		// no abort path: a watchdog fire ends the transfer too.
		if w := e.watch; w != nil {
			defer w.leave(w.enter(u.rank, "wait-isend", dst))
		}
		<-done
		return err
	}}
}

// newBarrier returns the goroutine backend's cond-based counting
// barrier, with the watchdog observing every blocked participant.
func (e *goroutineEngine) newBarrier(n int) commBarrier {
	b := &gBarrier{e: e, n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// gBarrier is a reusable counting barrier for the goroutine backend.
type gBarrier struct {
	e      *goroutineEngine
	mu     sync.Mutex
	cond   *sync.Cond
	n      int
	count  int
	phase  uint64
	poison error
}

func (b *gBarrier) wait(u *UE, op string, onRelease func()) error {
	if w := b.e.watch; w != nil {
		defer w.leave(w.enter(u.rank, op, -1))
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.poison != nil {
		return b.poison
	}
	phase := b.phase
	b.count++
	if b.count == b.n {
		b.count = 0
		b.phase++
		if onRelease != nil {
			onRelease()
		}
		b.cond.Broadcast()
		return nil
	}
	for b.phase == phase && b.poison == nil {
		b.cond.Wait()
	}
	if b.phase == phase {
		return b.poison
	}
	return nil
}

func (b *gBarrier) poisonWith(err error) {
	b.mu.Lock()
	if b.poison == nil {
		b.poison = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}
