// Package rcce is a functional workalike of the part of Intel's RCCE
// ("rocky") lightweight message-passing library for the SCC that the
// paper's SpMV uses: a fixed set of units of execution (UEs) addressed by
// rank, synchronous point-to-point messages that move through an 8 KB-per-
// core message passing buffer in line-sized chunks, a barrier, and
// shared-memory allocation (x lives in shared memory; rank 0 gathers y).
// IsendFloat64s, after the iRCCE extension library, runs a send in the
// background for the distributed halo exchange.
//
// The package is *functionally* real - messages actually move between
// tasks and a misordered program really deadlocks - while performance
// and power figures come from the separate timing simulator in
// internal/sim.
//
// Two engines implement the runtime behind a common seam (Options.Backend):
// the default goroutine backend (one live goroutine per UE, unbuffered
// channels, a wall-clock watchdog - the semantic oracle), and a
// discrete-event backend (BackendDES) that schedules every UE on one host
// thread in virtual time, unlocking deterministic runs, exact deadlock
// detection, free injected latencies and mesh sizes far beyond the real
// chip's 48 cores (Options.Geometry).
//
// Robustness: RunWith arms a per-operation deadline watchdog that converts
// a wedged program into a structured DeadlockError naming the blocked
// ranks and operations, and accepts a fault.Plan that deterministically
// wedges or fails a rank mid-iteration and drops or delays individual
// messages (the chaos-test harness). With no deadline, RunWith keeps
// RCCE's original block-forever semantics.
package rcce

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/scc"
)

// ChunkBytes is the unit in which point-to-point payloads move through the
// message passing buffer: one UE's MPB share.
const ChunkBytes = scc.MPBBytesPerCore

// Options configures a RunWith beyond the paper's defaults.
type Options struct {
	// Deadline bounds every blocking communication rendezvous (send and
	// receive chunks, barriers, isend waits, injected delays). When any
	// single rendezvous stays blocked past the deadline, a watchdog
	// aborts the whole program with a DeadlockError naming the blocked
	// ranks and ops. 0 keeps RCCE's block-forever semantics on the
	// goroutine backend; the DES backend additionally reports genuine
	// deadlocks exactly even without a deadline, because its event model
	// proves when no progress is possible.
	Deadline time.Duration
	// Fault is the deterministic fault-injection plan consulted at every
	// communication operation (nil injects nothing). A wedged rank only
	// terminates if Deadline is also set - exactly like real hung
	// hardware under a watchdog (goroutine backend; DES reports it at
	// quiescence regardless).
	Fault *fault.Plan
	// Recorder receives flight-recorder events (injected wedges/fails,
	// dropped messages, watchdog ticks, the deadlock verdict) on track
	// "rcce". Nil records nothing; the recorder is write-only, so arming
	// it cannot change what the program computes.
	Recorder *obs.Recorder
	// Backend selects the concurrency engine (see Backend). The zero
	// value is the goroutine backend, the paper-era default.
	Backend Backend
	// Geometry sets the simulated chip's mesh dimensions. The zero value
	// is the real SCC (6x4 tiles, 2 cores per tile, 48 cores); custom
	// geometries lift the UE cap for beyond-the-hardware scaling runs
	// (e.g. 32x32x1 = 1024 UEs).
	Geometry scc.Geometry
}

// comm is one parallel program instance: the state shared by its UEs.
//
// Concurrency audit: n, deadline, plan, eng, rec and barrier are written
// once before the engine launches the UE tasks and are read-only
// afterwards; the per-pair message counters are guarded by seqMu, the
// shared-memory table by shmMu, and the traffic/op counters are typed
// atomics, so a plain access to one cannot compile (sccvet's
// atomic-consistency pass bans the sync/atomic pointer functions, which
// leaves typed atomics the only kind). Engine-internal state (channel
// tables, the event queue) lives in the engine, under its own discipline.
type comm struct {
	n int

	// deadline/plan/rec are the robustness layer: per-op deadline,
	// fault-injection plan and the flight recorder events land on (nil
	// when unarmed). eng is the concurrency engine everything blocking
	// routes through.
	deadline time.Duration
	plan     *fault.Plan
	rec      *obs.Recorder
	eng      engine

	// msgSeq counts Send calls per (src, dst) pair - the sequence
	// numbers fault.Plan message matches use; seqMu guards the table.
	msgSeq map[pairKey]int
	seqMu  sync.Mutex

	// barrier is the program's one barrier; the watchdog poisons it when
	// it fires.
	barrier commBarrier

	shmMu sync.Mutex
	shm   map[string][]float64

	// opSeq counts each rank's communication operations (sends,
	// receives, barriers), the per-rank program order fault.Plan rank
	// faults key on.
	opSeq []atomic.Int64

	// statistics
	msgs  atomic.Uint64
	bytes atomic.Uint64
	bars  atomic.Uint64
}

type pairKey struct{ src, dst int }

// UE is the handle each unit of execution receives; it is only valid inside
// the body function passed to RunWith.
type UE struct {
	comm *comm
	rank int
}

// RunWith starts n units of execution mapped onto cores by mapping (nil
// means the RCCE default, rank r on core r) and runs body concurrently in
// each, with the deadline watchdog, fault-injection plan, engine and mesh
// geometry of opts armed (the zero Options is the paper's setup with
// RCCE's block-forever semantics). It returns after every UE finishes,
// joining any errors. The mapping is validated against the geometry but
// does not change what the program computes. The domains argument is
// unused: the power figures come from the timing simulator, not from the
// runtime.
func RunWith(opts Options, n int, mapping scc.Mapping, domains scc.FreqDomains, body func(*UE) error) error {
	geom := opts.Geometry.OrDefault()
	if err := geom.Validate(); err != nil {
		return err
	}
	if n <= 0 || n > geom.NumCores() {
		return fmt.Errorf("rcce: cannot run %d UEs on %d cores", n, geom.NumCores())
	}
	if mapping == nil {
		mapping = geom.StandardMapping(n)
	}
	if len(mapping) != n {
		return fmt.Errorf("rcce: mapping size %d != %d UEs", len(mapping), n)
	}
	if err := geom.ValidateMapping(mapping); err != nil {
		return err
	}
	if opts.Deadline < 0 {
		return fmt.Errorf("rcce: negative deadline %v", opts.Deadline)
	}
	c := &comm{
		n:        n,
		deadline: opts.Deadline,
		plan:     opts.Fault,
		rec:      opts.Recorder,
		msgSeq:   make(map[pairKey]int),
		shm:      make(map[string][]float64),
		opSeq:    make([]atomic.Int64, n),
	}
	switch opts.Backend {
	case BackendGoroutine:
		c.eng = newGoroutineEngine(c)
	case BackendDES:
		c.eng = newDESEngine(c)
	default:
		return fmt.Errorf("rcce: unknown backend %v", opts.Backend)
	}
	c.barrier = c.eng.newBarrier(n)
	return c.eng.run(body)
}

// nextMsgSeq returns this Send's per-pair sequence number (the identity
// fault.Plan message matches use).
func (c *comm) nextMsgSeq(src, dst int) int {
	c.seqMu.Lock()
	defer c.seqMu.Unlock()
	k := pairKey{src, dst}
	seq := c.msgSeq[k]
	c.msgSeq[k] = seq + 1
	return seq
}

// Rank returns the UE's rank (0..NumUEs-1).
func (u *UE) Rank() int { return u.rank }

// NumUEs returns the number of units of execution in the program.
func (u *UE) NumUEs() int { return u.comm.n }

// preOp counts this rank's communication operation and applies any
// injected rank fault: ActFail returns ErrInjected-wrapped failure,
// ActWedge parks the rank until the watchdog aborts the program (forever
// when no deadline is armed, like real hung hardware).
func (u *UE) preOp(op string, peer int) error {
	c := u.comm
	seq := int(c.opSeq[u.rank].Add(1)) - 1
	switch c.plan.OnRankOp(u.rank, seq) {
	case fault.ActFail:
		c.rec.Recordf(rcceTrack, "fault_fail", "injected fail",
			"rank %d failed at %s op %d", u.rank, op, seq)
		return fmt.Errorf("rcce: UE %d %s op %d: %w", u.rank, op, seq, fault.ErrInjected)
	case fault.ActWedge:
		c.rec.Recordf(rcceTrack, "fault_wedge", "injected wedge",
			"rank %d wedged at %s op %d", u.rank, op, seq)
		return c.eng.park(u, "wedged:"+op, peer)
	}
	return nil
}

// rcceTrack is the flight-recorder timeline row for runtime events.
const rcceTrack = "rcce"

// Send transmits data to the UE with the given rank, blocking until the
// receiver has accepted all of it. Payloads move in ChunkBytes pieces, as
// through the MPB. Sending to oneself or to an invalid rank is an error.
func (u *UE) Send(data []byte, dst int) error {
	if dst < 0 || dst >= u.comm.n {
		return fmt.Errorf("rcce: send to invalid rank %d (have %d UEs)", dst, u.comm.n)
	}
	if dst == u.rank {
		return fmt.Errorf("rcce: UE %d sending to itself", u.rank)
	}
	if err := u.preOp("send", dst); err != nil {
		return err
	}
	seq := u.comm.nextMsgSeq(u.rank, dst)
	if drop, delay := u.comm.plan.OnMessage(u.rank, dst, seq); drop {
		// The message vanishes after the send "completes": the receiver
		// stays blocked, which the watchdog converts into a structured
		// DeadlockError naming it.
		u.comm.rec.Recordf(rcceTrack, "fault_drop", "dropped message",
			"message %d->%d seq %d dropped", u.rank, dst, seq)
		u.comm.msgs.Add(1)
		return nil
	} else if delay > 0 {
		// The injected latency is a blocked "delay" op like any other
		// rendezvous: the watchdog observes it and an abort interrupts
		// it (a bare sleep here used to survive a watchdog fire and
		// then still perform its rendezvous).
		if err := u.comm.eng.delay(u, dst, delay); err != nil {
			return err
		}
	}
	// A message is a run of chunks whose last one is marked, so the
	// receiver sees where it ends; an empty message is one empty marked
	// chunk.
	for off := 0; ; off += ChunkBytes {
		end := min(off+ChunkBytes, len(data))
		chunk := make([]byte, end-off)
		copy(chunk, data[off:end])
		last := end == len(data)
		if err := u.comm.eng.sendChunk(u, dst, chunk, last); err != nil {
			return err
		}
		if last {
			break
		}
	}
	u.comm.msgs.Add(1)
	u.comm.bytes.Add(uint64(len(data)))
	return nil
}

// Recv receives exactly len(buf) bytes from rank src, blocking until the
// matching Send completes. The sizes on both sides must agree, as in RCCE:
// a message that ends before buf is full, or that runs past it, is a size
// mismatch.
func (u *UE) Recv(buf []byte, src int) error {
	if src < 0 || src >= u.comm.n {
		return fmt.Errorf("rcce: recv from invalid rank %d (have %d UEs)", src, u.comm.n)
	}
	if src == u.rank {
		return fmt.Errorf("rcce: UE %d receiving from itself", u.rank)
	}
	if err := u.preOp("recv", src); err != nil {
		return err
	}
	for off := 0; ; {
		chunk, last, err := u.comm.eng.recvChunk(u, src)
		if err != nil {
			return err
		}
		end := off + len(chunk)
		if end > len(buf) || last != (end == len(buf)) {
			return fmt.Errorf("rcce: UE %d received a message from %d that does not fit its %d-byte window (%d bytes so far, last chunk %v): size mismatch",
				u.rank, src, len(buf), end, last)
		}
		copy(buf[off:], chunk)
		off = end
		if last {
			return nil
		}
	}
}

// Barrier blocks until every UE in the program has entered it, mirroring
// RCCE_barrier over the global communicator. It returns non-nil only when
// the robustness layer aborts the program (deadline watchdog fired or an
// injected rank fault hit this UE).
func (u *UE) Barrier() error {
	if err := u.preOp("barrier", -1); err != nil {
		return err
	}
	return u.comm.barrier.wait(u, "barrier", func() { u.comm.bars.Add(1) })
}

// SendFloat64s sends a float64 slice to dst.
func (u *UE) SendFloat64s(vals []float64, dst int) error {
	return u.Send(float64sToBytes(vals), dst)
}

// IsendFloat64s starts a non-blocking send of a float64 slice to dst
// (see isend); vals is encoded before it returns, so the caller may reuse
// it at once.
func (u *UE) IsendFloat64s(vals []float64, dst int) *Request {
	return u.isend(float64sToBytes(vals), dst)
}

// RecvFloat64s receives exactly len(out) float64s from src.
func (u *UE) RecvFloat64s(out []float64, src int) error {
	buf := make([]byte, 8*len(out))
	if err := u.Recv(buf, src); err != nil {
		return err
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// float64sToBytes is the float64 wire encoding: little-endian IEEE 754.
func float64sToBytes(vals []float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// Stats reports the communication volume of the program so far.
type Stats struct {
	Messages, Bytes, Barriers uint64
}

// Stats returns a snapshot of the program's communication counters.
func (u *UE) Stats() Stats {
	return Stats{
		Messages: u.comm.msgs.Load(),
		Bytes:    u.comm.bytes.Load(),
		Barriers: u.comm.bars.Load(),
	}
}
