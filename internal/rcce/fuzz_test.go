package rcce

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/scc"
)

// Engine differential fuzzing. A fuzz input decodes into a small program
// over the API - Send/Recv, isend (the byte path behind IsendFloat64s),
// SendFloat64s/RecvFloat64s, IsendFloat64s, Barrier and Shmalloc - that
// both engines run under the same deadline. A program whose ops all match must give the same rank-0
// vector and the same Stats on both; a program with an unmatched op or a
// size mismatch must give every rank the same error on both, down to the
// (rank, op, peer) set of a DeadlockError.

const (
	fuzzMaxUEs   = 8  // UEs per program, so goroutines per run stay small
	fuzzMaxSteps = 12 // script steps, so ops per rank stay small
)

// fuzzSizes are the message sizes a step picks from: empty, tiny, and
// around the MPB chunk boundary.
var fuzzSizes = []int{0, 1, 8, 100, ChunkBytes - 8, ChunkBytes, ChunkBytes + 8, 2*ChunkBytes + 16}

// Step kinds. The first five are well-formed; the last two inject a fault.
const (
	stepSend       = iota // Send -> Recv
	stepIsend             // isend -> Recv
	stepFloats            // SendFloat64s -> RecvFloat64s
	stepIsendFloat        // IsendFloat64s -> RecvFloat64s
	stepBarrier           // every rank: Barrier
	stepShm               // every rank: Shmalloc, write own slot, Barrier, read all
	stepMismatch          // Send -> Recv of another size
	stepUnmatched         // only one side of a Send/Recv pair
	numStepKinds
)

type fuzzStep struct {
	kind     int
	src, dst int
	size     int // bytes, or float64s for the float kinds, or shm slots per rank
	recvSize int // stepMismatch: the receiver's window
	sendOnly bool
}

type fuzzProgram struct {
	n      int
	steps  []fuzzStep
	faulty bool
}

// decodeFuzzProgram turns fuzz bytes into a program: nByte picks 2..8
// UEs, and each 3-byte group of script is one step (kind, src, dst and
// size packed into the bytes). At most one fault step is kept.
func decodeFuzzProgram(nByte uint8, script []byte) fuzzProgram {
	p := fuzzProgram{n: 2 + int(nByte)%(fuzzMaxUEs-1)}
	for i := 0; i+2 < len(script) && len(p.steps) < fuzzMaxSteps; i += 3 {
		op, a, b := script[i], int(script[i+1]), int(script[i+2])
		st := fuzzStep{kind: int(op) % numStepKinds, src: a % p.n, dst: b % p.n}
		if st.dst == st.src {
			st.dst = (st.src + 1) % p.n
		}
		st.size = fuzzSizes[int(op>>4)%len(fuzzSizes)]
		switch st.kind {
		case stepFloats, stepIsendFloat:
			st.size /= 8
		case stepShm:
			st.size = 1 + int(op>>4)%4
		case stepMismatch, stepUnmatched:
			if p.faulty {
				continue
			}
			p.faulty = true
			st.recvSize = fuzzSizes[(int(op>>4)+1+(b>>4)%(len(fuzzSizes)-1))%len(fuzzSizes)]
			st.sendOnly = op&8 != 0
		}
		p.steps = append(p.steps, st)
	}
	return p
}

// fuzzRank is one UE's view of the running program: what it has received
// so far (a checksum) and its in-flight isends by destination.
type fuzzRank struct {
	u       *UE
	sum     uint64
	pending map[int]*Request
}

func (r *fuzzRank) absorb(b []byte) {
	for _, c := range b {
		r.sum = r.sum*1099511628211 + uint64(c) + 1
	}
	r.sum = r.sum*31 + uint64(len(b))
}

// flush waits for an in-flight isend to dst, so a later send on the same
// pair cannot overtake it.
func (r *fuzzRank) flush(dst int) error {
	req := r.pending[dst]
	delete(r.pending, dst)
	if req == nil {
		return nil
	}
	return req.Wait()
}

// flushAll waits for every in-flight isend in destination order.
func (r *fuzzRank) flushAll() error {
	var first error
	for dst := 0; dst < r.u.NumUEs(); dst++ {
		if err := r.flush(dst); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// payload is the deterministic content of step i's message.
func payload(i, src, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i*7 + src*13 + j)
	}
	return b
}

func floats(b []byte) []float64 {
	v := make([]float64, len(b))
	for j, c := range b {
		v[j] = float64(c) - 0.5
	}
	return v
}

func (r *fuzzRank) step(i int, st fuzzStep) error {
	u := r.u
	me := u.Rank()
	switch st.kind {
	case stepBarrier:
		return u.Barrier()
	case stepShm:
		s, err := u.Shmalloc(fmt.Sprintf("shm%d", i), st.size*u.NumUEs())
		if err != nil {
			return err
		}
		for j := 0; j < st.size; j++ {
			s[me*st.size+j] = float64(i + me + j)
		}
		if err := u.Barrier(); err != nil {
			return err
		}
		for _, v := range s {
			r.absorb([]byte{byte(v)})
		}
		// A second barrier keeps a later step's writes out of this read.
		return u.Barrier()
	}
	data := payload(i, st.src, st.size)
	switch {
	case me == st.src && !(st.kind == stepUnmatched && !st.sendOnly):
		if err := r.flush(st.dst); err != nil {
			return err
		}
		switch st.kind {
		case stepIsend:
			r.pending[st.dst] = u.isend(data, st.dst)
			return nil
		case stepFloats:
			return u.SendFloat64s(floats(data), st.dst)
		case stepIsendFloat:
			r.pending[st.dst] = u.IsendFloat64s(floats(data), st.dst)
			return nil
		}
		return u.Send(data, st.dst)
	case me == st.dst && !(st.kind == stepUnmatched && st.sendOnly):
		switch st.kind {
		case stepFloats, stepIsendFloat:
			got := make([]float64, st.size)
			if err := u.RecvFloat64s(got, st.src); err != nil {
				return err
			}
			if !reflect.DeepEqual(got, floats(data)) {
				return fmt.Errorf("step %d: rank %d received %v", i, me, got)
			}
			r.absorb(data)
			return nil
		case stepMismatch:
			data = make([]byte, st.recvSize)
		}
		if err := u.Recv(data, st.src); err != nil {
			return err
		}
		r.absorb(data)
	}
	return nil
}

// fuzzOutcome is what one engine's run of a program shows: rank 0's
// vector of every rank's checksum, the Stats rank 0 read after a final
// barrier, and each rank's error.
type fuzzOutcome struct {
	vec   []float64
	stats Stats
	errs  []error
}

func runFuzzProgram(b Backend, p fuzzProgram) fuzzOutcome {
	deadline := 5 * time.Second
	if p.faulty {
		// Long enough that every rank reaches the op it stays stuck in
		// before the goroutine engine's watchdog fires.
		deadline = 100 * time.Millisecond
	}
	out := fuzzOutcome{errs: make([]error, p.n)}
	err := RunWith(Options{Backend: b, Deadline: deadline}, p.n, nil, scc.Uniform(scc.Conf0), func(u *UE) (err error) {
		r := &fuzzRank{u: u, pending: map[int]*Request{}}
		defer func() {
			// Every isend is joined, on the error path too, so no
			// transfer outlives the program.
			if werr := r.flushAll(); err == nil {
				err = werr
			}
			out.errs[u.Rank()] = err
		}()
		for i, st := range p.steps {
			if err := r.step(i, st); err != nil {
				return err
			}
		}
		if err := r.flushAll(); err != nil {
			return err
		}
		sums, err := u.Shmalloc("sums", u.NumUEs())
		if err != nil {
			return err
		}
		sums[u.Rank()] = float64(r.sum >> 12)
		if err := u.Barrier(); err != nil {
			return err
		}
		if u.Rank() == 0 {
			out.vec = append([]float64(nil), sums...)
			out.stats = u.Stats()
		}
		return nil
	})
	if err != nil && !p.faulty {
		out.errs = append(out.errs, err)
	}
	return out
}

// describe renders one rank's error for comparison: a DeadlockError by
// its sorted (rank, op, peer) set - the time each op was blocked differs
// between wall and virtual clocks - anything else by its text.
func describe(err error) string {
	var derr *DeadlockError
	if errors.As(err, &derr) {
		s := "deadlock:"
		for _, op := range derr.Blocked {
			s += fmt.Sprintf(" %d/%s/%d", op.Rank, op.Op, op.Peer)
		}
		return s
	}
	if err == nil {
		return "ok"
	}
	return err.Error()
}

func checkEnginesAgree(t *testing.T, p fuzzProgram) {
	g := runFuzzProgram(BackendGoroutine, p)
	d := runFuzzProgram(BackendDES, p)
	if len(g.errs) != len(d.errs) {
		t.Fatalf("program %+v: goroutine errors %v, des errors %v", p, g.errs, d.errs)
	}
	for r := range g.errs {
		if gs, ds := describe(g.errs[r]), describe(d.errs[r]); gs != ds {
			t.Errorf("program %+v: rank %d: goroutine %q, des %q", p, r, gs, ds)
		}
	}
	if p.faulty {
		failed := false
		for _, err := range g.errs {
			failed = failed || err != nil
		}
		if !failed {
			t.Errorf("program %+v: the fault went unnoticed", p)
		}
		return
	}
	for r, err := range g.errs {
		if err != nil {
			t.Fatalf("program %+v: well-formed program failed at rank %d: %v", p, r, err)
		}
	}
	if !reflect.DeepEqual(g.vec, d.vec) {
		t.Errorf("program %+v: rank-0 vector: goroutine %v, des %v", p, g.vec, d.vec)
	}
	if g.stats != d.stats {
		t.Errorf("program %+v: stats: goroutine %+v, des %+v", p, g.stats, d.stats)
	}
}

// FuzzEnginesAgree runs each decoded program on both engines and demands
// the same outcome. The seed corpus holds only three faulty programs,
// because each costs the goroutine engine a watchdog deadline.
func FuzzEnginesAgree(f *testing.F) {
	f.Add(uint8(2), []byte{
		stepSend | 0x30, 0, 1, stepIsend | 0x70, 1, 2, stepBarrier, 0, 0,
		stepFloats | 0x20, 3, 0, stepIsendFloat | 0x60, 2, 0, stepShm | 0x10, 0, 0,
		stepSend | 0x40, 2, 1, stepIsend | 0x50, 0, 3,
	})
	f.Add(uint8(6), []byte{
		stepIsend | 0x70, 0, 7, stepIsend | 0x70, 7, 0, stepIsend, 3, 4, stepSend, 4, 3,
		stepBarrier, 0, 0, stepIsendFloat | 0x30, 5, 6, stepIsendFloat | 0x30, 5, 6,
	})
	f.Add(uint8(0), []byte{stepSend | 0x00, 0, 1, stepIsend | 0x10, 1, 0, stepShm | 0x30, 0, 0})
	f.Add(uint8(1), []byte{stepSend | 0x30, 0, 1, stepMismatch | 0x70, 1, 2, stepBarrier, 0, 0})
	f.Add(uint8(2), []byte{stepIsend | 0x20, 2, 0, stepUnmatched | 0x08 | 0x40, 0, 3, stepSend, 1, 2})
	// A receive with no send, so rank 0's isend to rank 1 stays stuck
	// while rank 0 waits for it: both engines must report the waiting UE
	// and the transfer as two ops.
	f.Add(uint8(1), []byte("700000100200011100"))
	f.Fuzz(func(t *testing.T, n uint8, script []byte) {
		p := decodeFuzzProgram(n, script)
		checkEnginesAgree(t, p)
	})
}
