package rcce

import "fmt"

// Shared memory. A part of the SCC's main memory is mapped into every
// core; RCCE exposes it through RCCE_shmalloc. Because the chip has no
// cache coherence, programs must take care to flush/synchronise around
// shared accesses - here a Barrier is the synchronisation point, and the
// slices returned by Shmalloc are plain Go memory shared by all UEs (the
// Go memory model makes the barrier a happens-before edge, mirroring the
// flush-then-synchronise discipline SCC code needs).

// Shmalloc returns the shared float64 slice registered under name, with n
// elements, allocating it on first use. Every UE calling Shmalloc with the
// same name receives the same slice; a size disagreement is an error.
// Callers must synchronise access with Barrier, like real SCC software
// coherence.
func (u *UE) Shmalloc(name string, n int) ([]float64, error) {
	if n < 0 {
		return nil, fmt.Errorf("rcce: shmalloc of negative size %d", n)
	}
	c := u.comm
	c.shmMu.Lock()
	defer c.shmMu.Unlock()
	if s, ok := c.shm[name]; ok {
		if len(s) != n {
			return nil, fmt.Errorf("rcce: shmalloc %q size %d conflicts with existing %d", name, n, len(s))
		}
		return s, nil
	}
	s := make([]float64, n)
	c.shm[name] = s
	return s, nil
}
