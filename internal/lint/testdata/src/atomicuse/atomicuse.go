// Corpus for the atomic-consistency analyzer: a sync/atomic pointer
// function is a finding; a typed atomic is not.
package atomicuse

import "sync/atomic"

type counter struct {
	n    uint64
	hits atomic.Uint64
}

func (c *counter) Inc() {
	atomic.AddUint64(&c.n, 1) // want `atomic.AddUint64 makes a plain word atomic`
}

func (c *counter) TypedOK() uint64 {
	c.hits.Add(1)
	return c.hits.Load()
}
