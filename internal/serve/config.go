// Package serve is the simulation-as-a-service layer: a long-running
// HTTP/JSON daemon (cmd/sccsimd) that wraps the deterministic experiment
// harness (internal/experiments) behind a job API. Clients POST job
// configurations, receive job IDs, poll or stream progress (fed by the
// internal/obs span tree and counter scopes), and fetch the rendered
// tables when done.
//
// Determinism is the service's lever: every (experiment, scale, machine,
// pricing) cell has exactly one answer, so finished results land in a
// content-addressed store keyed by a canonical hash of the normalized job
// configuration. Resubmitting an identical job is a cache hit served with
// bit-identical bytes and zero simulation work, and duplicate submissions
// that arrive while the first is still queued or running coalesce onto
// that one execution (single-flight).
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/rcce"
	"repro/internal/sim"
)

// JobConfig is the wire form of one simulation request. The zero value
// of every optional field selects the server-side default, mirroring
// cmd/sccsim's flags.
type JobConfig struct {
	// Experiment is the registry id to run (e.g. "fig5"; required).
	Experiment string `json:"experiment"`
	// Scale shrinks every testbed matrix, in (0, 1]. 0 means the
	// standard quarter scale.
	Scale float64 `json:"scale,omitempty"`
	// Stride keeps only every Stride-th testbed entry (0 or 1 = all).
	Stride int `json:"stride,omitempty"`
	// MaxMatrices truncates the selected testbed (0 = all).
	MaxMatrices int `json:"max_matrices,omitempty"`
	// Pricing selects the cache-pricing backend: "exact", "analytic" or
	// "" / "auto" (analytic only where provably bit-identical).
	Pricing string `json:"pricing,omitempty"`
	// FailFast aborts the job at the first failing cell instead of
	// isolating it into an error row.
	FailFast bool `json:"fail_fast,omitempty"`
	// Parallelism bounds the host worker pool of THIS job's engine
	// (0 = GOMAXPROCS). An engine knob, not a result knob: the engine is
	// bit-deterministic at every worker count, so Parallelism is
	// excluded from the result hash.
	Parallelism int `json:"parallelism,omitempty"`
	// Engine selects the RCCE backend for executable-runtime experiments:
	// "goroutine" (or "", the default) or "des" (the virtual-time
	// scheduler). An engine knob like Parallelism, not a result knob: the
	// cross-engine determinism tests prove both backends render
	// bit-identical tables, so Engine is excluded from the result hash
	// and identical jobs on different engines share one cached result.
	Engine string `json:"engine,omitempty"`
	// DeadlineSec bounds the job's execution (0 = the server default).
	// Also excluded from the result hash: a deadline changes whether a
	// result is produced, never which bytes it holds.
	DeadlineSec float64 `json:"deadline_sec,omitempty"`
}

// Canonical validates the config and fills every defaulted field,
// returning the normalized form that Key and Hash are defined over.
// Two requests that normalize identically ARE the same job.
func (c JobConfig) Canonical() (JobConfig, error) {
	if c.Experiment == "" {
		return c, fmt.Errorf("serve: job config needs an experiment id")
	}
	if _, ok := experiments.ByID(c.Experiment); !ok {
		return c, fmt.Errorf("serve: unknown experiment %q", c.Experiment)
	}
	if c.Scale == 0 {
		c.Scale = 0.25
	}
	if !(c.Scale > 0 && c.Scale <= 1) {
		return c, fmt.Errorf("serve: scale %v outside (0, 1]", c.Scale)
	}
	if c.Stride == 0 {
		c.Stride = 1
	}
	if c.Stride < 1 {
		return c, fmt.Errorf("serve: stride %d invalid: need >= 1", c.Stride)
	}
	if c.MaxMatrices < 0 {
		return c, fmt.Errorf("serve: max_matrices %d invalid: need >= 0", c.MaxMatrices)
	}
	p, err := sim.ParsePricing(c.Pricing)
	if err != nil {
		return c, fmt.Errorf("serve: %w", err)
	}
	c.Pricing = p.String()
	b, err := rcce.ParseBackend(c.Engine)
	if err != nil {
		return c, fmt.Errorf("serve: %w", err)
	}
	c.Engine = b.String()
	if c.Parallelism < 0 {
		return c, fmt.Errorf("serve: parallelism %d invalid: need >= 0", c.Parallelism)
	}
	if c.DeadlineSec < 0 {
		return c, fmt.Errorf("serve: deadline_sec %v invalid: need >= 0", c.DeadlineSec)
	}
	return c, nil
}

// Key is the canonical content identity of the job's RESULT: every
// normalized field that shapes the rendered bytes, and nothing else.
// Parallelism, DeadlineSec and Engine are deliberately absent - the
// engine's determinism tests prove worker count never changes a byte, a
// deadline only decides whether bytes are produced at all, and the
// goroutine and DES backends render bit-identical tables (the
// cross-engine determinism tests). Callers must pass a
// Canonical()-normalized config.
func (c JobConfig) Key() string {
	return fmt.Sprintf("sccsimd-job/v1|exp=%s|scale=%g|stride=%d|max=%d|pricing=%s|failfast=%t",
		c.Experiment, c.Scale, c.Stride, c.MaxMatrices, c.Pricing, c.FailFast)
}

// Hash is the content address of the job's result: the hex SHA-256 of
// Key. It keys the result store and single-flight coalescing.
func (c JobConfig) Hash() string {
	sum := sha256.Sum256([]byte(c.Key()))
	return hex.EncodeToString(sum[:])
}

// pricing resolves the normalized pricing string (Canonical validated it).
func (c JobConfig) pricing() sim.Pricing {
	p, _ := sim.ParsePricing(c.Pricing)
	return p
}

// engine resolves the normalized engine string (Canonical validated it).
func (c JobConfig) engine() rcce.Backend {
	b, _ := rcce.ParseBackend(c.Engine) //sccvet:allow error-discard Canonical already validated and normalized the engine string; this re-parse cannot fail
	return b
}
