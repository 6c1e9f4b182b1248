package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func mustCanonical(t *testing.T, cfg JobConfig) JobConfig {
	t.Helper()
	c, err := cfg.Canonical()
	if err != nil {
		t.Fatalf("Canonical(%+v): %v", cfg, err)
	}
	return c
}

func TestCanonicalFillsDefaults(t *testing.T) {
	c := mustCanonical(t, JobConfig{Experiment: "fig3"})
	if c.Scale != 0.25 {
		t.Errorf("default scale = %v, want 0.25", c.Scale)
	}
	if c.Stride != 1 {
		t.Errorf("default stride = %d, want 1", c.Stride)
	}
	if c.Pricing != "auto" {
		t.Errorf("default pricing = %q, want auto", c.Pricing)
	}
	// Normalization is idempotent: canonicalizing a canonical config is
	// the identity, so defaulted and explicit requests share one hash.
	again := mustCanonical(t, c)
	if again != c {
		t.Errorf("Canonical is not idempotent: %+v vs %+v", c, again)
	}
	explicit := mustCanonical(t, JobConfig{Experiment: "fig3", Scale: 0.25, Stride: 1, Pricing: "auto"})
	if explicit.Hash() != c.Hash() {
		t.Error("defaulted and explicitly-spelled configs hash differently")
	}
}

func TestCanonicalRejectsInvalid(t *testing.T) {
	bad := []struct {
		name string
		cfg  JobConfig
	}{
		{"no experiment", JobConfig{}},
		{"unknown experiment", JobConfig{Experiment: "nope"}},
		{"scale too big", JobConfig{Experiment: "fig3", Scale: 1.5}},
		{"negative scale", JobConfig{Experiment: "fig3", Scale: -0.1}},
		{"NaN scale", JobConfig{Experiment: "fig3", Scale: math.NaN()}},
		{"negative stride", JobConfig{Experiment: "fig3", Stride: -1}},
		{"negative max", JobConfig{Experiment: "fig3", MaxMatrices: -1}},
		{"bad pricing", JobConfig{Experiment: "fig3", Pricing: "psychic"}},
		{"negative parallelism", JobConfig{Experiment: "fig3", Parallelism: -1}},
		{"negative deadline", JobConfig{Experiment: "fig3", DeadlineSec: -1}},
	}
	for _, tc := range bad {
		if _, err := tc.cfg.Canonical(); err == nil {
			t.Errorf("%s: Canonical accepted %+v", tc.name, tc.cfg)
		}
	}
}

// TestHashExcludesEngineKnobs pins the content-address contract:
// Parallelism and DeadlineSec shape execution, never the result bytes,
// so they must not split the cache.
func TestHashExcludesEngineKnobs(t *testing.T) {
	base := mustCanonical(t, JobConfig{Experiment: "fig3", Scale: 0.05, Stride: 16})
	par := mustCanonical(t, JobConfig{Experiment: "fig3", Scale: 0.05, Stride: 16, Parallelism: 7, DeadlineSec: 3})
	if base.Hash() != par.Hash() {
		t.Errorf("parallelism/deadline changed the hash:\n%s\n%s", base.Key(), par.Key())
	}

	// Every result-shaping knob must split it.
	variants := []JobConfig{
		{Experiment: "fig5", Scale: 0.05, Stride: 16},
		{Experiment: "fig3", Scale: 0.1, Stride: 16},
		{Experiment: "fig3", Scale: 0.05, Stride: 8},
		{Experiment: "fig3", Scale: 0.05, Stride: 16, MaxMatrices: 1},
		{Experiment: "fig3", Scale: 0.05, Stride: 16, Pricing: "exact"},
		{Experiment: "fig3", Scale: 0.05, Stride: 16, FailFast: true},
	}
	seen := map[string]string{base.Hash(): base.Key()}
	for _, v := range variants {
		c := mustCanonical(t, v)
		if prev, dup := seen[c.Hash()]; dup {
			t.Errorf("distinct configs collide:\n%s\n%s", prev, c.Key())
		}
		seen[c.Hash()] = c.Key()
	}
}

func TestKeyIsVersioned(t *testing.T) {
	c := mustCanonical(t, JobConfig{Experiment: "fig3"})
	if !strings.HasPrefix(c.Key(), "sccsimd-job/v1|") {
		t.Errorf("key %q lacks the schema-version prefix", c.Key())
	}
}

// FuzzJobConfigCanonical hardens the job canonicaliser: any JSON body
// the daemon accepts and Canonical normalizes must be a fixed point of
// Canonical, keep its Hash, and keep both across the JSON round trip a
// client makes when it resubmits a status payload's config.
func FuzzJobConfigCanonical(f *testing.F) {
	for _, e := range experiments.All() {
		f.Add([]byte(`{"experiment":"` + e.ID + `"}`))
	}
	for _, p := range []string{"", "auto", "exact", "analytic", "bogus"} {
		for _, eng := range []string{"", "goroutine", "des", "bogus"} {
			f.Add([]byte(`{"experiment":"fig3","scale":0.05,"stride":16,"pricing":"` + p + `","engine":"` + eng + `"}`))
		}
	}
	f.Add([]byte(`{"experiment":"fig9","scale":1,"max_matrices":3,"fail_fast":true,"parallelism":2,"deadline_sec":1.5}`))
	f.Add([]byte(`{"experiment":"fig5","scale":-1,"stride":-2}`))
	f.Add([]byte(`{"experiment":""}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var cfg JobConfig
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&cfg) != nil {
			return
		}
		canon, err := cfg.Canonical()
		if err != nil {
			return // rejection is fine; panics are not
		}
		again, err := canon.Canonical()
		if err != nil {
			t.Fatalf("Canonical rejected its own output %+v: %v", canon, err)
		}
		if again != canon {
			t.Fatalf("Canonical not idempotent: %+v -> %+v", canon, again)
		}
		if again.Hash() != canon.Hash() {
			t.Fatalf("Hash moved under re-canonicalisation: %s -> %s", canon.Hash(), again.Hash())
		}
		wire, err := json.Marshal(canon)
		if err != nil {
			t.Fatal(err)
		}
		var back JobConfig
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatal(err)
		}
		if back, err = back.Canonical(); err != nil || back != canon || back.Hash() != canon.Hash() {
			t.Fatalf("JSON round trip moved the config: %+v -> %+v (%v)", canon, back, err)
		}
	})
}
