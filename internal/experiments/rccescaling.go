package experiments

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "rcce-scaling",
		Title: "RCCE runtime scaling: communication volume across UE counts (executable)",
		Run:   runRCCEScaling,
	})
}

// runRCCEScaling sweeps the executable RCCE SpMV across UE counts on the
// configured mesh and engine: per count, the messages/bytes/barriers the
// runtime really generated, the mapping's mean hop distance and the
// product checksum. The rows are engine-independent by construction (no
// wall or virtual time), so the goroutine and DES backends render
// bit-identical tables - the property `make des-smoke` and the
// cross-engine determinism tests pin down. The sweep runs on the first
// selected testbed matrix: scaling behaviour is a property of the
// runtime, not the suite, and one matrix keeps 1024-UE meshes cheap.
func runRCCEScaling(cfg Config) ([]*stats.Table, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	entries := cfg.entries()
	if len(entries) == 0 {
		return nil, fmt.Errorf("experiments: rcce-scaling: empty testbed selection")
	}
	e := entries[0]
	a, err := cfg.fetchMatrix(e)
	if err != nil {
		return nil, fmt.Errorf("experiments: matrix %s: %w", e.Name, err)
	}
	geom := cfg.Mesh.OrDefault()
	rows, err := sim.RunRCCESweep(a, sim.RCCESweepOptions{
		Engine:   cfg.Engine,
		Geometry: cfg.Mesh,
		Deadline: rcceSweepDeadline,
		Fault:    cfg.Fault,
	})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("RCCE scaling - %s mesh, matrix %s", geom, e.Name),
		"UEs", "messages", "bytes", "barriers", "mean hops", "checksum",
	)
	for _, r := range rows {
		t.AddRow(r.UEs, r.Messages, r.Bytes, r.Barriers, r.MeanHops, r.Checksum)
	}
	t.AddNote("executable runtime counters (not simulated); identical on every engine and host parallelism")
	return []*stats.Table{t}, nil
}

// rcceSweepDeadline bounds every rendezvous of the sweep's runs: generous
// enough that a loaded CI host never trips it, tight enough that a
// genuinely wedged program fails the experiment instead of hanging it.
const rcceSweepDeadline = 5 * time.Minute
