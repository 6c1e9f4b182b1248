package experiments

import (
	"strings"
	"testing"

	"repro/internal/rcce"
	"repro/internal/scc"
)

// rcceQuick keeps the executable sweep to one small matrix.
func rcceQuick() Config {
	c := quickConfig()
	c.MaxMatrices = 1
	return c
}

func TestRCCEScalingShape(t *testing.T) {
	tables, err := runRCCEScaling(rcceQuick())
	if err != nil {
		t.Fatalf("rcce-scaling failed: %v", err)
	}
	if len(tables) != 1 {
		t.Fatalf("expected 1 table, got %d", len(tables))
	}
	// Default mesh: the ladder ends at the real chip's 48 cores.
	if rows := tables[0].Rows(); rows != 8 {
		t.Errorf("expected the 8-count default ladder, got %d rows", rows)
	}
	if !strings.Contains(tables[0].String(), "6x4x2") {
		t.Errorf("table title does not name the default mesh:\n%s", tables[0].String())
	}
}

// TestRCCECrossEngineDeterminism is the tentpole's acceptance property:
// the goroutine backend (the semantic oracle) and the virtual-time DES
// scheduler must render byte-identical tables - at the real chip's 48
// UEs and on a 256-core mesh the hardware never had.
func TestRCCECrossEngineDeterminism(t *testing.T) {
	meshes := []struct {
		name string
		geom scc.Geometry
	}{
		{"48-ue-real-chip", scc.Geometry{}},
		{"256-ue-16x16x1", scc.Geometry{TilesX: 16, TilesY: 16, CoresPerTile: 1}},
	}
	for _, m := range meshes {
		t.Run(m.name, func(t *testing.T) {
			render := func(b rcce.Backend) (string, string) {
				cfg := rcceQuick()
				cfg.Engine = b
				cfg.Mesh = m.geom
				out, err := ExecuteByID("rcce-scaling", cfg)
				if err != nil {
					t.Fatalf("engine %v failed: %v", b, err)
				}
				return out.Text, out.CSV
			}
			gTxt, gCSV := render(rcce.BackendGoroutine)
			dTxt, dCSV := render(rcce.BackendDES)
			if gTxt != dTxt {
				t.Errorf("text tables differ between engines:\ngoroutine:\n%s\ndes:\n%s", gTxt, dTxt)
			}
			if gCSV != dCSV {
				t.Errorf("CSV tables differ between engines:\ngoroutine:\n%s\ndes:\n%s", gCSV, dCSV)
			}
		})
	}
}
