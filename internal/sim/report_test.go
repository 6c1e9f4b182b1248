package sim

import (
	"strings"
	"testing"

	"repro/internal/scc"
)

func TestWriteReport(t *testing.T) {
	m := NewMachine(scc.Conf0)
	r := mustRun(t, m, fixSmall, Options{UEs: 4})
	var b strings.Builder
	if err := r.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, needle := range []string{"matrix", "throughput", "MFLOPS/W", "rank", "slowdown"} {
		if !strings.Contains(out, needle) {
			t.Fatalf("report missing %q:\n%s", needle, out)
		}
	}
	// One line per core plus headers.
	if lines := strings.Count(out, "\n"); lines < 4+2+4 {
		t.Fatalf("report too short (%d lines):\n%s", lines, out)
	}
}
