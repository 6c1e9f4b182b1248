package experiments

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateGolden rewrites testdata/golden.sha256 from the current tree:
//
//	go test ./internal/experiments -run TestGoldenDigests -update
//
// A regenerated file changes what every later refactor is held to, so the
// commit that carries it must say why the rendered output moved.
var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.sha256 from the current output")

const goldenPath = "testdata/golden.sha256"

// goldenConfig is the small fixed scale every registered experiment is
// pinned at: 5% matrices, every fourth testbed entry.
func goldenConfig() Config { return Config{Scale: 0.05, Stride: 4} }

// goldenDigests renders every registered experiment and returns the
// SHA-256 of its text and CSV renderings, keyed "<id>.txt" / "<id>.csv".
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	got := make(map[string]string)
	for _, e := range All() {
		out, err := ExecuteByID(e.ID, goldenConfig())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if out.Failed != 0 {
			t.Fatalf("%s: %d failed cells", e.ID, out.Failed)
		}
		got[e.ID+".txt"] = digest(out.Text)
		got[e.ID+".csv"] = digest(out.CSV)
	}
	return got
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// readGolden parses a sha256sum-format file ("<hex>  <name>" per line).
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

func writeGolden(t *testing.T, got map[string]string) {
	t.Helper()
	var b strings.Builder
	for _, e := range All() {
		for _, ext := range []string{".txt", ".csv"} {
			fmt.Fprintf(&b, "%s  %s\n", got[e.ID+ext], e.ID+ext)
		}
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenDigests pins every registered experiment's rendered tables
// byte for byte. Any change to the simulated numbers, the table layout or
// the registry fails it; a refactor that claims to keep the output must
// pass it with the file unchanged.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment; skipped in -short mode")
	}
	got := goldenDigests(t)
	if *updateGolden {
		writeGolden(t, got)
		t.Logf("wrote %d digests to %s", len(got), goldenPath)
		return
	}
	want := readGolden(t)
	for name, sum := range got {
		switch w, ok := want[name]; {
		case !ok:
			t.Errorf("%s: no golden digest (new experiment? regenerate with -update)", name)
		case w != sum:
			t.Errorf("%s: rendered output changed: digest %s, golden %s", name, sum[:12], w[:12])
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digest for an experiment that no longer renders", name)
		}
	}
}
