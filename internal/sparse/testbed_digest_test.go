package sparse

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// updateTestbed rewrites testdata/testbed.sha256 from the current generator:
//
//	go test ./internal/sparse -run TestTestbedDigests -update
//
// A regenerated file changes every matrix the experiments run on, so the
// commit that carries it must say why the generator's output moved.
var updateTestbed = flag.Bool("update", false, "rewrite testdata/testbed.sha256 from the current generator")

const testbedDigestPath = "testdata/testbed.sha256"

// testbedDigestScales are the scales every testbed entry is pinned at.
var testbedDigestScales = []float64{0.05, 0.1}

// csrDigest hashes a matrix's shape and arrays: Rows, Cols, Ptr, Index and
// the IEEE-754 bits of Val, all little-endian. The name is not hashed.
func csrDigest(m *CSR) string {
	h := sha256.New()
	buf := make([]byte, 0, 16+4*(len(m.Ptr)+len(m.Index))+8*len(m.Val))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Rows))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Cols))
	for _, p := range m.Ptr {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p))
	}
	for _, c := range m.Index {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	for _, v := range m.Val {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil))
}

// testbedDigestKey names one pinned matrix: "<name>@<scale>".
func testbedDigestKey(e TestbedEntry, f float64) string {
	return fmt.Sprintf("%s@%g", e.Name, f)
}

// TestTestbedDigests pins the bytes of every testbed entry at
// testbedDigestScales. The experiment goldens see only the matrices the
// registered experiments render at their test scale; this sees all 32, so a
// generator change that claims identical output must pass it with the file
// unchanged.
func TestTestbedDigests(t *testing.T) {
	var keys []string
	got := make(map[string]string)
	for _, f := range testbedDigestScales {
		for _, e := range Testbed() {
			k := testbedDigestKey(e, f)
			keys = append(keys, k)
			got[k] = csrDigest(e.GenerateScaled(f))
		}
	}
	if *updateTestbed {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "%s  %s\n", got[k], k)
		}
		if err := os.MkdirAll(filepath.Dir(testbedDigestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(testbedDigestPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d digests to %s", len(keys), testbedDigestPath)
		return
	}
	f, err := os.Open(testbedDigestPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", testbedDigestPath, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		switch w, ok := want[k]; {
		case !ok:
			t.Errorf("%s: no pinned digest (regenerate with -update)", k)
		case w != got[k]:
			t.Errorf("%s: generated matrix changed: digest %s, pinned %s", k, got[k][:12], w[:12])
		}
	}
	if len(want) != len(keys) {
		t.Errorf("%s holds %d digests, the testbed generates %d", testbedDigestPath, len(want), len(keys))
	}
}
