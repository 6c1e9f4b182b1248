package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/scc"
	"repro/internal/sparse"
)

// recordRanks runs k's pass body for each of ues ranks into a record sized
// by k.ops and returns the records. It fails when a record outgrew its
// reservation.
func recordRanks(t *testing.T, name string, k kernel, ues int) [][]uint32 {
	t.Helper()
	recs := make([][]uint32, ues)
	for rank := range recs {
		bound := k.ops(rank)
		rec := recorder{ops: make([]uint32, 0, bound)}
		k.body(rank, &rec)
		if cap(rec.ops) != bound {
			t.Errorf("%s rank %d: record of %d entries regrew past its reservation of %d", name, rank, len(rec.ops), bound)
		}
		recs[rank] = rec.ops
	}
	return recs
}

// recordDigest is the SHA-256 over each rank's entry count and entries, in
// rank order, all as little-endian uint32.
func recordDigest(recs [][]uint32) (total int, digest string) {
	h := sha256.New()
	var b [4]byte
	for _, ops := range recs {
		binary.LittleEndian.PutUint32(b[:], uint32(len(ops)))
		h.Write(b[:])
		for _, op := range ops {
			binary.LittleEndian.PutUint32(b[:], op)
			h.Write(b[:])
		}
		total += len(ops)
	}
	return total, hex.EncodeToString(h.Sum(nil))
}

// TestRecordedStreamsPinned holds each format's and each CSR variant's
// recorded line stream to the per-access stream the engine sent its cache
// hierarchy before passes were recorded: the timed pass's probes, as
// line<<1|store per rank, digested the same way. The warm-up pass probed
// the same stream.
func TestRecordedStreamsPinned(t *testing.T) {
	pins := map[string]struct {
		total  int
		digest string
	}{
		"ell":          {49741, "eba10222247979a1a7f659aefe11c9f3df8d725a6cfae0c6e1cf3f689857ae8e"},
		"bcsr":         {169439, "e0b9f4847ec2756c582166a157dc8f44d09edbe4960b0a38d8e46e1610c8e07f"},
		"dia":          {74652, "ab17060fa5838e1f9eae3336bfb46d84c84c800e20ab5d763f77e7f7fed50da4"},
		"hyb":          {68426, "42b7bb26aab73972c327146f4a2cd7ec5c56f5371fc926f4f413e80549a2988a"},
		"cacheblocked": {3881908, "f9060f94fb2ece57154967d3c0f8511bb9bf6f481328037942babb15c92d2b1c"},
		"csr":          {80278, "5c5456164117c9446b4b78aae1666d832651f29b1bef4b4202b92c930e56b59a"},
		"csr-noxmiss":  {80278, "68b042a51d42a8a143d2956d088394aad9ba0adfea413efc02098be9795cb456"},
		"csr-cyclic":   {97491, "df7e82d14536d83eeb95ea7f01fb8bcee0d97a1d90734af3dde187df2cd2f8dd"},
	}
	m := NewMachine(scc.Conf0)
	check := func(name string, k kernel, ues int) {
		want, ok := pins[name]
		if !ok {
			t.Fatalf("%s: no pin", name)
		}
		if total, digest := recordDigest(recordRanks(t, name, k, ues)); total != want.total || digest != want.digest {
			t.Errorf("%s: %d entries, digest %s; pinned %d, %s", name, total, digest, want.total, want.digest)
		}
	}
	ues := map[string]int{"ell": 8, "bcsr": 6, "dia": 8, "hyb": 6, "cacheblocked": 4}
	for _, tc := range formatCases(t) {
		check(tc.name, tc.kernel(m), ues[tc.name])
	}
	a := sparse.Generate(sparse.Gen{Name: "csr", Class: sparse.PatternPowerLaw, N: 6000, NNZTarget: 60000, Seed: 31})
	for _, c := range []struct {
		name   string
		scheme partition.Scheme
		ues    int
		noX    bool
	}{
		{"csr", partition.SchemeByNNZ, 6, false},
		{"csr-noxmiss", partition.SchemeByNNZ, 6, true},
		{"csr-cyclic", partition.SchemeCyclic, 5, false},
	} {
		parts, err := partition.Split(c.scheme, a, c.ues)
		if err != nil {
			t.Fatal(err)
		}
		check(c.name, m.csrKernel(a, ones(a.Cols), make([]float64, a.Rows), parts, c.noX, layoutFor(a)), c.ues)
	}
}

// TestLayoutEndGuard puts a CSR layout's end exactly at maxLayoutEnd, where
// the top line still fits a record entry, and one element past it, using
// matrix headers that hold no arrays.
func TestLayoutEndGuard(t *testing.T) {
	xBase := layoutFor(&sparse.CSR{}).x
	cols := int((maxLayoutEnd - xBase) / 8)
	at := layoutFor(&sparse.CSR{Cols: cols})
	if at.end != maxLayoutEnd {
		t.Fatalf("layout end %d, want %d", at.end, maxLayoutEnd)
	}
	if err := checkLineRange(at.end); err != nil {
		t.Errorf("layout ending at the bound rejected: %v", err)
	}
	if top := uint32((at.end-1)>>lineShift) << 1; top>>1 != uint32((at.end-1)>>lineShift) {
		t.Errorf("top line %d does not survive a record entry", (at.end-1)>>lineShift)
	}
	past := layoutFor(&sparse.CSR{Cols: cols + 1})
	if err := checkLineRange(past.end); err == nil {
		t.Errorf("layout ending at %d past the bound accepted", past.end)
	}
	// A run fails on the layout before it allocates x (64 GiB here).
	huge := &sparse.CSR{Name: "huge", Rows: 1, Cols: 1 << 33, Ptr: []int32{0, 0}}
	_, err := NewMachine(scc.Conf0).RunSpMV(huge, nil, Options{UEs: 1})
	if err == nil || !strings.Contains(err.Error(), "layout ends") {
		t.Fatalf("RunSpMV on a layout past 64 GiB returned %v, want a layout error", err)
	}
}
