package sparse

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// FuzzReadMatrixMarket hardens the parser against malformed input: it must
// never panic, and anything it accepts must be a valid CSR matrix that
// round-trips through the writer.
func FuzzReadMatrixMarket(f *testing.F) {
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n")
	f.Add("%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 2.0\n2 1 -1.0\n")
	f.Add("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n")
	f.Add("%%MatrixMarket matrix coordinate integer general\n1 1 1\n1 1 7\n")
	f.Add("")
	f.Add("%%MatrixMarket matrix coordinate real general\n-1 2 1\n1 1 1\n")
	f.Add("%%MatrixMarket matrix coordinate real general\n2 2 9999\n1 1 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		m, err := ReadMatrixMarket(strings.NewReader(in))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parser accepted an invalid matrix: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, m); err != nil {
			t.Fatalf("writer failed on accepted matrix: %v", err)
		}
		back, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		back.Name = m.Name
		if !m.Equal(back) {
			t.Fatal("round trip changed the matrix")
		}
	})
}

// refFlushRow is the row flush the generator shipped with first: a
// comparison sort, a dedupe that draws one value per unique column, then a
// second pass over the row that makes the diagonal dominant.
// FuzzRowBuilder holds flushRow to its output and rng draws.
func refFlushRow(b *rowBuilder, row int) {
	sort.Slice(b.cols, func(i, j int) bool { return b.cols[i] < b.cols[j] })
	prev := int32(-1)
	start := len(b.m.Val)
	for _, c := range b.cols {
		if c == prev {
			continue
		}
		prev = c
		v := b.rng.Float64()*2 - 1
		b.m.Index = append(b.m.Index, c)
		b.m.Val = append(b.m.Val, v)
	}
	for k := start; k < len(b.m.Val); k++ {
		if int(b.m.Index[k]) == row {
			b.m.Val[k] = float64(len(b.m.Val)-start) + 1
		}
	}
	b.m.Ptr = append(b.m.Ptr, int32(len(b.m.Val)))
	b.cols = b.cols[:0]
}

// rowBreak in a FuzzRowBuilder column stream flushes the pending row.
const rowBreak = 0xFFFF

// rowStream encodes columns for FuzzRowBuilder: column c as c+1, and
// rowBreak between rows.
func rowStream(cols ...int) []byte {
	var out []byte
	for _, c := range cols {
		v := uint16(rowBreak)
		if c != rowBreak {
			v = uint16(c + 1)
		}
		out = binary.LittleEndian.AppendUint16(out, v)
	}
	return out
}

// FuzzRowBuilder checks that flushRow emits exactly what refFlushRow does
// for any matrix size, row index and column multiset: the same Ptr and
// Index, the same Val bits and the same next rng draw. The stream's
// little-endian uint16s v become column v%(n+2)-1, so -1 and n, which add
// drops, occur too; rowBreak flushes the row and moves to the next one, so
// several rows share one builder and its bitset.
func FuzzRowBuilder(f *testing.F) {
	f.Add(uint16(9), uint16(0), int64(1), rowStream())           // empty row
	f.Add(uint16(9), uint16(2), int64(1), rowStream(5, 5, 5, 5)) // all duplicates
	f.Add(uint16(9), uint16(3), int64(2), rowStream(7, 3, 1, 3)) // holds its diagonal
	f.Add(uint16(99), uint16(5), int64(3), rowStream(99))        // single column n-1
	f.Add(uint16(999), uint16(0), int64(4), rowStream(511, 0))   // span of 8 words: bitset
	f.Add(uint16(999), uint16(0), int64(4), rowStream(512, 0))   // span of 9 words: sort
	f.Add(uint16(999), uint16(7), int64(5), rowStream(0, 700, rowBreak, 8, 9, 8, 900, rowBreak, 8))
	f.Fuzz(func(t *testing.T, n16, row16 uint16, seed int64, stream []byte) {
		n := int(n16) + 1
		row := int(row16) % n
		got := newRowBuilder(n, 0, rand.New(rand.NewSource(seed)))
		want := newRowBuilder(n, 0, rand.New(rand.NewSource(seed)))
		flush := func() {
			got.flushRow(row)
			refFlushRow(want, row)
			row = (row + 1) % n
		}
		for len(stream) >= 2 {
			v := int(binary.LittleEndian.Uint16(stream))
			stream = stream[2:]
			if v == rowBreak {
				flush()
				continue
			}
			got.add(v%(n+2) - 1)
			want.add(v%(n+2) - 1)
		}
		flush()
		if !slices.Equal(got.m.Ptr, want.m.Ptr) {
			t.Fatalf("Ptr %v, reference %v", got.m.Ptr, want.m.Ptr)
		}
		if !slices.Equal(got.m.Index, want.m.Index) {
			t.Fatalf("Index %v, reference %v", got.m.Index, want.m.Index)
		}
		for k := range want.m.Val {
			if math.Float64bits(got.m.Val[k]) != math.Float64bits(want.m.Val[k]) {
				t.Fatalf("Val[%d] = %v, reference %v", k, got.m.Val[k], want.m.Val[k])
			}
		}
		if g, w := got.rng.Int63(), want.rng.Int63(); g != w {
			t.Fatalf("next rng draw %d, reference %d", g, w)
		}
	})
}
