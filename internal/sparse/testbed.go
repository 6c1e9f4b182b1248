package sparse

import (
	"fmt"
	"math"
)

// TestbedEntry describes one matrix of the paper's Table I benchmark suite.
// The UFL collection is not reachable offline, so N and NNZ are reconstructed
// from the collection's published statistics for the named matrices, and
// Class assigns the synthetic pattern family that matches each matrix's
// provenance (FEM/structural -> stencils, optimisation/circuit -> power law,
// dense substructures -> block, etc.). See DESIGN.md section 1.
type TestbedEntry struct {
	// ID is the 1-based index used throughout the paper's figures.
	ID int
	// Name is the UFL matrix name.
	Name string
	// Class is the synthetic pattern family used to reconstruct it.
	Class PatternClass
	// N is the number of rows/columns (all testbed matrices are square).
	N int
	// NNZ is the nonzero count.
	NNZ int
}

// NNZPerRow returns the average row length.
func (e TestbedEntry) NNZPerRow() float64 { return float64(e.NNZ) / float64(e.N) }

// WorkingSetBytes applies the paper's working-set formula to the entry.
func (e TestbedEntry) WorkingSetBytes() int64 {
	n, nnz := int64(e.N), int64(e.NNZ)
	return 4*((n+1)+nnz) + 8*(nnz+2*n)
}

// WorkingSetMB returns the working set in binary megabytes.
func (e TestbedEntry) WorkingSetMB() float64 {
	return float64(e.WorkingSetBytes()) / (1 << 20)
}

// Seed is the deterministic generator seed of the entry's synthetic
// reconstruction - the stable identity fault injection keys on.
func (e TestbedEntry) Seed() int64 { return int64(1000 + e.ID) }

// Generate builds the synthetic reconstruction of the entry at scale 1.
func (e TestbedEntry) Generate() *CSR { return e.GenerateScaled(1) }

// GenerateScaled builds the entry with both N and NNZ scaled by f in (0, 1],
// preserving the average row length and pattern class. Scaling shrinks the
// working set proportionally, which keeps experiment run times manageable
// while preserving the relative ws ordering across the suite.
func (e TestbedEntry) GenerateScaled(f float64) *CSR {
	if !(f > 0 && f <= 1) {
		panic(fmt.Sprintf("sparse: scale %v outside (0,1]", f))
	}
	n := int(math.Max(64, math.Round(float64(e.N)*f)))
	nnz := int(math.Max(float64(n), math.Round(float64(e.NNZ)*f)))
	name := e.Name
	if f != 1 {
		name = fmt.Sprintf("%s@%.3g", e.Name, f)
	}
	m := Generate(Gen{
		Name:      name,
		Class:     e.Class,
		N:         n,
		NNZTarget: nnz,
		Seed:      e.Seed(), // deterministic per entry
	})
	return m
}

// Testbed returns the paper's 32-matrix suite (Table I) in paper order.
// The slice is freshly allocated on each call; callers may modify it.
func Testbed() []TestbedEntry {
	return []TestbedEntry{
		{1, "TSOPF_FS_b300_c3", PatternBlock, 84414, 13135930},
		{2, "F1", PatternStencil3D, 343791, 26837113},
		{3, "ship_003", PatternStencil3D, 121728, 8086034},
		{4, "thread", PatternBlock, 29736, 4444880},
		{5, "gupta3", PatternPowerLaw, 16783, 9323427},
		{6, "nd3k", PatternStencil3D, 9000, 3279690},
		{7, "sme3Dc", PatternStencil3D, 42930, 3148656},
		{8, "pct20stif", PatternStencil3D, 52329, 2698463},
		{9, "tsyl201", PatternBanded, 20685, 2454957},
		{10, "exdata_1", PatternBlock, 6001, 2269500},
		{11, "mixtank_new", PatternStencil3D, 29957, 1995041},
		{12, "crystk03", PatternStencil3D, 24696, 1751178},
		{13, "av41092", PatternRandom, 41092, 1683902},
		{14, "sparsine", PatternRandom, 50000, 1548988},
		{15, "nc5", PatternBanded, 19652, 1499816},
		{16, "syn12000a", PatternBlock, 12000, 1436806},
		{17, "li", PatternStencil3D, 22695, 1350309},
		{18, "msc23052", PatternStencil3D, 23052, 1154814},
		{19, "gyro_k", PatternStencil3D, 17361, 1021159},
		{20, "sme3Da", PatternStencil3D, 12504, 874887},
		{21, "fp", PatternPowerLaw, 7548, 848553},
		{22, "e40r0100", PatternStencil2D, 17281, 553562},
		{23, "psmigr_1", PatternRandom, 3140, 543162},
		{24, "rajat01", PatternPowerLaw, 30202, 130303},
		{25, "ncvxbqp1", PatternBanded, 50000, 349968},
		{26, "nmos3", PatternStencil2D, 18588, 386594},
		{27, "net25", PatternPowerLaw, 9520, 401200},
		{28, "garon2", PatternStencil2D, 13535, 373235},
		{29, "bcsstm36", PatternBanded, 23052, 320606},
		{30, "Na5", PatternStencil3D, 5832, 305630},
		{31, "tandem_vtx", PatternStencil2D, 18454, 253350},
		{32, "lhr04", PatternPowerLaw, 4101, 81057},
	}
}

// TestbedEntryByName returns the entry with the given UFL name.
func TestbedEntryByName(name string) (TestbedEntry, bool) {
	for _, e := range Testbed() {
		if e.Name == name {
			return e, true
		}
	}
	return TestbedEntry{}, false
}

// ShortRowEntries returns the testbed IDs the paper singles out for very
// short rows (small nnz/n): matrices 24 and 25, which suffer inner-loop
// overhead instead of benefiting from small working sets (Section IV-B).
func ShortRowEntries() []int { return []int{24, 25} }
