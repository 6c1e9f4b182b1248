// Package repro's root micro-benchmarks: the host SpMV kernels, the
// simulator on the default tree-PLRU machine, CG and RCM reordering - the
// paths no package benchmark or perfbench layer already times.
//
//	go test -bench=. -benchmem
//
// Repeated, noise-banded end-to-end timing of the paper's sweeps lives in
// the perfbench module (bash perfbench/run.sh); golden digests pin what
// each experiment renders.
package repro

import (
	"testing"

	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/spmv"
)

var benchMatrix = sparse.Generate(sparse.Gen{
	Name: "bench", Class: sparse.PatternStencil3D, N: 50000, NNZTarget: 1000000, Seed: 1,
})

func BenchmarkKernelSequentialCSR(b *testing.B) {
	a := benchMatrix
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(int64(a.NNZ() * 12))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
	b.ReportMetric(2*float64(a.NNZ())*float64(b.N)/b.Elapsed().Seconds()/1e6, "host_MFLOPS")
}

func BenchmarkKernelParallelCSR(b *testing.B) {
	a := benchMatrix
	x := make([]float64, a.Cols)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := spmv.Parallel(a, y, x, 4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorSingleCore(b *testing.B) {
	m := sim.NewMachine(scc.Conf0)
	a := sparse.Generate(sparse.Gen{Name: "s", Class: sparse.PatternBanded, N: 20000, NNZTarget: 200000, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunSpMV(a, nil, sim.Options{Mapping: scc.Mapping{0}}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.NNZ()), "nnz_simulated")
}

func BenchmarkSimulator48Cores(b *testing.B) {
	m := sim.NewMachine(scc.Conf0)
	a := sparse.Generate(sparse.Gen{Name: "s", Class: sparse.PatternStencil3D, N: 30000, NNZTarget: 600000, Seed: 3})
	mapping := scc.DistanceReductionMapping(48)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunSpMV(a, nil, sim.Options{Mapping: mapping}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCGSolve(b *testing.B) {
	a := sparse.Laplacian2D(64)
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spmv.CG(a, rhs, 1e-8, 5000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRCMReordering(b *testing.B) {
	a := sparse.Generate(sparse.Gen{Name: "r", Class: sparse.PatternRandom, N: 5000, NNZTarget: 50000, Seed: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.RCM(a)
	}
}
