// Package lint is sccvet's analysis engine: a stdlib-only (go/ast,
// go/parser, go/types) multi-analyzer vet tool encoding the repo-specific
// invariants the simulator's reproducibility rests on. The paper's
// experiments are comparable across configurations only because the engine
// is bit-identical at every host parallelism level; PRs 1-2 protected that
// property with runtime determinism tests but still had to repair three
// invariant violations by hand (a hardcoded addr>>5 line shift, a sweep
// that aliased its scratch Y into results, and a miscounted duplicate
// cache miss). The analyzers here reject those bug classes at vet time:
//
//   - nondeterminism:     wall-clock calls, global math/rand, and
//     map-order-dependent writes inside the simulation packages
//   - bare-goroutine:     goroutines outside the instrumented obs pool
//     (internal/rcce justifies each of its UE/progress/watchdog
//     goroutines with an explicit directive)
//   - geometry-literal:   magic cache-line/topology constants that must
//     be derived from internal/scc
//   - atomic-consistency: any sync/atomic pointer-function call (the
//     typed atomics are the only ones allowed)
//   - result-aliasing:    exported functions returning parameter-backed
//     or scratch-buffer-backed slices without copying
//
// The v2 suite adds five flow-aware analyzers for the service-era
// invariants, built on a shared def-use + intra-package call-graph layer
// (flow.go):
//
//   - hash-coverage:        every exported serve.JobConfig field must be
//     read, transitively, by the content-hash functions (Canonical/Key)
//   - ctx-propagation:      contexts must thread through; Background/TODO
//     banned in library code, Ctx-variant callees must be used
//   - error-discard:        dropped errors from RCCE communication and
//     fault-injection calls
//   - counter-drift:        metric name literals must match the declared
//     schema table (internal/obs/names.go)
//   - lock-across-blocking: mutexes held across channel ops, RCCE calls
//     or pool dispatch
//
// A finding is suppressed by a directive comment on the same line or the
// line directly above:
//
//	//sccvet:allow <analyzer> <reason>
//
// The analyzer name and a non-empty reason are both mandatory; malformed
// directives are themselves findings, so every suppression in the tree
// carries a justification - and a directive that suppresses nothing while
// its analyzer is in scope is itself a finding, so suppressions cannot
// outlive the code they excused.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/obs"
)

// Config scopes the analyzers to the package sets whose invariants they
// encode. Paths are full import paths as the Loader reports them.
type Config struct {
	// SimPackages are the simulation packages whose outputs must be
	// bit-identical run to run: nondeterminism applies here.
	SimPackages []string
	// GeometryPackages are subject to the geometry-literal analyzer
	// (address/topology arithmetic must derive from internal/scc).
	GeometryPackages []string
	// GoroutineAllowed are the packages permitted to start bare
	// goroutines without per-site justification: only the instrumented
	// obs pool itself. Everything else - including the RCCE thread
	// model's UE, progress-engine and watchdog goroutines - must justify
	// each go statement with //sccvet:allow bare-goroutine <reason>.
	GoroutineAllowed []string
	// HashContracts declares the content-addressing invariants enforced
	// by hash-coverage: for each contract, every exported field of the
	// named struct must be read transitively by the named functions.
	HashContracts []HashContract
	// ErrCriticalPackages are the packages whose error results must never
	// be discarded (error-discard): the RCCE communication layer and the
	// fault-injection paths, where a dropped error is a silently
	// desynchronised mesh or a swallowed injected fault.
	ErrCriticalPackages []string
	// MetricsPackage is the import path of the obs registry package; the
	// counter-drift analyzer checks Registry.Counter/Gauge/Timer/Sample/
	// Pool name arguments everywhere outside it.
	MetricsPackage string
	// MetricNames is the declared metric schema (name -> kind) that
	// registration sites must match; in production this is
	// obs.MetricSchema(), the same table cmd/metricscheck validates
	// snapshots against.
	MetricNames map[string]string
	// BlockingFuncs maps package import paths to the function and method
	// names the lock-across-blocking analyzer treats as blocking
	// operations (in addition to channel ops and default-less selects).
	BlockingFuncs map[string][]string
	// SleepBanPackages are the packages where lock-across-blocking flags
	// every direct time.Sleep call, lock held or not. In the RCCE layer a
	// bare sleep is a stall the watchdog cannot observe and an abort
	// cannot interrupt; waits there must be registered as blocked ops and
	// select on the abort channel (or run on the DES virtual clock).
	SleepBanPackages []string
	// Run restricts the suite to the named analyzers; empty means all.
	Run []string
}

// enabled reports whether the analyzer participates under the Run filter.
func (c Config) enabled(name string) bool {
	return len(c.Run) == 0 || contains(c.Run, name)
}

// DefaultConfig returns the production configuration enforced by
// `make check` over this repository.
func DefaultConfig() Config {
	sim := []string{
		"repro/internal/sim",
		"repro/internal/cache",
		"repro/internal/mesh",
		"repro/internal/mem",
		"repro/internal/sparse",
		"repro/internal/experiments",
	}
	return Config{
		SimPackages: sim,
		GeometryPackages: append([]string{
			"repro/internal/spmv",
			"repro/internal/trace",
			"repro/internal/partition",
		}, sim...),
		GoroutineAllowed: []string{
			"repro/internal/obs",
		},
		HashContracts: []HashContract{{
			Package: "repro/internal/serve",
			Struct:  "JobConfig",
			Funcs:   []string{"Canonical", "Key"},
		}},
		ErrCriticalPackages: []string{
			"repro/internal/rcce",
			"repro/internal/fault",
		},
		MetricsPackage: "repro/internal/obs",
		MetricNames:    obs.MetricSchema(),
		BlockingFuncs: map[string][]string{
			"repro/internal/rcce": {
				"Barrier", "Send", "Recv", "SendFloat64s", "RecvFloat64s",
				"Wait", "WaitAll", "RunWith",
			},
			"repro/internal/obs": {"ForEach", "ForEachCtx"},
		},
		SleepBanPackages: []string{
			"repro/internal/rcce",
		},
	}
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the identifier used in findings and //sccvet:allow
	// directives.
	Name string
	// Doc is a one-line description for `sccvet -list`.
	Doc string
	// Applies reports whether the analyzer is in scope for the package
	// under the config; nil means it applies everywhere. Scope gates both
	// running the analyzer and the unused-directive check: a directive for
	// an out-of-scope analyzer is dormant, not stale.
	Applies func(Config, *Package) bool
	// Run inspects one type-checked package via the pass.
	Run func(*Pass)
}

// applies resolves the nil-Applies default.
func (a *Analyzer) applies(conf Config, pkg *Package) bool {
	return a.Applies == nil || a.Applies(conf, pkg)
}

// Analyzers returns the suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerNondeterminism,
		analyzerGoroutine,
		analyzerGeometry,
		analyzerAtomic,
		analyzerAliasing,
		analyzerHashCoverage,
		analyzerCtxProp,
		analyzerErrDiscard,
		analyzerCounterDrift,
		analyzerLockBlock,
	}
}

// AnalyzerNames returns the valid directive targets (the ten analyzers).
func AnalyzerNames() []string {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	return names
}

// Finding is one reported invariant violation.
type Finding struct {
	// Analyzer is the reporting analyzer's name ("sccvet" for problems
	// with directives themselves).
	Analyzer string
	// Pos locates the offending node.
	Pos token.Position
	// Message states the violation and the expected fix.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// Pass carries one type-checked package through the analyzer suite.
type Pass struct {
	Conf  Config
	Fset  *token.FileSet
	Path  string
	Pkg   *types.Package
	Info  *types.Info
	Files []*ast.File

	current  string
	findings []Finding
	flow     *flowGraph
}

// Reportf records a finding for the currently running analyzer.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.findings = append(p.findings, Finding{
		Analyzer: p.current,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunPackage runs the suite over one loaded package and returns the
// findings that survive //sccvet:allow suppression, sorted by position.
// Malformed directives are returned as findings themselves, and so is any
// well-formed directive that suppressed nothing while its analyzer ran
// here: stale suppressions are how the next real regression hides.
func RunPackage(conf Config, pkg *Package) []Finding {
	pass := &Pass{
		Conf:  conf,
		Fset:  pkg.Fset,
		Path:  pkg.Path,
		Pkg:   pkg.Types,
		Info:  pkg.Info,
		Files: pkg.Files,
	}
	ran := map[string]bool{}
	for _, a := range Analyzers() {
		if !conf.enabled(a.Name) || !a.applies(conf, pkg) {
			continue
		}
		ran[a.Name] = true
		pass.current = a.Name
		a.Run(pass)
	}
	dirs, bad := directives(pkg.Fset, pkg.Files)
	out := append([]Finding(nil), bad...)
	for _, f := range pass.findings {
		if !dirs.suppresses(f) {
			out = append(out, f)
		}
	}
	for _, d := range dirs.recs {
		if d.used || !ran[d.analyzer] {
			continue
		}
		out = append(out, Finding{
			Analyzer: "sccvet",
			Pos:      d.pos,
			Message: "unused //sccvet:allow " + d.analyzer +
				" directive: nothing on this line or the line below triggers " +
				d.analyzer + "; delete the stale suppression",
		})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// pkgFunc resolves a call to a package-level function of an imported
// package, returning the package path and function name.
func pkgFunc(info *types.Info, call *ast.CallExpr) (path, name string, ok bool) {
	sel, ok2 := call.Fun.(*ast.SelectorExpr)
	if !ok2 {
		return "", "", false
	}
	id, ok2 := sel.X.(*ast.Ident)
	if !ok2 {
		return "", "", false
	}
	pn, ok2 := info.Uses[id].(*types.PkgName)
	if !ok2 {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// rootIdent unwraps parens, index/slice expressions, selectors, stars and
// type assertions down to the base identifier of an lvalue-ish chain.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// declaredOutside reports whether the identifier's object is declared
// outside the [from, to] node span (i.e. it outlives the statement).
func declaredOutside(info *types.Info, id *ast.Ident, from, to token.Pos) bool {
	obj := info.ObjectOf(id)
	if obj == nil {
		return false
	}
	return obj.Pos() < from || obj.Pos() > to
}
