package lint

import (
	"go/ast"
	"strings"
)

// analyzerAtomic bans the sync/atomic pointer functions
// (atomic.AddUint64(&s.n, 1), atomic.LoadInt64(&hits), ...). They make a
// plain word atomic at one call site only, so one plain `s.n = 0` elsewhere
// is a data race the race detector catches only when the schedule
// cooperates. Typed atomics (atomic.Uint64 fields) have no plain access to
// forget, so the tree uses those alone.
var analyzerAtomic = &Analyzer{
	Name: "atomic-consistency",
	Doc:  "flags sync/atomic pointer-function calls; use the typed atomics",
	Run:  runAtomic,
}

// atomicPointerFunc reports whether the sync/atomic function name takes a
// pointer to the shared word as its first argument.
func atomicPointerFunc(name string) bool {
	for _, prefix := range []string{"Add", "And", "Or", "Load", "Store", "Swap", "CompareAndSwap"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func runAtomic(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if path, name, ok := pkgFunc(p.Info, call); ok && path == "sync/atomic" && atomicPointerFunc(name) {
				p.Reportf(call.Pos(),
					"atomic.%s makes a plain word atomic at this call only; any plain access elsewhere is a data race: use a typed atomic like atomic.Uint64",
					name)
			}
			return true
		})
	}
}
