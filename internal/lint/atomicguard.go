package lint

import (
	"go/ast"
	"strings"
)

// Atomicguard enforces the write-side locking discipline of
// atomic-pointer generation swaps (pool.go: "mu serializes Reload and
// Close; the serving path never takes it"). Loads are lock-free by
// design, but every Store/Swap/CompareAndSwap on a field annotated
//
//	//qlint:guarded-by mu
//
// must happen with mu held: either the function itself calls
// <recv>.mu.Lock(), or it is annotated //qlint:locked mu declaring that
// its callers hold the mutex (swapLocked-style helpers). An unguarded
// store races the Reload/Close serialization and can resurrect a
// retired generation or lose a close.
//
// The check is syntactic and per-function: it does not prove the Lock
// dominates the store, only that the locking intent is written down
// next to the code that needs it — which is what review needs to see.
var Atomicguard = &Analyzer{
	Name: "atomicguard",
	Doc: "Store/Swap/CompareAndSwap on //qlint:guarded-by fields only in functions that Lock the named mutex " +
		"or are annotated //qlint:locked",
	Run: runAtomicguard,
}

var guardedStoreNames = []string{"Store", "Swap", "CompareAndSwap"}

func runAtomicguard(pass *Pass) {
	guarded := collectGuardedFields(pass.Pkg)
	if len(guarded) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkGuardedStores(pass, fn, guarded)
		}
	}
}

// collectGuardedFields finds struct fields annotated
// //qlint:guarded-by <mutex> and maps the FIELD NAME to the mutex field
// name. Matching stores by field name rather than by receiver type is a
// deliberate syntactic over-approximation: it also covers free
// functions (constructors, helpers) that store through a local variable
// of the guarded type, which a receiver-based match would miss. A
// colliding field name on an unrelated type can be suppressed with
// //qlint:ignore.
func collectGuardedFields(pkg *Package) map[string]string {
	out := make(map[string]string)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mutex, ok := directiveArg(field.Doc, "guarded-by")
				if !ok {
					mutex, ok = directiveArg(field.Comment, "guarded-by")
				}
				if !ok || mutex == "" {
					continue
				}
				for _, name := range field.Names {
					out[name.Name] = mutex
				}
			}
			return true
		})
	}
	return out
}

func checkGuardedStores(pass *Pass, fn *ast.FuncDecl, guarded map[string]string) {
	lockedArg, hasLocked := directiveArg(fn.Doc, "locked")

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		x, ok := selectorCall(call, guardedStoreNames...)
		if !ok {
			return true
		}
		// Match <base>.<field>.Store(...): x is base.field.
		fieldSel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, ok := fieldSel.X.(*ast.Ident)
		if !ok {
			return true
		}
		mutex, ok := guarded[fieldSel.Sel.Name]
		if !ok {
			return true
		}
		if hasLocked && lockedMentions(lockedArg, mutex) {
			return true
		}
		if locksMutex(fn.Body, base.Name, mutex) {
			return true
		}
		pass.Reportf(call.Pos(),
			"store to %s.%s (//qlint:guarded-by %s) in a function that neither calls %s.%s.Lock() nor is annotated //qlint:locked %s",
			base.Name, fieldSel.Sel.Name, mutex, base.Name, mutex, mutex)
		return true
	})
}

// lockedMentions reports whether the //qlint:locked argument names the
// mutex (the argument may carry a trailing justification).
func lockedMentions(arg, mutex string) bool {
	for _, f := range strings.Fields(arg) {
		if f == mutex || f == mutex+"," {
			return true
		}
	}
	return false
}

// locksMutex reports whether the body contains <recv>.<mutex>.Lock().
func locksMutex(body *ast.BlockStmt, recvName, mutex string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		x, ok := selectorCall(call, "Lock")
		if !ok {
			return true
		}
		sel, ok := x.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != mutex {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == recvName {
			found = true
		}
		return true
	})
	return found
}
