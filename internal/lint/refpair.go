package lint

import (
	"go/ast"
	"go/token"
)

// Refpair enforces the generation-refcount pairing of the hot-reload
// machinery (DESIGN.md, "Hot reload: generations, refcounts, drain"):
// every acquire() that pins a generation must be released on ALL return
// paths — including panics — which in Go means `defer g.release()`
// immediately after the error check. An unpaired acquire permanently
// leaks the generation: its refcount never reaches zero, drained never
// closes, and Pool.Close blocks forever.
//
// The analyzer flags, within one function body:
//
//   - an acquire whose result has no release/retire at all
//     (the generation leaks), and
//   - an acquire whose release is reachable but not deferred
//     (a panic or an early return between acquire and release leaks).
//
// Manual release patterns (tests holding a generation across an
// assertion, the retry loop inside acquire itself) carry a
// //qlint:ignore refpair justification.
var Refpair = &Analyzer{
	Name: "refpair",
	Doc: "every generation/refcount acquire() is paired with a deferred release() on all return paths; " +
		"non-deferred releases leak on panic, missing releases leak always",
	Run: runRefpair,
}

// refAcquireNames and refReleaseNames are the method-name conventions
// the analyzer binds to. pin (runtime.go) and enter, the query path's
// gate (querypath.go, and each runtime's), are acquires behind the
// request gates; retire() counts as a release: it drops the owner
// reference by definition.
var (
	refAcquireNames = []string{"acquire", "Acquire", "pin", "enter"}
	refReleaseNames = []string{"release", "Release", "retire", "Retire"}
)

func runRefpair(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		// Walk function by function; nested function literals are
		// independent scopes (a defer inside a closure does not protect
		// the enclosing function's acquire).
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkRefpairBody(pass, n.Body)
				}
			case *ast.FuncLit:
				checkRefpairBody(pass, n.Body)
			}
			return true
		})
	}
}

// checkRefpairBody analyzes one function body, not descending into
// nested literals for acquires (they are visited separately).
func checkRefpairBody(pass *Pass, body *ast.BlockStmt) {
	var acquires []struct {
		name string
		pos  ast.Node
	}
	walkShallow(body, func(n ast.Node) {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		if _, ok := selectorCall(call, refAcquireNames...); !ok {
			if id, isIdent := call.Fun.(*ast.Ident); !isIdent || (id.Name != "acquire" && id.Name != "Acquire") {
				return
			}
		}
		id, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return
		}
		if id.Name == "_" {
			pass.Reportf(assign.Pos(), "acquire result discarded: the pinned reference can never be released")
			return
		}
		acquires = append(acquires, struct {
			name string
			pos  ast.Node
		}{id.Name, assign})
	})

	for _, acq := range acquires {
		deferred, direct := findReleases(body, acq.name)
		switch {
		case deferred:
			// Paired on all paths, panics included.
		case direct:
			pass.Reportf(acq.pos.Pos(),
				"release of %q is not deferred: a panic or early return between acquire and release leaks the generation reference", acq.name)
		default:
			pass.Reportf(acq.pos.Pos(),
				"acquire of %q has no matching release/retire in this function: the generation reference leaks and Close will block forever", acq.name)
		}
	}
}

// findReleases scans the whole body (nested literals included — a
// release captured by a deferred closure still runs at function exit)
// for releases of variable name, classifying each as deferred (inside a
// DeferStmt subtree) or direct.
func findReleases(body *ast.BlockStmt, name string) (deferred, direct bool) {
	var defers []*ast.DeferStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			defers = append(defers, d)
		}
		return true
	})
	inDefer := func(pos token.Pos) bool {
		for _, d := range defers {
			if d.Pos() <= pos && pos <= d.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isReleaseOf(call, name) {
			if inDefer(call.Pos()) {
				deferred = true
			} else {
				direct = true
			}
		}
		return true
	})
	return deferred, direct
}

func isReleaseOf(call *ast.CallExpr, name string) bool {
	x, ok := selectorCall(call, refReleaseNames...)
	if !ok {
		return false
	}
	id, ok := x.(*ast.Ident)
	return ok && id.Name == name
}

// walkShallow visits every node of body except the interiors of nested
// function literals.
func walkShallow(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
