package lint

import (
	"go/ast"
)

// Observehook enforces the Observer coverage contract (observe.go: one
// Event per completed operation, "including the fast-failure paths"): on
// a type annotated //qlint:observed, every exported query- or write-path
// method must hand its work to the runtime's request envelope EXACTLY
// ONCE, and that call must be an unconditional top-level statement of the
// method body. The envelope (read/write on the local runtime, call on the
// remote coordinator) owns the gates and emits the one event on every
// path out, so a method that goes through it once cannot miss or double
// an observation:
//
//	func (rt *localRuntime) Expand(ctx ..., ...) (exp *Expansion, err error) {
//		ev := Event{Op: OpExpand}
//		err = rt.read(ctx, &ev, func(g *poolGeneration) error { ... })
//		return exp, err
//	}
//
// Delegating to another observed method of the same receiver counts as
// the envelope call (Search is SearchInto with no destination). Zero
// calls means an unobserved, ungated path; two means double counting; a
// call nested inside an if/switch/for can be skipped by the very error
// paths the contract promises to observe.
var Observehook = &Analyzer{
	Name: "observehook",
	Doc: "exported query-path methods of //qlint:observed types make exactly one top-level envelope call " +
		"(read/write/call, or a delegation to another observed method), so every path out emits one event",
	Run: runObservehook,
}

// observedMethods is the query- and write-path method set of the
// Backend contract plus the Pool's reload path. Close and the cheap
// accessors are deliberately outside: they emit no event.
var observedMethods = map[string]bool{
	"Search":          true,
	"SearchInto":      true,
	"Expand":          true,
	"ExpandAll":       true,
	"SearchExpansion": true,
	"Reload":          true,
	"Ingest":          true,
	"Compact":         true,
}

// envelopeNames are the request envelopes: read, every runtime's
// (querypath.go), and write, the local runtime's (live.go).
var envelopeNames = map[string]bool{"read": true, "write": true}

func runObservehook(pass *Pass) {
	observed := typeDirectives(pass.Pkg, "observed")
	if len(observed) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !observedMethods[fn.Name.Name] {
				continue
			}
			if recv := recvTypeName(fn); recv == "" || !observed[recv] {
				continue
			}
			checkEnvelope(pass, fn)
		}
	}
}

func checkEnvelope(pass *Pass, fn *ast.FuncDecl) {
	names := fn.Recv.List[0].Names
	if len(names) == 0 {
		pass.Reportf(fn.Name.Pos(), "%s has an unnamed receiver and so cannot reach the request envelope", fn.Name.Name)
		return
	}
	recv := names[0].Name
	isEnvelope := func(e ast.Expr) bool {
		call, ok := e.(*ast.CallExpr)
		if !ok {
			return false
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !(envelopeNames[sel.Sel.Name] || observedMethods[sel.Sel.Name]) {
			return false
		}
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == recv
	}
	var total, topLevel int
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && isEnvelope(e) {
			total++
		}
		return true
	})
	for _, stmt := range fn.Body.List {
		var exprs []ast.Expr
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			exprs = []ast.Expr{s.X}
		case *ast.AssignStmt:
			exprs = s.Rhs
		case *ast.ReturnStmt:
			exprs = s.Results
		}
		for _, e := range exprs {
			if isEnvelope(e) {
				topLevel++
			}
		}
	}
	switch {
	case total == 0:
		pass.Reportf(fn.Name.Pos(),
			"%s is a query-path method of a //qlint:observed type but never enters the request envelope: this path is ungated and invisible to metrics", fn.Name.Name)
	case total > 1:
		pass.Reportf(fn.Name.Pos(),
			"%s enters the request envelope %d times; exactly one is the contract (double counting)", fn.Name.Name, total)
	case topLevel != 1:
		pass.Reportf(fn.Name.Pos(),
			"%s's envelope call is nested inside a conditional; it must be an unconditional top-level statement so every path out is observed", fn.Name.Name)
	}
}
