// Package lint is the project-native static-analysis suite: a set of
// analyzers that mechanically enforce the serving-stack invariants
// DESIGN.md states in prose — context flow, refcount pairing, observer
// coverage, sentinel-error discipline and mutex-guarded atomics — so the
// bit-identical-results guarantees stay cheap to preserve as the codebase
// grows. cmd/qlint is the multichecker front end; CI runs it blocking.
//
// The Analyzer/Pass/Diagnostic contract deliberately mirrors
// golang.org/x/tools/go/analysis so analyzers port mechanically if the
// module ever takes on the real dependency; the framework here is a
// self-contained reimplementation on the standard library's go/ast and
// go/parser because the module is dependency-free by policy (and the
// build environment is offline). Analyzers are purely syntactic: they
// see parsed files, not type information, and the invariants they encode
// are written so that syntax is enough (annotated types, fixed method
// sets, sentinel naming conventions).
//
// # Directives
//
// Analyzers read //qlint: directive comments (directive comments are
// hidden from godoc, like //go:noinline):
//
//	//qlint:serving            on a type: exported Search*/Expand* methods
//	                           must take ctx context.Context first (ctxflow)
//	//qlint:observed           on a type: its query-path methods must enter
//	                           the request envelope exactly once (observehook)
//	//qlint:guarded-by mu      on a struct field: Store/Swap/CompareAndSwap
//	                           on the field require mu to be held (atomicguard)
//	//qlint:locked mu          on a function: declares the caller holds mu
//	                           (atomicguard accepts stores without a Lock)
//	//qlint:ignore NAME why    on (or immediately above) a line: suppress
//	                           analyzer NAME's diagnostic there; the
//	                           justification text is mandatory
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. The shape mirrors
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //qlint:ignore directives. By convention it is a single
	// lower-case word.
	Name string

	// Doc is the one-paragraph description printed by qlint -list:
	// the invariant, and what a diagnostic means.
	Doc string

	// Run inspects one package and reports diagnostics through the
	// pass. It must not retain the pass after returning.
	Run func(*Pass)
}

// A Pass connects one analyzer run to one package, like
// golang.org/x/tools/go/analysis.Pass (minus type information).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg is the package under analysis; Pkg.Files are its parsed
	// files, comments included.
	Pkg *Package

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one reported invariant violation.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic: analyzer, file position, message.
// Findings are what the runner returns after //qlint:ignore filtering.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		Atomicguard,
		Ctxflow,
		Observehook,
		Refpair,
		Senterr,
	}
}

// Run applies every analyzer to every package, filters the diagnostics
// through the packages' //qlint:ignore directives, and returns the
// surviving findings sorted by position.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		findings = append(findings, RunPackage(fset, pkg, analyzers)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return findings
}

// RunPackage applies the analyzers to one package and returns the
// ignore-filtered findings, unsorted.
func RunPackage(fset *token.FileSet, pkg *Package, analyzers []*Analyzer) []Finding {
	ignores := collectIgnores(fset, pkg)
	var findings []Finding
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Pkg: pkg}
		a.Run(pass)
		for _, d := range pass.diags {
			pos := fset.Position(d.Pos)
			if ignores.matches(a.Name, pos) {
				continue
			}
			findings = append(findings, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
	}
	return findings
}

// ignoreSet records //qlint:ignore directives by file and the line they
// suppress (the directive's own line, and the following line when the
// directive stands alone).
type ignoreSet map[string]map[int][]string // filename -> line -> analyzer names

func (s ignoreSet) matches(analyzer string, pos token.Position) bool {
	names, ok := s[pos.Filename][pos.Line]
	if !ok {
		return false
	}
	for _, n := range names {
		if n == analyzer || n == "all" {
			return true
		}
	}
	return false
}

// ignoreRe parses "//qlint:ignore name[,name...] justification". The
// justification is mandatory: an ignore without a reason is itself a
// finding (reported under the analyzer it tries to suppress would be
// circular, so the runner surfaces it as a plain "qlint" finding via
// BadIgnores).
var ignoreRe = regexp.MustCompile(`^//qlint:ignore\s+([\w,]+)(\s+(.*))?$`)

func collectIgnores(fset *token.FileSet, pkg *Package) ignoreSet {
	set := make(ignoreSet)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				if strings.TrimSpace(m[3]) == "" {
					// No justification: the directive is inert.
					continue
				}
				pos := fset.Position(c.Pos())
				names := strings.Split(m[1], ",")
				byLine := set[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]string)
					set[pos.Filename] = byLine
				}
				// A directive suppresses its own line (trailing form)
				// and the next line (stand-alone form above the
				// statement).
				byLine[pos.Line] = append(byLine[pos.Line], names...)
				byLine[pos.Line+1] = append(byLine[pos.Line+1], names...)
			}
		}
	}
	return set
}

// BadIgnores reports //qlint:ignore directives that carry no
// justification, so suppressions can never silently accumulate.
func BadIgnores(fset *token.FileSet, pkgs []*Package) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreRe.FindStringSubmatch(c.Text)
					if m == nil || strings.TrimSpace(m[3]) != "" {
						continue
					}
					findings = append(findings, Finding{
						Analyzer: "qlint",
						Pos:      fset.Position(c.Pos()),
						Message:  "//qlint:ignore needs a justification: //qlint:ignore " + m[1] + " <why>",
					})
				}
			}
		}
	}
	return findings
}

// --- shared syntactic helpers used by the analyzers ---

// IsTestFile reports whether filename is a _test.go file.
func IsTestFile(filename string) bool {
	return strings.HasSuffix(filename, "_test.go")
}

// hasDirective reports whether the comment group carries the given
// //qlint: directive (exact name match, e.g. "serving").
func hasDirective(doc *ast.CommentGroup, name string) bool {
	_, ok := directiveArg(doc, name)
	return ok
}

// directiveArg returns the text after "//qlint:name" (trimmed) and
// whether the directive is present at all.
func directiveArg(doc *ast.CommentGroup, name string) (string, bool) {
	if doc == nil {
		return "", false
	}
	prefix := "//qlint:" + name
	for _, c := range doc.List {
		if c.Text == prefix {
			return "", true
		}
		if rest, ok := strings.CutPrefix(c.Text, prefix+" "); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// recvTypeName returns the receiver's base type name ("" for functions).
func recvTypeName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	// Generic receivers look like T[P]; unwrap the index.
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isContextContext reports whether the expression is the selector
// context.Context.
func isContextContext(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "context"
}

// selectorCall matches a call of the form X.name(...) and returns the
// receiver expression X.
func selectorCall(call *ast.CallExpr, names ...string) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return sel.X, true
		}
	}
	return nil, false
}

// typeDirectives scans the package for type declarations annotated with
// the directive and returns the set of annotated type names. Both the
// GenDecl doc ("var ( ... )" grouping) and the TypeSpec doc are honored.
func typeDirectives(pkg *Package, directive string) map[string]bool {
	names := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if hasDirective(ts.Doc, directive) || (len(gd.Specs) == 1 && hasDirective(gd.Doc, directive)) {
					names[ts.Name.Name] = true
				}
			}
		}
	}
	return names
}
