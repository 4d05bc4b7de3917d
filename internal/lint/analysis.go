// Package lint implements pgridvet, the project's custom static-analysis
// suite. It machine-checks the hand-maintained invariants the stock linters
// cannot see: lock discipline (no blocking RPC while a mutex is held),
// atomic-field access, context threading on request paths, and errors.Is
// usage for exported sentinels.
//
// The package is deliberately dependency-free: it reimplements the small
// slice of the golang.org/x/tools go/analysis contract that pgridvet needs —
// an Analyzer/Pass API, object facts that flow between packages, and one
// `go list`-based driver (driver.go) — on top of go/ast, go/types and
// go/importer alone, so the module keeps its empty go.mod.
//
// # Suppressing a finding
//
// An audited exception is annotated where the diagnostic points (same line
// or the line above), naming the analyzer and justifying the exception:
//
//	//pgridvet:allow lockrpc the send is buffered and cannot block
//
// A whole function can be exempted from lockrpc with the same annotation in
// its doc comment. Annotations are per-analyzer; an unrelated analyzer still
// reports on the same line.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer so the suite could migrate to the
// real framework if the module ever takes on dependencies.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, enable flags and
	// //pgridvet:allow annotations.
	Name string
	// Doc is a short description; its first line is the usage summary.
	Doc string
	// UsesFacts marks analyzers that exchange object facts across package
	// boundaries. Only these run on dependency-only packages.
	UsesFacts bool
	// Run performs the check on one package.
	Run func(*Pass) error
}

// A Diagnostic is one reported violation, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [pgridvet:%s]", d.Pos, d.Message, d.Analyzer)
}

// sortDiagnostics orders diagnostics by position for deterministic output.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
}

// A Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	facts factStore
	diags *[]Diagnostic
	// std marks the standard-library import paths in this unit's dependency
	// closure; analyzers use it to keep invariants scoped to project code.
	std map[string]bool
	// allow caches, per file, the source lines covered by a
	// //pgridvet:allow annotation for this analyzer.
	allow map[*ast.File]map[int]bool
}

// Reportf records a diagnostic at pos unless an //pgridvet:allow annotation
// for this analyzer covers the line (or annotates the line above it).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if file := p.fileAt(pos); file != nil && p.allowedLine(file, position.Line) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ImportFact returns the fact recorded for obj by this analyzer, in this
// package or any dependency.
func (p *Pass) ImportFact(obj types.Object) (string, bool) {
	return p.facts.get(p.Analyzer.Name, objectID(obj))
}

// ExportFact records a fact about an object of the current package, making
// it visible to later passes over dependent packages.
func (p *Pass) ExportFact(obj types.Object, value string) {
	if obj == nil || obj.Pkg() != p.Pkg {
		return
	}
	p.facts.set(p.Analyzer.Name, objectID(obj), value)
}

// isStdPkg reports whether pkg is a standard-library package.
func (p *Pass) isStdPkg(pkg *types.Package) bool {
	return pkg != nil && p.std[pkg.Path()]
}

func (p *Pass) fileAt(pos token.Pos) *ast.File {
	for _, f := range p.Files {
		if f.FileStart <= pos && pos < f.FileEnd {
			return f
		}
	}
	return nil
}

func (p *Pass) allowedLine(file *ast.File, line int) bool {
	if p.allow == nil {
		p.allow = make(map[*ast.File]map[int]bool)
	}
	lines, ok := p.allow[file]
	if !ok {
		lines = make(map[int]bool)
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !allowMatches(c.Text, p.Analyzer.Name) {
					continue
				}
				l := p.Fset.Position(c.Pos()).Line
				lines[l] = true
				lines[l+1] = true
			}
		}
		p.allow[file] = lines
	}
	return lines[line]
}

// allowMatches reports whether one comment's text is an //pgridvet:allow
// annotation for the named analyzer.
func allowMatches(comment, analyzer string) bool {
	text := strings.TrimSpace(strings.TrimPrefix(comment, "//"))
	rest, ok := strings.CutPrefix(text, "pgridvet:allow")
	if !ok {
		return false
	}
	fields := strings.Fields(rest)
	return len(fields) > 0 && fields[0] == analyzer
}

// HasAllow reports whether a declaration's doc comment carries an
// //pgridvet:allow annotation for the named analyzer.
func HasAllow(doc *ast.CommentGroup, analyzer string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if allowMatches(c.Text, analyzer) {
			return true
		}
	}
	return false
}

// All is the full pgridvet suite in the order diagnostics are grouped.
func All() []*Analyzer {
	return []*Analyzer{LockRPC, AtomicField, CtxFlow, SentErr}
}

// analyzePackage runs the given analyzers over one type-checked package,
// appending diagnostics and recording exported facts into facts. When
// factsOnly is set, only fact-exporting analyzers run and no diagnostics
// are collected (a dependency analyzed only for the facts it exports).
func analyzePackage(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts factStore, std map[string]bool, factsOnly bool) ([]Diagnostic, error) {
	var diags []Diagnostic
	sink := &diags
	if factsOnly {
		sink = &[]Diagnostic{}
	}
	for _, a := range analyzers {
		if factsOnly && !a.UsesFacts {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			facts:    facts,
			diags:    sink,
			std:      std,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s on %s: %w", a.Name, pkg.Path(), err)
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}
