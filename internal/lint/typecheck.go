package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
)

// newInfo allocates the types.Info maps the analyzers rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// parseFiles parses the named source files (with comments, which the allow
// annotations need) into the fileset.
func parseFiles(fset *token.FileSet, filenames []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(filenames))
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// checkPackage type-checks one package from source. Type errors are
// tolerated: the checker still produces the package, the analyzers guard
// every types.Info lookup, and a partially checked dependency merely
// weakens facts.
func checkPackage(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info) {
	info := newInfo()
	// A non-nil Error handler makes the checker continue past the first
	// error instead of stopping there.
	conf := types.Config{Importer: imp, Error: func(error) {}}
	pkg, _ := conf.Check(path, fset, files, info)
	return pkg, info
}

// importerFunc adapts a function to the types.Importer interface.
type importerFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
