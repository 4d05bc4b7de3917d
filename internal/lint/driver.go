package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// This file is pgridvet's one driver, used by the binary and the fixture
// tests alike. It shells out to `go list -deps -export -json` to obtain the
// dependency closure with compiled export data, type-checks every in-module
// package from source in dependency order (go list already emits
// dependencies first), imports standard-library packages from their export
// data, and threads analyzer facts from each package to its dependents.

// listPackage is the subset of `go list -json` output the driver consumes.
type listPackage struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	ForTest    string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Error      *struct{ Err string }
}

// RunPatterns loads the packages matched by patterns (relative to dir, ""
// meaning the current directory), analyzes them with the given analyzers
// and returns the diagnostics for the matched packages. With includeTests,
// test packages (internal and external) are analyzed too.
func RunPatterns(dir string, analyzers []*Analyzer, patterns []string, includeTests bool) ([]Diagnostic, error) {
	pkgs, err := goList(dir, patterns, includeTests)
	if err != nil {
		return nil, err
	}
	ld := &loader{
		fset:    token.NewFileSet(),
		byPath:  make(map[string]*listPackage, len(pkgs)),
		sources: make(map[string]*types.Package),
		facts:   factStore{},
	}
	ld.gcImporter = importer.ForCompiler(ld.fset, "gc", func(path string) (io.ReadCloser, error) {
		lp := ld.byPath[path]
		if lp == nil || lp.Export == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(lp.Export)
	})
	std := make(map[string]bool)
	for _, lp := range pkgs {
		ld.byPath[lp.ImportPath] = lp
		if lp.Standard {
			std[lp.ImportPath] = true
		}
	}

	var diags []Diagnostic
	seen := make(map[string]bool)
	// go list emits dependencies before dependents, so analyzing in output
	// order guarantees facts are available when a dependent is reached.
	for _, lp := range pkgs {
		if !ld.analyzable(lp) {
			continue
		}
		pkg, info, files, err := ld.check(lp)
		if err != nil {
			if lp.DepOnly {
				continue // a broken dependency only weakens facts
			}
			return nil, err
		}
		pkgDiags, err := analyzePackage(analyzers, ld.fset, files, pkg, info, ld.facts, std, lp.DepOnly)
		if err != nil {
			return nil, err
		}
		if lp.DepOnly {
			continue
		}
		// A package and its test variant share the non-test files; report
		// each finding once.
		for _, d := range pkgDiags {
			key := d.String()
			if !seen[key] {
				seen[key] = true
				diags = append(diags, d)
			}
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

// analyzable filters the go list closure down to in-module source packages:
// standard-library packages import via export data, synthesized ".test"
// mains have generated sources, and cgo packages are out of scope.
func (ld *loader) analyzable(lp *listPackage) bool {
	if lp.Standard || len(lp.CgoFiles) > 0 || len(lp.GoFiles) == 0 {
		return false
	}
	if lp.Name == "main" && strings.HasSuffix(lp.ImportPath, ".test") {
		return false
	}
	if lp.Error != nil {
		return false
	}
	return true
}

type loader struct {
	fset       *token.FileSet
	byPath     map[string]*listPackage
	sources    map[string]*types.Package
	gcImporter types.Importer
	facts      factStore
}

// check type-checks one in-module package from source, caching the result
// under its (possibly test-variant) import path.
func (ld *loader) check(lp *listPackage) (*types.Package, *types.Info, []*ast.File, error) {
	names := make([]string, 0, len(lp.GoFiles))
	for _, f := range lp.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(lp.Dir, f)
		}
		names = append(names, f)
	}
	files, err := parseFiles(ld.fset, names)
	if err != nil {
		return nil, nil, nil, err
	}
	imp := importerFunc(func(path string) (*types.Package, error) {
		return ld.importFor(lp, path)
	})
	// pkgPath drops the " [foo.test]" variant suffix so object IDs (and
	// therefore facts) are stable between a package and its test variant.
	pkgPath := lp.ImportPath
	if i := strings.IndexByte(pkgPath, ' '); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	pkg, info := checkPackage(ld.fset, pkgPath, files, imp)
	ld.sources[lp.ImportPath] = pkg
	return pkg, info, files, nil
}

// importFor resolves one import of package from: test variants first (an
// import from "p [t.test]" prefers "q [t.test]" over "q"), then in-module
// source packages, then export data.
func (ld *loader) importFor(from *listPackage, path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	target := ld.byPath[path]
	if from.ForTest != "" {
		if v := ld.byPath[path+" ["+from.ForTest+".test]"]; v != nil {
			target = v
		}
	}
	if target == nil {
		return nil, fmt.Errorf("lint: package %q not in load closure of %s", path, from.ImportPath)
	}
	if target.Standard {
		return ld.gcImporter.Import(target.ImportPath)
	}
	if pkg := ld.sources[target.ImportPath]; pkg != nil {
		return pkg, nil
	}
	// Dependency not yet loaded (should not happen given go list's order);
	// load it on demand.
	pkg, _, _, err := ld.check(target)
	return pkg, err
}

// goList runs `go list -deps -export -json` and decodes the JSON stream.
func goList(dir string, patterns []string, includeTests bool) ([]*listPackage, error) {
	args := []string{"list", "-deps", "-export", "-json"}
	if includeTests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}
