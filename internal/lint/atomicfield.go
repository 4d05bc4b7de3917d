package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicField enforces the access discipline of fields documented as
// atomic: network.InFlightGauge call gauges and sync/atomic values, alone or
// in arrays (a peer's counters). Such a field, or an element of such an
// array, may only be touched through its atomic accessors
// (Add/Value/Load/Store/...) or have its address taken;
// a raw read gets a torn or stale value and a raw assignment is a data
// race that -race only catches when a test happens to collide. Copying a
// struct that contains these fields is govet copylocks' job (the atomic
// types carry noCopy); this analyzer covers the direct field accesses
// copylocks cannot see.
var AtomicField = &Analyzer{
	Name: "atomicfield",
	Doc:  "fields of atomic types (network.InFlightGauge, sync/atomic values, arrays of them) may only be used via their accessor methods",
	Run:  runAtomicField,
}

func runAtomicField(pass *Pass) error {
	for _, file := range pass.Files {
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selection, ok := pass.Info.Selections[sel]
			if !ok || selection.Kind() != types.FieldVal {
				return true
			}
			field := selection.Obj()
			if !isAtomicType(field.Type()) {
				return true
			}
			if len(stack) < 2 {
				return true
			}
			// x.f[i] on an array of atomics is judged like x.f itself.
			node, up := ast.Node(sel), 2
			if ix, ok := stack[len(stack)-2].(*ast.IndexExpr); ok && ix.X == sel {
				node, up = ix, 3
			}
			if len(stack) < up {
				return true
			}
			switch parent := stack[len(stack)-up].(type) {
			case *ast.SelectorExpr:
				// x.f.Method(...): the accessor path. Field selections
				// through f (it has none on the known atomic types) would
				// land here too, which is fine — they could only reach
				// another atomic field checked at its own site.
				if _, isMethod := pass.Info.Uses[parent.Sel].(*types.Func); isMethod {
					return true
				}
			case *ast.UnaryExpr:
				if parent.Op == token.AND {
					return true // &x.f: passing the atomic by pointer
				}
			case *ast.AssignStmt:
				for _, lhs := range parent.Lhs {
					if lhs == node {
						pass.Reportf(sel.Pos(), "raw assignment to atomic field %s.%s; atomic fields have no store accessor by design — restructure so the field is only ever advanced via its methods",
							named(selection.Recv()), field.Name())
						return true
					}
				}
			}
			pass.Reportf(sel.Pos(), "raw read of atomic field %s.%s copies it non-atomically; use its accessor methods",
				named(selection.Recv()), field.Name())
			return true
		})
	}
	return nil
}

// isAtomicType reports whether t is one of the project's atomic value
// types — anything in sync/atomic or the transports' InFlightGauge — or an
// array of them.
func isAtomicType(t types.Type) bool {
	if a, ok := t.(*types.Array); ok {
		return isAtomicType(a.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "sync/atomic":
		return true
	}
	return obj.Name() == "InFlightGauge" && pkgPathMatches(obj.Pkg().Path(), "network")
}

// named renders a receiver type compactly for diagnostics.
func named(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		if n.Obj().Pkg() != nil {
			return n.Obj().Pkg().Name() + "." + n.Obj().Name()
		}
		return n.Obj().Name()
	}
	return t.String()
}
