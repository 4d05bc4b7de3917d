package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"unicode"
)

// SentErr flags comparisons of errors against exported sentinel values
// (ErrNotFound, ErrUnreachable, ErrNoQuorum, ...) that use == or != instead
// of errors.Is. The transports and the overlay wrap sentinels liberally
// (fmt.Errorf("...: %w", ErrUnreachable)), so an identity comparison
// silently stops matching the moment a call path adds a wrap — exactly the
// kind of regression a reviewer cannot see at the comparison site.
var SentErr = &Analyzer{
	Name: "senterr",
	Doc:  "error comparisons against exported Err* sentinels must use errors.Is, not == or !=",
	Run:  runSentErr,
}

func runSentErr(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				sx, sy := sentinelError(pass.Info, n.X), sentinelError(pass.Info, n.Y)
				if sx == nil && sy == nil {
					return true
				}
				// Sentinel-to-sentinel identity (rare, deliberate) and
				// comparisons against nil are not what this check is about.
				if sx != nil && sy != nil {
					return true
				}
				sent := sx
				other := n.Y
				if sent == nil {
					sent, other = sy, n.X
				}
				if isUntypedNil(pass.Info, other) {
					return true
				}
				verb := "errors.Is(err, " + sent.Name() + ")"
				if n.Op == token.NEQ {
					verb = "!" + verb
				}
				pass.Reportf(n.Pos(), "comparison with sentinel error %s uses %s; sentinels may arrive wrapped, use %s",
					sent.Name(), n.Op, verb)
			case *ast.SwitchStmt:
				if n.Tag == nil {
					return true
				}
				tv, ok := pass.Info.Types[n.Tag]
				if !ok || !types.AssignableTo(tv.Type, errorType) {
					return true
				}
				for _, clause := range n.Body.List {
					cc, ok := clause.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, expr := range cc.List {
						if sent := sentinelError(pass.Info, expr); sent != nil {
							pass.Reportf(expr.Pos(), "switch case compares error to sentinel %s with ==; sentinels may arrive wrapped, use errors.Is in an if/else chain",
								sent.Name())
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

// sentinelError resolves e to an exported package-level error variable
// following the ErrXxx naming convention, or nil.
func sentinelError(info *types.Info, e ast.Expr) *types.Var {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return nil
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok || v.Pkg() == nil {
		return nil
	}
	// Package-level only: a local `errDone := errors.New(...)` used as a
	// loop-break token is compared by identity legitimately.
	if v.Parent() != v.Pkg().Scope() {
		return nil
	}
	name := v.Name()
	if len(name) < 4 || name[:3] != "Err" || !unicode.IsUpper(rune(name[3])) {
		return nil
	}
	if !types.AssignableTo(v.Type(), errorType) {
		return nil
	}
	return v
}
