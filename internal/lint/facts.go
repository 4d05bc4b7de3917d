package lint

import "go/types"

// factStore holds the object facts of one run: analyzer name → object ID →
// fact value. The driver analyzes packages in dependency order over a
// single store, so a fact exported by a dependency is visible to every
// later package, and intra-package fact use works the same as
// cross-package.
//
// Fact values are strings rather than typed payloads: the only producer
// (lockrpc) records the human-readable reason a function may block, which
// doubles as the explanation in downstream diagnostics.
type factStore map[string]map[string]string

func (s factStore) get(analyzer, id string) (string, bool) {
	if id == "" {
		return "", false
	}
	v, ok := s[analyzer][id]
	return v, ok
}

func (s factStore) set(analyzer, id, value string) {
	if id == "" {
		return
	}
	m := s[analyzer]
	if m == nil {
		m = make(map[string]string)
		s[analyzer] = m
	}
	m[id] = value
}

// objectID names a package-level object (or method) stably across
// packages: "pkgpath.Name" for package-level declarations and
// "pkgpath.(*Recv).Name" / "pkgpath.(Recv).Name" for methods, including
// interface methods. The empty string means the object has no stable ID
// (builtins, locals).
func objectID(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if f, ok := obj.(*types.Func); ok {
		if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			ptr := ""
			if p, ok := t.(*types.Pointer); ok {
				t, ptr = p.Elem(), "*"
			}
			if n, ok := t.(*types.Named); ok {
				return f.Pkg().Path() + ".(" + ptr + n.Obj().Name() + ")." + f.Name()
			}
			// Methods of unnamed receivers (embedded interface literals)
			// get no stable ID.
			return ""
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
