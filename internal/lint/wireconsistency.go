package lint

import (
	"bufio"
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// WireConsistency cross-checks the three legs every wire message must have.
// Registering a message type with network.RegisterType is only the start:
// the type also needs a hand-written binary codec (AppendWire on the value,
// UnmarshalWire on the pointer — wirecodec.go), a golden vector pinning its
// exact encoding in testdata/wire_golden.txt, and a seed in the fuzz corpus
// (testdata/fuzz/FuzzBinaryWireDecode). A message that skips a leg ships
// either without a binary codec (RegisterType panics at start-up; this
// reports it at build time), without a pinned format (the next refactor
// breaks deployed clusters undetected), or without fuzz coverage. The
// analyzer fails the build naming the missing leg. Registrations in _test.go
// files are exempt: test-only messages are not protocol messages.
var WireConsistency = &Analyzer{
	Name: "wireconsistency",
	Doc:  "every registered wire message needs a binary codec, a golden vector and a fuzz corpus seed",
	Run:  runWireConsistency,
}

// goldenFile and the fuzz corpus directory, relative to the registering
// package's directory.
const (
	goldenFile = "testdata/wire_golden.txt"
	fuzzCorpus = "testdata/fuzz/FuzzBinaryWireDecode"
)

func runWireConsistency(pass *Pass) error {
	type registration struct {
		msgName string
		typ     *types.Named
		pos     ast.Node
	}
	var regs []registration
	for _, file := range pass.Files {
		filename := pass.Fset.Position(file.FileStart).Filename
		if strings.HasSuffix(filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if callee == nil || callee.Name() != "RegisterType" ||
				callee.Pkg() == nil || !pkgPathMatches(callee.Pkg().Path(), "network") {
				return true
			}
			if len(call.Args) != 2 {
				return true
			}
			nameTV, ok := pass.Info.Types[call.Args[0]]
			if !ok || nameTV.Value == nil || nameTV.Value.Kind() != constant.String {
				return true
			}
			sampleTV, ok := pass.Info.Types[call.Args[1]]
			if !ok {
				return true
			}
			typ, ok := sampleTV.Type.(*types.Named)
			if !ok {
				return true
			}
			regs = append(regs, registration{
				msgName: constant.StringVal(nameTV.Value),
				typ:     typ,
				pos:     call,
			})
			return true
		})
	}
	if len(regs) == 0 {
		return nil
	}

	golden, goldenOK := readGoldenTypes(filepath.Join(pass.Dir, goldenFile))
	registered := make(map[string]bool, len(regs))
	for _, reg := range regs {
		typeName := reg.typ.Obj().Name()
		registered[typeName] = true
		pos := reg.pos.Pos()
		for _, leg := range []struct {
			method   string
			pointer  bool
			whatItIs string
		}{
			{"AppendWire", false, "the binary codec's encoder (wirecodec.go)"},
			{"UnmarshalWire", true, "the binary codec's decoder (wirecodec.go)"},
		} {
			if !hasMethod(reg.typ, leg.method, leg.pointer) {
				pass.Reportf(pos, "wire message %q (%s) is registered but has no %s method — %s is missing",
					reg.msgName, typeName, leg.method, leg.whatItIs)
			}
		}
		if goldenOK && !golden[typeName] {
			pass.Reportf(pos, "wire message %q (%s) has no golden vector in %s; regenerate with PGRID_REGEN_GOLDEN=1 go test ./internal/overlay -run TestGoldenWireVectors",
				reg.msgName, typeName, goldenFile)
		}
		seed := filepath.Join(fuzzCorpus, "seed-"+strings.ToLower(typeName))
		if _, err := os.Stat(filepath.Join(pass.Dir, seed)); err != nil {
			pass.Reportf(pos, "wire message %q (%s) has no fuzz corpus seed %s",
				reg.msgName, typeName, seed)
		}
	}
	if !goldenOK {
		pass.Reportf(regs[0].pos.Pos(), "wire messages are registered here but %s does not exist; regenerate with PGRID_REGEN_GOLDEN=1 go test ./internal/overlay -run TestGoldenWireVectors",
			goldenFile)
	}
	// The reverse direction: a golden vector whose message was unregistered
	// is a stale pin that would mask the next accidental reuse of its bytes.
	for typeName := range golden {
		if !registered[typeName] {
			pass.Reportf(regs[0].pos.Pos(), "%s pins a vector for %s, which is not registered as a wire message; delete the stale line or restore the registration",
				goldenFile, typeName)
		}
	}
	return nil
}

// hasMethod reports whether typ (or *typ when pointer is set) has the named
// method in its method set.
func hasMethod(typ *types.Named, name string, pointer bool) bool {
	var t types.Type = typ
	if pointer {
		t = types.NewPointer(typ)
	}
	obj, _, _ := types.LookupFieldOrMethod(t, true, typ.Obj().Pkg(), name)
	_, ok := obj.(*types.Func)
	return ok
}

// readGoldenTypes parses the golden vector manifest into the set of message
// type names it pins. ok is false when the file is unreadable.
func readGoldenTypes(path string) (map[string]bool, bool) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false
	}
	defer f.Close()
	typesSeen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, _, ok := strings.Cut(line, " ")
		if ok && name != "" {
			typesSeen[name] = true
		}
	}
	if sc.Err() != nil {
		return nil, false
	}
	return typesSeen, true
}
