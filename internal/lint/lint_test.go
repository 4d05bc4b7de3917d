package lint_test

import (
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"pgrid/internal/lint"
	"pgrid/internal/lint/linttest"
)

// Each fixture under testdata/src is a real package tree whose sources mark
// the expected diagnostics with `// want` annotations; see linttest.

func TestSentErrFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/senterr", lint.SentErr)
}

func TestCtxFlowFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/ctxflow", lint.CtxFlow)
}

func TestAtomicFieldFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/atomicfield", lint.AtomicField)
}

func TestLockRPCFixture(t *testing.T) {
	linttest.Run(t, "testdata/src/lockrpc", lint.LockRPC)
}

// vetLineRe captures the file and line of one `go vet` diagnostic.
var vetLineRe = regexp.MustCompile(`^(\S+\.go):(\d+):\d+: `)

// TestEachAnalyzerCatchesWhatVetMisses keeps the suite to analyzers that
// earn their place: on its own fixture (testdata/src/<name>), each must
// report at least one line that stock `go vet` leaves silent. An analyzer
// that fails this duplicates go vet and should be deleted.
func TestEachAnalyzerCatchesWhatVetMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet over every fixture")
	}
	for _, a := range lint.All() {
		dir, err := filepath.Abs(filepath.Join("testdata/src", a.Name))
		if err != nil {
			t.Fatal(err)
		}
		diags, err := lint.RunPatterns(dir, []*lint.Analyzer{a}, []string{"./..."}, true)
		if err != nil {
			t.Fatal(err)
		}
		// go vet exits non-zero when it reports; its findings are the
		// lines of output, not the exit status.
		cmd := exec.Command("go", "vet", "./...")
		cmd.Dir = dir
		out, _ := cmd.CombinedOutput()
		vetted := make(map[string]bool)
		for _, line := range strings.Split(string(out), "\n") {
			if m := vetLineRe.FindStringSubmatch(line); m != nil {
				vetted[filepath.Join(dir, m[1])+":"+m[2]] = true
			}
		}
		var only []string
		for _, d := range diags {
			if pos := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line); !vetted[pos] {
				only = append(only, pos)
			}
		}
		if len(only) == 0 {
			t.Errorf("%s reports nothing on its fixture that go vet misses (%d findings):\n%s", a.Name, len(diags), out)
			continue
		}
		t.Logf("%s: %d of %d findings are missed by go vet, first %s", a.Name, len(only), len(diags), only[0])
	}
}
