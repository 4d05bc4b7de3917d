package lint_test

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"pgrid/internal/lint"
)

// TestTreeIsClean runs the whole suite over every package of the module,
// tests included, exactly as `pgridvet ./...` does at the repository root:
// the tree must carry no finding.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := lint.RunPatterns(root, lint.All(), []string{"./..."}, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestBrokenInvariantFails proves that a deliberately broken invariant
// fails the pgridvet binary with exit code 2 and a diagnostic naming the
// analyzer: the senterr fixture compares errors to a sentinel with ==.
func TestBrokenInvariantFails(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles pgridvet")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "pgridvet")
	build := exec.Command("go", "build", "-o", bin, "./cmd/pgridvet")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pgridvet: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-senterr", "./...")
	cmd.Dir = filepath.Join(root, "internal/lint/testdata/src/senterr")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("want exit code 2 on broken invariant, got %v\n%s", err, out)
	}
	for _, want := range []string{"senterr.go:18:5: comparison with sentinel error ErrNotFound uses ==", "[pgridvet:senterr]"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("diagnostics do not contain %q:\n%s", want, out)
		}
	}
}
