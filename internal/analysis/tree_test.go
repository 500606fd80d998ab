package analysis_test

import (
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"vampos/internal/analysis"
)

// loadTree loads every package of the module with one loader and
// computes the shared fact base, the way the vampos-vet driver does.
func loadTree(t *testing.T) ([]*analysis.Package, *analysis.Facts) {
	t.Helper()
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	paths, err := loader.Expand(loader.ModuleRoot, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]*analysis.Package, 0, len(paths))
	roots := make([]*types.Package, 0, len(paths))
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			t.Fatalf("loading %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
		roots = append(roots, pkg.Types)
	}
	return pkgs, analysis.NewFacts(roots...)
}

// TestTreeCleanWithinBudget is the tentpole acceptance check: the full
// nine-analyzer suite over the whole module reports zero diagnostics
// (every allow in the tree is justified and used) and completes within
// the 5-second budget that keeps vampos-vet cheap enough for CI and
// pre-commit use. The budget is this process's own CPU time, not wall
// time: under `go test ./...` other packages' tests share the cores, and
// waiting for a core is not analyzer cost.
func TestTreeCleanWithinBudget(t *testing.T) {
	start := processCPU(t)
	pkgs, facts := loadTree(t)
	for _, pkg := range pkgs {
		diags, err := analysis.RunWithFacts(pkg, analysis.Analyzers(), facts)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("tree not clean: %s", d)
		}
	}
	if used := processCPU(t) - start; used > 5*time.Second {
		t.Errorf("full-tree analysis took %v of CPU, over the 5s budget", used)
	}
}

// processCPU returns the user plus system CPU time this process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		t.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// TestTreeFacts pins the cross-package fact base the analyzers depend
// on: the checkpointing components, the recovery-ladder sentinels, and
// the Ctx/Cluster anchors must all resolve on the real tree — if one of
// them silently vanished, statecomplete/quiescentcall/laddererr would
// degrade to no-ops without failing.
func TestTreeFacts(t *testing.T) {
	_, facts := loadTree(t)
	summary := strings.Join(facts.Summary(), "\n")
	for _, want := range []string{
		"state-saver     vampos/internal/lwip.Comp",
		"state-saver     vampos/internal/vfs.Comp",
		"ladder-sentinel vampos/internal/core.ErrUnrebootable",
		"ladder-sentinel vampos/internal/core.ErrMicrorebootEscalated",
		"ladder-sentinel vampos/internal/cluster.ErrNotReplicated",
		"component-root vampos/internal/lwip",
		"ordered-output vampos/internal/vfs",
	} {
		if !strings.Contains(summary, want) {
			t.Errorf("fact base is missing %q", want)
		}
	}
}

// allowRe matches a line-leading allow directive; doc comments quoting
// directive syntax and string literals never sit at line start.
var allowRe = regexp.MustCompile(`^\s*//vampos:allow\s+(\S+)(.*)$`)

// TestNoUnexplainedAllows scans every non-testdata source file for
// //vampos:allow directives and asserts each names a known analyzer and
// carries a non-empty reason after "--". The analyzers enforce this at
// analysis time too; this test keeps the guarantee even for files no
// analyzer currently visits.
func TestNoUnexplainedAllows(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(loader.ModuleRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := allowRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			if analysis.ByName(m[1]) == nil {
				t.Errorf("%s:%d: allow names unknown analyzer %q", path, i+1, m[1])
			}
			_, reason, ok := strings.Cut(m[2], "--")
			if !ok || strings.TrimSpace(reason) == "" {
				t.Errorf("%s:%d: allow directive with no reason: %s", path, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
