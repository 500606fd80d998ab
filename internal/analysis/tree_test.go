package analysis_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"vampos/internal/analysis"
	"vampos/internal/golden"
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
// waiting for a core is not analyzer cost. The race detector multiplies
// CPU time, so a -race build checks the diagnostics and skips the
// budget, as golden.RunWithinCPU does.
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
	if used := processCPU(t) - start; used > 5*time.Second && !golden.RaceEnabled {
		t.Errorf("full-tree analysis took %v of CPU, over the 5s budget", used)
	}
}

// processCPU returns the user plus system CPU time this process has used.
func processCPU(t *testing.T) time.Duration {
	t.Helper()
	used, err := golden.ProcessCPU()
	if err != nil {
		t.Fatal(err)
	}
	return used
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

// surfaceKeep lists the package-level names production code does not
// reference but the tree keeps on purpose, each with its reason. A name
// is "pkgpath.Name" for a func, type, var or const and
// "pkgpath.Type.Method" for a method. There are four kinds of reason: a
// paper feature only tests drive, a name a README or DESIGN snippet
// uses, a cross-package oracle hook with no production equivalent, and
// the boxed msg.Args accessors the benchmark module still needs.
var surfaceKeep = map[string]string{
	// Paper features (§VIII) that only tests drive; the version-switch
	// recovery fingerprint pins them.
	"vampos/internal/core.Runtime.RegisterFallback":   "§VIII N-version fallback: registers the alternative implementation a fail-stopped group switches to",
	"vampos/internal/core.Runtime.SetFailStopHandler": "§VIII graceful termination: the handler a permanently failed group runs",

	// Snippets in README.md and DESIGN.md.
	"vampos/internal/cluster.Cluster.GetVia": "the quorum read of README's cluster snippet and DESIGN's read-path section",

	// Cross-package oracle hooks with no production equivalent.
	"vampos/internal/core.Runtime.LogRecords":  "oracle: the session property and microreboot e2e tests audit the restoration log's records",
	"vampos/internal/core.Runtime.SessionLive": "oracle: the microreboot e2e test checks a session's live opener in the restoration log",
	"vampos/internal/trace.WithDispatches":     "oracle: a dispatch-recording recorder forces every idle poll to run, which the poll-leap tests compare against",
	"vampos/internal/unikernel.Sys.Connect":    "oracle: the only path that exercises the vfs and lwip connect exports",
	"vampos/internal/host.Peer.Listen":         "oracle: the listening peer Sys.Connect dials",
	"vampos/internal/host.PeerListener.Accept": "oracle: accepts the connection Sys.Connect makes",
	"vampos/internal/host.Peer.IP":             "oracle: the address Sys.Connect dials",
	"vampos/internal/host.Host.Stop":           "oracle: the poll-leap test stops the host to time a 9P call out",
	"vampos/internal/host.PeerConn.State":      "oracle: the echo and instance tests check a connection survives an LWIP reboot unreset",

	// The boxed-Args accessors go with the Args path once the benchmark
	// module no longer compiles against it.
	"vampos/internal/msg.Args.Int":    "boxed-Args accessor, removed with the Args path",
	"vampos/internal/msg.Args.Int64":  "boxed-Args accessor, removed with the Args path",
	"vampos/internal/msg.Args.Uint64": "boxed-Args accessor, removed with the Args path",
	"vampos/internal/msg.Args.Str":    "boxed-Args accessor, removed with the Args path",
	"vampos/internal/msg.Args.Bool":   "boxed-Args accessor, removed with the Args path",
}

// surfaceExemptPkgs are the packages whose declarations the guard does
// not check: test-support packages, whose whole purpose is to be called
// from tests. The root facade is checked like any other package: each
// of its names needs a user among the demo, the quickstart example or
// another facade declaration.
var surfaceExemptPkgs = map[string]bool{
	"vampos/internal/golden":                true,
	"vampos/internal/analysis/analysistest": true,
}

// TestNoTestOnlySurface fails when a package-level func, method, type,
// var or const in a non-test file is referenced from no non-test
// position outside its own declaration: such a name is surface that only
// tests reach, and no recovery path goes through it. It belongs in the
// package's _test.go files, or its tests belong on the production path.
//
// Exempt are the packages in surfaceExemptPkgs; methods named after a
// method of an interface visible in the loaded packages or their
// imports (they may be called through that interface); a const whose
// const block has a referenced sibling; and the names in surfaceKeep. The
// benchmark module is loaded with the tree, so its uses count like any
// other package's. A keep entry that production references, or that
// names nothing, fails the test as an unused //vampos:allow does.
//
// This is a test rather than an analyzer because it needs Info.Uses from
// every package at once, which neither a Pass nor the Facts carry.
func TestNoTestOnlySurface(t *testing.T) {
	start := processCPU(t)
	pkgs, _ := loadTree(t)
	if !slices.ContainsFunc(pkgs, func(p *analysis.Package) bool { return p.Path == "vampos/benchmark" }) {
		t.Fatal("the tree's packages miss vampos/benchmark: its uses would go uncounted")
	}
	viaIface := interfaceReachable(pkgs, visibleInterfaces(pkgs))
	uses := make(map[types.Object][]token.Pos)
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			uses[origin(obj)] = append(uses[origin(obj)], id.Pos())
		}
	}
	// referenced reports whether obj has a use outside its own
	// declaration, which spans [from, to).
	referenced := func(obj types.Object, from, to token.Pos) bool {
		for _, p := range uses[obj] {
			if p < from || p >= to {
				return true
			}
		}
		return false
	}

	var found []string
	declared := make(map[string]bool)
	for _, pkg := range pkgs {
		if surfaceExemptPkgs[pkg.Path] {
			continue
		}
		// check reports the name declared by id unless it is used or
		// exempt; key is its surfaceKeep spelling.
		check := func(id *ast.Ident, key string, exempt bool, from, to token.Pos) {
			obj := pkg.Info.Defs[id]
			if obj == nil || id.Name == "_" {
				return
			}
			declared[key] = true
			_, kept := surfaceKeep[key]
			used := exempt || referenced(obj, from, to)
			at := fmt.Sprintf("%s: %s", pkg.Fset.Position(id.Pos()), key)
			switch {
			case used && kept:
				t.Errorf("keep entry %s is referenced from production or exempt; drop it from surfaceKeep", key)
			case !used && !kept:
				found = append(found, at)
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv == nil {
						if name != "main" && name != "init" {
							check(d.Name, pkg.Path+"."+name, false, d.Pos(), d.End())
						}
						continue
					}
					fn := pkg.Info.Defs[d.Name].(*types.Func)
					check(d.Name, pkg.Path+"."+recvName(fn)+"."+name, viaIface[fn], d.Pos(), d.End())
				case *ast.GenDecl:
					// A const whose block has a referenced sibling is
					// part of an enumeration that is in use.
					blockUsed := false
					for _, s := range d.Specs {
						if vs, ok := s.(*ast.ValueSpec); ok && d.Tok == token.CONST {
							for _, id := range vs.Names {
								if obj := pkg.Info.Defs[id]; obj != nil && referenced(obj, vs.Pos(), vs.End()) {
									blockUsed = true
								}
							}
						}
					}
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							key := pkg.Path + "." + s.Name.Name
							check(s.Name, key, false, s.Pos(), s.End())
						case *ast.ValueSpec:
							for _, id := range s.Names {
								key := pkg.Path + "." + id.Name
								check(id, key, blockUsed, s.Pos(), s.End())
							}
						}
					}
				}
			}
		}
	}
	for key := range surfaceKeep {
		if !declared[key] {
			t.Errorf("keep entry %s names no declaration; drop it from surfaceKeep", key)
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("%s is referenced only from tests, or nowhere", f)
	}
	if len(found) > 0 {
		t.Logf("%d names only tests reach", len(found))
	}
	if used := processCPU(t) - start; used > 5*time.Second && !golden.RaceEnabled {
		t.Errorf("surface scan took %v of CPU, over the 5s budget", used)
	}
}

// origin maps an instantiated generic func or field back to its
// declaration, so a use through an instance counts for the original.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// recvName names a method's receiver type, through one pointer.
func recvName(fn *types.Func) string {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// visibleInterfaces collects, by method name, every non-empty interface
// visible to the loaded packages: the named interfaces in their scopes
// and their direct imports' scopes, the interface literals their code
// spells out, and the universe's error.
func visibleInterfaces(pkgs []*analysis.Package) map[string][]*types.Interface {
	byName := make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	scope := func(p *types.Package) {
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	for _, pkg := range pkgs {
		scope(pkg.Types)
		for _, imp := range pkg.Types.Imports() {
			scope(imp)
		}
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byName
}

// interfaceReachable returns the methods that may be called through a
// visible interface: every method, declared or promoted from an
// embedded field, in the method set of a module type that implements
// a visible interface having that method's name.
func interfaceReachable(pkgs []*analysis.Package, ifaces map[string][]*types.Interface) map[types.Object]bool {
	reach := make(map[types.Object]bool)
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			ms := types.NewMethodSet(ptr)
			for i := 0; i < ms.Len(); i++ {
				m := ms.At(i).Obj()
				for _, it := range ifaces[m.Name()] {
					if types.Implements(ptr, it) {
						reach[origin(m)] = true
						break
					}
				}
			}
		}
	}
	return reach
}
