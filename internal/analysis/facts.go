package analysis

import (
	"fmt"
	"go/types"
	"sort"
	"strings"
)

// Facts is the cross-package fact base the vampos-vet suite shares: one
// pass over the loaded module's type information computes everything the
// analyzers need to know about *other* packages, so each analyzer stays
// a cheap single-package AST walk. The facts are:
//
//   - component root packages (static layout knowledge, componentOf),
//   - named types implementing the SaveState/RestoreState checkpoint
//     protocol (statecomplete's subjects),
//   - sentinel error values (exported Err* variables of type error in
//     module packages; laddererr's subjects),
//   - the runtime's Ctx and Cluster types (quiescentcall / laddererr
//     resolve method calls against them),
//   - the deterministic-package sets (detclock's wall-clock set and
//     detrange's ordered-output set).
//
// Facts are computed from go/types data alone — no extra parsing — by
// walking the import graph of the analysis roots, so golden-test
// fixtures that pose as module packages (or override internal/core with
// a miniature stand-in) produce exactly the facts their imports declare.
type Facts struct {
	stateSavers map[*types.Named]bool
	// sentinels holds every exported package-level `var ErrX` of type
	// error in a module package; recovery marks the subset that names
	// a recovery-ladder outcome.
	sentinels map[types.Object]bool
	recovery  map[types.Object]bool
	ctx       *types.TypeName // vampos/internal/core.Ctx
	cluster   *types.TypeName // vampos/internal/cluster.Cluster
	pkgs      []string        // module packages the walk visited, sorted
}

// recoverySentinels are the ladder's escalation signals: testing them
// with == instead of errors.Is breaks the moment a rung wraps the cause
// with %w, and the ladder wraps at every escalation.
var recoverySentinels = map[string]bool{
	"ErrUnrebootable":         true,
	"ErrNotReplicated":        true,
	"ErrMicrorebootEscalated": true,
}

// detrangePkgs are the packages whose map-iteration order can leak into
// logged bytes, gossip deltas, or codec output (the detrange analyzer's
// scope): the runtime core and message layer (log bytes), the cluster
// and gossip layers (deltas, convergence digests), the checkpoint
// engine (image blobs), and the VFS and LWIP components (the records
// their compactors write).
var detrangePkgs = map[string]bool{
	modulePath + "/internal/core":           true,
	modulePath + "/internal/msg":            true,
	modulePath + "/internal/cluster":        true,
	modulePath + "/internal/cluster/gossip": true,
	modulePath + "/internal/ckpt":           true,
	modulePath + "/internal/vfs":            true,
	modulePath + "/internal/lwip":           true,
}

// NewFacts computes the fact base for the import-closure of roots.
func NewFacts(roots ...*types.Package) *Facts {
	f := &Facts{
		stateSavers: make(map[*types.Named]bool),
		sentinels:   make(map[types.Object]bool),
		recovery:    make(map[types.Object]bool),
	}
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			walk(imp)
		}
		if p.Path() != modulePath && !strings.HasPrefix(p.Path(), modulePath+"/") {
			return
		}
		f.pkgs = append(f.pkgs, p.Path())
		f.scanScope(p)
	}
	for _, r := range roots {
		walk(r)
	}
	sort.Strings(f.pkgs)
	return f
}

// scanScope records the facts one module package contributes.
func (f *Facts) scanScope(p *types.Package) {
	scope := p.Scope()
	for _, name := range scope.Names() {
		switch o := scope.Lookup(name).(type) {
		case *types.Var:
			if o.Exported() && strings.HasPrefix(name, "Err") && isErrorType(o.Type()) {
				f.sentinels[o] = true
				if recoverySentinels[name] {
					f.recovery[o] = true
				}
			}
		case *types.TypeName:
			named, ok := o.Type().(*types.Named)
			if !ok {
				continue
			}
			if hasMethods(named, "SaveState", "RestoreState") {
				f.stateSavers[named] = true
			}
			if name == "Ctx" && p.Path() == modulePath+"/internal/core" {
				f.ctx = o
			}
			if name == "Cluster" && p.Path() == modulePath+"/internal/cluster" {
				f.cluster = o
			}
		}
	}
}

// isErrorType reports whether t satisfies the error interface.
func isErrorType(t types.Type) bool {
	iface, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return iface != nil && types.Implements(t, iface)
}

// hasMethods reports whether *T (and therefore T's full method set)
// declares every named method. Matching is structural by name, not by
// interface identity, so fixture packages never need to import the real
// internal/core to be recognized.
func hasMethods(named *types.Named, names ...string) bool {
	ptr := types.NewPointer(named)
	for _, n := range names {
		obj, _, _ := types.LookupFieldOrMethod(ptr, true, named.Obj().Pkg(), n)
		if _, ok := obj.(*types.Func); !ok {
			return false
		}
	}
	return true
}

// OrderedOutputPkg reports whether path is in detrange's scope: the
// packages whose map-iteration order can reach logged bytes, gossip
// deltas, or codec output.
func (f *Facts) OrderedOutputPkg(path string) bool { return detrangePkgs[path] }

// IsStateSaver reports whether the named type implements the
// SaveState/RestoreState checkpoint protocol.
func (f *Facts) IsStateSaver(named *types.Named) bool { return f.stateSavers[named] }

// IsRecoverySentinel reports whether obj is one of the ladder's
// escalation sentinels (ErrUnrebootable, ErrNotReplicated,
// ErrMicrorebootEscalated).
func (f *Facts) IsRecoverySentinel(obj types.Object) bool { return obj != nil && f.recovery[obj] }

// IsCtxType reports whether named is internal/core's Ctx.
func (f *Facts) IsCtxType(named *types.Named) bool {
	return f.ctx != nil && named != nil && named.Obj() == f.ctx
}

// IsClusterType reports whether named is internal/cluster's Cluster.
func (f *Facts) IsClusterType(named *types.Named) bool {
	return f.cluster != nil && named != nil && named.Obj() == f.cluster
}

// namedRecv returns the named type a method selection's receiver
// resolves to (through one pointer), or nil.
func namedRecv(recv types.Type) *types.Named {
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, _ := recv.(*types.Named)
	return named
}

// Summary renders the fact base for `vampos-vet -facts`: one line per
// fact, sorted, so the shared state every analyzer runs against is
// auditable (and diffable) from the command line.
func (f *Facts) Summary() []string {
	var out []string
	for _, p := range f.pkgs {
		if c := componentOf(p); c == p {
			out = append(out, fmt.Sprintf("component-root %s", p))
		}
		if detrangePkgs[p] {
			out = append(out, fmt.Sprintf("ordered-output %s", p))
		}
		if deterministicPkgs[p] {
			out = append(out, fmt.Sprintf("deterministic  %s", p))
		}
	}
	for n := range f.stateSavers {
		out = append(out, fmt.Sprintf("state-saver     %s.%s", n.Obj().Pkg().Path(), n.Obj().Name()))
	}
	for o := range f.sentinels {
		kind := "sentinel       "
		if f.recovery[o] {
			kind = "ladder-sentinel"
		}
		out = append(out, fmt.Sprintf("%s %s.%s", kind, o.Pkg().Path(), o.Name()))
	}
	sort.Strings(out)
	return out
}
