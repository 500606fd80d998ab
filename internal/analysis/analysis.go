// Package analysis implements vampos-vet: a suite of static analyzers
// that mechanically enforce the isolation, logging, and determinism
// invariants VampOS's recovery model depends on (DESIGN.md "Statically
// enforced invariants").
//
// Microreboot-style recovery is only sound when component boundaries
// are enforced rather than conventional: a component that imports
// another directly, smuggles a pointer through msg.Args, or reads the
// wall clock inside a deterministic trial silently invalidates the
// encapsulated-restoration and campaign-replay arguments. The nine
// analyzers here turn those prose invariants into compile-time checks:
//
//   - domainimports: component packages interact only through logged
//     messages (internal/msg via internal/core), never by importing
//     each other.
//   - nosharedref: no reference payloads (pointers, non-[]byte slices,
//     maps, chans, funcs) in msg.Args — references would tunnel under
//     the simulated MPK wall in internal/mem.
//   - detclock: deterministic packages take time from internal/clock,
//     never the host wall clock or global math/rand.
//   - schedonly: the model is a single-vCPU cooperative scheduler; raw
//     go statements and sync primitives live only in internal/sched and
//     internal/campaign's worker pool.
//   - interposeonly: component handlers are invoked only through
//     internal/core's interposition layer, because an unlogged call
//     breaks log-based restoration.
//   - statecomplete: every mutable field an exported handler writes
//     must be covered by SaveState and RestoreState — otherwise log
//     truncation silently drops it (the PR-4 lwip lost-listeners bug).
//   - detrange: no order-sensitive iteration over maps in the packages
//     whose output is replayed or byte-compared (log bytes, gossip
//     deltas, codec output) unless the keys are sorted first.
//   - quiescentcall: Ctx.Checkpoint / Ctx.Rejuvenate /
//     Ctx.MicrorebootSession are quiescent-context operations; a
//     component handler must never invoke them mid-call.
//   - laddererr: the recovery ladder's sentinel errors are tested with
//     errors.Is (never == or string matching), and escalation results
//     are handled, not dropped.
//
// The four recovery-completeness analyzers consume a cross-package
// fact base (Facts) computed in a single pass over the loaded module's
// type information: component roots, SaveState/RestoreState
// implementers, sentinel error values, and the deterministic-package
// sets.
//
// The framework deliberately mirrors golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic, and an analysistest-style golden-test
// harness) but is self-contained on the standard library's go/ast and
// go/types, so the module stays dependency-free.
//
// A finding at a justified site is silenced by an explicit directive on
// the offending line or the line above it:
//
//	//vampos:allow <analyzer> -- <reason>
//
// The driver verifies every directive: a missing reason or a directive
// that suppresses nothing is itself a diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer is one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //vampos:allow directives.
	Name string
	// Doc is a short description of what the analyzer enforces.
	Doc string
	// Run inspects a package and reports findings through the pass.
	Run func(*Pass) error
}

// A Pass presents one package to one analyzer.
type Pass struct {
	Analyzer *Analyzer
	// Path is the package's import path; analyzers scope themselves
	// with it (component package, deterministic package, …).
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Facts is the cross-package fact base shared by every analyzer of
	// the run (see Facts); never nil.
	Facts *Facts

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the full vampos-vet suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DomainImports,
		NoSharedRef,
		DetClock,
		SchedOnly,
		InterposeOnly,
		StateComplete,
		DetRange,
		QuiescentCall,
		LadderErr,
	}
}

// ByName returns the named analyzer from the suite, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run applies the analyzers to the package, applies //vampos:allow
// directive suppression, and returns the surviving diagnostics sorted
// by position. Malformed and unused directives are reported as
// diagnostics of the pseudo-analyzer "directive". The cross-package
// fact base is computed from the package's own import closure; a
// multi-package driver should compute Facts once with NewFacts and use
// RunWithFacts instead.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunWithFacts(pkg, analyzers, NewFacts(pkg.Types))
}

// RunWithFacts is Run with a caller-supplied fact base, so a whole-tree
// driver walks the module's type information exactly once.
func RunWithFacts(pkg *Package, analyzers []*Analyzer, facts *Facts) ([]Diagnostic, error) {
	dirs := collectDirectives(pkg)
	var out []Diagnostic
	out = append(out, dirs.malformed...)
	ran := make(map[string]bool)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Path:     pkg.Path,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Facts:    facts,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Path, err)
		}
		ran[a.Name] = true
		for _, d := range pass.diags {
			if !dirs.suppress(d) {
				out = append(out, d)
			}
		}
	}
	out = append(out, dirs.unused(ran)...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}
