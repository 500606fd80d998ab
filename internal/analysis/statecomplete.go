package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// StateComplete enforces checkpoint state completeness on component
// packages: if an exported handler (anything reachable from the
// component's Exports map) writes a field of a SaveState/RestoreState
// type, that field must be referenced by both SaveState and
// RestoreState (directly or through same-package helpers). A field the
// image does not carry is rebuilt only by log replay — and the moment
// incremental checkpointing truncates the records that built it, the
// state is silently gone. That is exactly how PR 4's lwip bug lost
// listening sockets: SaveState captured allocation counters but not the
// socket table, and the loss surfaced only once TruncateBefore folded
// the socket/bind/listen records into the image.
//
// Fields that are genuinely derived (rebuilt from saved state inside
// RestoreState), transient (alive only inside one recovery), or
// presentation-only counters carry a reasoned
// //vampos:allow statecomplete directive on their declaration line.
var StateComplete = &Analyzer{
	Name: "statecomplete",
	Doc: "every mutable field written by an exported handler of a " +
		"SaveState/RestoreState component must be covered by both SaveState and " +
		"RestoreState, or carry a reasoned allow",
	Run: runStateComplete,
}

func runStateComplete(pass *Pass) error {
	if componentOf(pass.Path) == "" {
		return nil
	}
	decls := declIndex(pass)
	for _, named := range declaredNamedTypes(pass) {
		if !pass.Facts.IsStateSaver(named) {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		c := &stateCheck{pass: pass, named: named, decls: decls,
			fields: make(map[types.Object]bool)}
		for i := 0; i < st.NumFields(); i++ {
			c.fields[st.Field(i)] = true
		}
		exports := c.method("Exports")
		save, restore := c.method("SaveState"), c.method("RestoreState")
		if exports == nil || save == nil || restore == nil {
			continue
		}
		// Everything the Exports body references is handler surface:
		// method-value handlers, closure handlers, and every helper they
		// call transitively within the package.
		writes := c.fieldWrites(c.reachable(exports))
		saved := c.fieldRefs(c.reachable(save))
		restored := c.fieldRefs(c.reachable(restore))
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			w, written := writes[fld]
			if !written {
				continue
			}
			missSave, missRestore := !saved[fld], !restored[fld]
			if !missSave && !missRestore {
				continue
			}
			miss := "SaveState and RestoreState"
			switch {
			case missSave && !missRestore:
				miss = "SaveState"
			case missRestore && !missSave:
				miss = "RestoreState"
			}
			pass.Reportf(fld.Pos(),
				"handler-mutable state not covered by checkpoint: %s.%s is written by handler code (%s at %s) but never referenced in %s; "+
					"once log truncation folds the records that built it, the field is silently lost on restore (the PR-4 lwip lost-listeners class) — "+
					"save it, or annotate the field: //vampos:allow statecomplete -- <why the image can omit it>",
				named.Obj().Name(), fld.Name(), w.fn, pass.Fset.Position(w.pos), miss)
		}
	}
	return nil
}

// declIndex maps every function/method object declared in the package
// to its AST declaration.
func declIndex(pass *Pass) map[*types.Func]*ast.FuncDecl {
	out := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				out[obj] = fd
			}
		}
	}
	return out
}

// declaredNamedTypes lists the named types declared in the package, in
// file/declaration order (deterministic reporting).
func declaredNamedTypes(pass *Pass) []*types.Named {
	var out []*types.Named
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if tn, ok := pass.Info.Defs[ts.Name].(*types.TypeName); ok {
					if named, ok := tn.Type().(*types.Named); ok {
						out = append(out, named)
					}
				}
			}
		}
	}
	return out
}

type writeSite struct {
	pos token.Pos
	fn  string
}

type stateCheck struct {
	pass   *Pass
	named  *types.Named
	decls  map[*types.Func]*ast.FuncDecl
	fields map[types.Object]bool
}

// method returns the declaration of the named method of the checked
// type, or nil.
func (c *stateCheck) method(name string) *ast.FuncDecl {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(c.named), true, c.named.Obj().Pkg(), name)
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	return c.decls[fn]
}

// reachable returns the set of package function declarations referenced
// transitively from root (method values count as calls: a handler map
// entry is a reference, not an invocation).
func (c *stateCheck) reachable(root *ast.FuncDecl) []*ast.FuncDecl {
	seen := map[*ast.FuncDecl]bool{root: true}
	order := []*ast.FuncDecl{root}
	for i := 0; i < len(order); i++ {
		ast.Inspect(order[i], func(n ast.Node) bool {
			var obj types.Object
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := c.pass.Info.Selections[n]; ok {
					obj = sel.Obj()
				}
			case *ast.Ident:
				obj = c.pass.Info.Uses[n]
			}
			if fn, ok := obj.(*types.Func); ok {
				if d := c.decls[fn]; d != nil && !seen[d] {
					seen[d] = true
					order = append(order, d)
				}
			}
			return true
		})
	}
	return order
}

// fieldWrites collects the fields of the checked type that the given
// functions mutate: assignments (including through index expressions
// and nested selectors), ++/--, and delete() on a field-held map.
func (c *stateCheck) fieldWrites(fns []*ast.FuncDecl) map[types.Object]writeSite {
	out := make(map[types.Object]writeSite)
	record := func(e ast.Expr, fnName string) {
		if fld := c.baseField(e); fld != nil {
			if old, ok := out[fld]; !ok || e.Pos() < old.pos {
				out[fld] = writeSite{pos: e.Pos(), fn: fnName}
			}
		}
	}
	for _, fd := range fns {
		name := fd.Name.Name
		ast.Inspect(fd, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					record(lhs, name)
				}
			case *ast.IncDecStmt:
				record(n.X, name)
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && len(n.Args) > 0 {
					if b, ok := c.pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
						record(n.Args[0], name)
					}
				}
			}
			return true
		})
	}
	return out
}

// fieldRefs collects every field of the checked type the given
// functions reference at all (read or write).
func (c *stateCheck) fieldRefs(fns []*ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, fd := range fns {
		ast.Inspect(fd, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if s, ok := c.pass.Info.Selections[sel]; ok && c.fields[s.Obj()] {
				out[s.Obj()] = true
			}
			return true
		})
	}
	return out
}

// baseField unwraps an assignment target (selectors, index expressions,
// parens, derefs) to the outermost field of the checked type it writes
// through, or nil. `c.stats.n = 1` and `c.socks[id] = s` both resolve
// to the direct field (stats, socks).
func (c *stateCheck) baseField(e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if s, ok := c.pass.Info.Selections[x]; ok && c.fields[s.Obj()] {
				return s.Obj()
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
