package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HandlerBlock flags blocking operations inside simulator event handlers.
// The discrete-event engine is single-threaded: a handler that parks on a
// channel or a WaitGroup that only code running after the handler returns
// could release does not slow the simulation down — it deadlocks it.
//
// Handler roots are the function values passed to the well-known
// registration calls (sim.Engine.At/After, sim.Timer.Bind,
// netsim.Host.SetHandler, netsim.Network.AddTap/Notify — matched by method
// name so test fixtures and future packages are covered too). A root passed as a function-typed
// struct field (a pooled record's callback, bound once: rec.fn = rec.fire,
// then At(t, rec.fn)) stands for every value the package assigns to that
// field. From each root the analyzer walks statically-resolvable calls into
// same-package functions (depth-limited) and flags:
//
//   - channel sends and receives outside a select with a default case,
//   - selects without a default case,
//   - sync.WaitGroup.Wait and sync.Cond.Wait.
var HandlerBlock = &Analyzer{
	Name: "handlerblock",
	Doc:  "flags blocking operations reachable from sim/netsim/ctrlplane event handler registrations",
	Run:  runHandlerBlock,
}

// registrationMethods name the calls whose function-typed arguments become
// event handlers. Matching is by callee name: the simulator's registration
// surface is small and distinctively named, and a false positive is one
// suppression away.
var registrationMethods = map[string]bool{
	"At": true, "After": true, "Bind": true, "SetHandler": true, "AddTap": true, "Notify": true,
}

var blockingWaits = map[string]string{
	"(*sync.WaitGroup).Wait": "sync.WaitGroup.Wait",
	"(*sync.Cond).Wait":      "sync.Cond.Wait",
}

func runHandlerBlock(pass *Pass) error {
	w := &hbWalker{
		pass:     pass,
		decls:    map[types.Object]*ast.FuncDecl{},
		fields:   map[types.Object][]ast.Expr{},
		visited:  map[ast.Node]bool{},
		reported: map[token.Pos]bool{},
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
					w.decls[obj] = fd
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.AssignStmt:
				if len(nn.Lhs) == len(nn.Rhs) {
					for i, lhs := range nn.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							w.recordField(sel.Sel, nn.Rhs[i])
						}
					}
				}
			case *ast.KeyValueExpr:
				if key, ok := nn.Key.(*ast.Ident); ok {
					w.recordField(key, nn.Value)
				}
			}
			return true
		})
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !registrationMethods[calleeName(call)] {
				return true
			}
			for _, arg := range call.Args {
				if tv, ok := pass.TypesInfo.Types[arg]; ok {
					if _, isFunc := tv.Type.Underlying().(*types.Signature); isFunc {
						w.walkRoot(arg, 0)
					}
				}
			}
			return true
		})
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

type hbWalker struct {
	pass     *Pass
	decls    map[types.Object]*ast.FuncDecl
	fields   map[types.Object][]ast.Expr // function-typed struct field -> values assigned to it
	visited  map[ast.Node]bool
	reported map[token.Pos]bool
}

// recordField notes value as one of the handlers a function-typed struct
// field can hold, if name resolves to such a field.
func (w *hbWalker) recordField(name *ast.Ident, value ast.Expr) {
	v, ok := w.pass.TypesInfo.Uses[name].(*types.Var)
	if !ok || !v.IsField() {
		return
	}
	if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
		w.fields[v] = append(w.fields[v], value)
	}
}

const hbMaxDepth = 4

// walkRoot resolves a handler-valued expression to a function body and
// scans it.
func (w *hbWalker) walkRoot(expr ast.Expr, depth int) {
	switch e := expr.(type) {
	case *ast.FuncLit:
		w.walkBody(e, e.Body, depth)
	case *ast.Ident:
		if fd := w.decls[w.pass.TypesInfo.Uses[e]]; fd != nil {
			w.walkBody(fd, fd.Body, depth)
		}
	case *ast.SelectorExpr:
		obj := w.pass.TypesInfo.Uses[e.Sel]
		if fd := w.decls[obj]; fd != nil {
			w.walkBody(fd, fd.Body, depth)
		}
		if values := w.fields[obj]; len(values) > 0 && !w.visited[e.Sel] {
			// A callback field: the handler is whatever the package
			// stored there. The visited mark stops rec.fn = other.fn
			// cycles.
			w.visited[e.Sel] = true
			for _, v := range values {
				w.walkRoot(v, depth)
			}
		}
	case *ast.CallExpr:
		// A call producing the handler (adapter pattern): walk the factory
		// too; its body contains the eventual closure.
		w.walkRoot(e.Fun, depth)
	}
}

func (w *hbWalker) walkBody(key ast.Node, body *ast.BlockStmt, depth int) {
	if body == nil || depth > hbMaxDepth || w.visited[key] {
		return
	}
	w.visited[key] = true

	// Channel ops inside any select are judged by the select itself: with
	// a default case they are non-blocking by construction; without one
	// the select is flagged once rather than per-clause.
	var selects []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		selects = append(selects, sel)
		if !selectHasDefault(sel) {
			w.report(sel.Pos(), "select without a default case blocks the event loop")
		}
		return true
	})
	inSelect := func(pos token.Pos) bool {
		for _, s := range selects {
			if s.Pos() <= pos && pos < s.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.SendStmt:
			if !inSelect(nn.Pos()) {
				w.report(nn.Pos(), "channel send can block inside an event handler; use select with default or buffer outside the engine")
			}
		case *ast.UnaryExpr:
			if nn.Op == token.ARROW && !inSelect(nn.Pos()) {
				w.report(nn.Pos(), "channel receive can block inside an event handler; use select with default")
			}
		case *ast.CallExpr:
			if fn := w.staticCallee(nn); fn != nil {
				if what, bad := blockingWaits[fn.FullName()]; bad {
					w.report(nn.Pos(), "%s blocks inside an event handler", what)
				} else if fd := w.decls[fn]; fd != nil {
					w.walkBody(fd, fd.Body, depth+1)
				}
			}
		case *ast.FuncLit:
			// Nested literals are usually re-scheduled callbacks; they run
			// as engine events themselves, so scan them too.
			w.walkBody(nn, nn.Body, depth+1)
			return false
		}
		return true
	})
}

// staticCallee resolves a call to the *types.Func it statically invokes,
// or nil for dynamic calls.
func (w *hbWalker) staticCallee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = w.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = w.pass.TypesInfo.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func (w *hbWalker) report(pos token.Pos, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.pass.Reportf(pos, format, args...)
}
