package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DetRange flags `range` statements over maps in deterministic packages.
// Go randomizes map iteration order per run, so any map range whose body is
// order-sensitive (emits output, appends to a slice, takes the "first"
// match, breaks ties) silently destroys bit-reproducibility.
//
// A body is exempted when it is provably order-insensitive, meaning every
// statement is one of: a commutative accumulation (x++, x--, sum += v,
// prod *= v, bits |= v, and the other symmetric compound assignments), a
// write keyed by the range key (dst[k] = v — each iteration touches a
// distinct key), delete(m, k), continue, a declaration of or plain
// assignment to a variable local to the body, or an if/block composed of
// the same. Anything else — append, return, break, calls for effect,
// assignment to outer state — is flagged. The classifier inspects
// statement shapes only; it does not try to prove called functions pure.
var DetRange = &Analyzer{
	Name:              "detrange",
	Doc:               "flags order-sensitive iteration over maps in packages tagged lint:deterministic",
	DeterministicOnly: true,
	Run:               runDetRange,
}

func runDetRange(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if orderInsensitive(pass, rs) {
				return true
			}
			pass.Reportf(rs.Pos(),
				"range over map %s has an order-sensitive body; map order is randomized per run — iterate sorted keys instead",
				typeLabel(tv.Type))
			return true
		})
	}
	return nil
}

func typeLabel(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}

// orderInsensitive reports whether every statement of the range body is a
// commutative accumulation or otherwise independent of iteration order.
func orderInsensitive(pass *Pass, rs *ast.RangeStmt) bool {
	c := &bodyClassifier{pass: pass, locals: map[types.Object]bool{}}
	if key, ok := rs.Key.(*ast.Ident); ok && key.Name != "_" {
		c.key = pass.TypesInfo.Defs[key]
	}
	if val, ok := rs.Value.(*ast.Ident); ok && val.Name != "_" {
		c.locals[pass.TypesInfo.Defs[val]] = true
	}
	for _, stmt := range rs.Body.List {
		if !c.allowed(stmt) {
			return false
		}
	}
	return true
}

type bodyClassifier struct {
	pass   *Pass
	key    types.Object          // the range key variable, if named
	locals map[types.Object]bool // variables declared inside the body
}

func (c *bodyClassifier) allowed(stmt ast.Stmt) bool {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		return c.allowedAssign(s)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			c.noteDeclLocals(gd)
			return true
		}
		return false
	case *ast.ExprStmt:
		call, ok := s.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		return ok && fn.Name == "delete" && c.pass.TypesInfo.Uses[fn] == types.Universe.Lookup("delete")
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE
	case *ast.IfStmt:
		if s.Init != nil && !c.allowed(s.Init) {
			return false
		}
		if !c.allowed(s.Body) {
			return false
		}
		return s.Else == nil || c.allowed(s.Else)
	case *ast.BlockStmt:
		for _, sub := range s.List {
			if !c.allowed(sub) {
				return false
			}
		}
		return true
	}
	return false
}

func (c *bodyClassifier) allowedAssign(s *ast.AssignStmt) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true
	case token.DEFINE:
		for _, lhs := range s.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				c.locals[c.pass.TypesInfo.Defs[id]] = true
			}
		}
		return true
	case token.ASSIGN:
		blank := true
		for _, lhs := range s.Lhs {
			if !c.allowedTarget(lhs) {
				return false
			}
			if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
				blank = false
			}
		}
		// An assignment to blanks only keeps nothing: it is there for its
		// right-hand side's effect, like an expression statement.
		return !blank || !c.calls(s.Rhs)
	}
	return false
}

// calls reports whether any of exprs calls a function (a conversion is not a
// call); the body of a function literal is not inspected.
func (c *bodyClassifier) calls(exprs []ast.Expr) bool {
	found := false
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if !c.pass.TypesInfo.Types[n.Fun].IsType() {
					found = true
				}
			}
			return !found
		})
	}
	return found
}

// allowedTarget accepts plain-assignment targets that cannot make the loop
// order-sensitive: body-local variables, and container elements indexed by
// the range key (each iteration writes a distinct slot).
func (c *bodyClassifier) allowedTarget(lhs ast.Expr) bool {
	switch t := lhs.(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return true
		}
		return c.locals[c.pass.TypesInfo.Uses[t]]
	case *ast.IndexExpr:
		idx, ok := t.Index.(*ast.Ident)
		return ok && c.key != nil && c.pass.TypesInfo.Uses[idx] == c.key
	}
	return false
}

func (c *bodyClassifier) noteDeclLocals(gd *ast.GenDecl) {
	for _, spec := range gd.Specs {
		if vs, ok := spec.(*ast.ValueSpec); ok {
			for _, name := range vs.Names {
				c.locals[c.pass.TypesInfo.Defs[name]] = true
			}
		}
	}
}
