package lint

import (
	"go/ast"
	"go/types"
)

// UnreadSeed flags a parameter named seed that its function never uses, in
// deterministic packages. A function that takes a seed and ignores it draws
// the same numbers at every run seed: a trial bed built with a zero network
// config, whatever seed it was handed, repeats one draw across every column
// that claims to vary it.
var UnreadSeed = &Analyzer{
	Name:              "unreadseed",
	Doc:               "flags a parameter named seed that its function never uses, in packages tagged lint:deterministic",
	DeterministicOnly: true,
	Run:               runUnreadSeed,
}

func runUnreadSeed(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var typ *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				typ, body = fn.Type, fn.Body
			case *ast.FuncLit:
				typ, body = fn.Type, fn.Body
			default:
				return true
			}
			for _, field := range typ.Params.List {
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; name.Name == "seed" && body != nil && !usesObject(pass, body, obj) {
						pass.Reportf(name.Pos(), "parameter seed is never used: every draw below this function ignores the run's seed")
					}
				}
			}
			return true
		})
	}
	return nil
}

// usesObject reports whether any identifier in n refers to obj.
func usesObject(pass *Pass, n ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			used = true
		}
		return !used
	})
	return used
}
