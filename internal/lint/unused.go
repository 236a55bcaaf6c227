package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// Unused flags every package-level declaration — func, method, type,
// const or var, exported or not — that no non-test code of the whole
// program reaches. Code that nothing runs still has to be read, and it
// rots because no figure, example or benchmark exercises it.
//
// Liveness is a fixpoint over references (types.Info.Uses), not a grep:
//
//   - Roots: main and init funcs, package-level `_` vars, every
//     declaration of a command (package main: cmd/, examples/) and of a
//     reference-only package (a nested module such as benchmark/), and
//     every declaration a `lint:ignore unused <reason>` covers. A
//     directive on a type keeps that type's methods too.
//   - A use counts only from inside a live declaration, never from the
//     declaration's own body, so recursion does not keep a func alive and
//     a type used only by its own dead methods is dead.
//   - A method of a live type is live when the type implements an
//     interface the program uses: a live interface of the program, or any
//     interface of a package it imports (fmt.Stringer, error,
//     heap.Interface). Methods are compared by name and signature, so
//     interfaces and types from separate type-checks still match.
//   - The consts of a group that repeats its expression implicitly (an
//     iota enum) are live together: each value is a position, so deleting
//     one would renumber the rest.
//
// Test files are never loaded, so a declaration only tests use is
// reported: it moves into the package's _test.go or is deleted. The
// result is a property of the whole program, not of the packages named on
// the command line: Run takes the Program LoadProgram builds, so
// `miclint ./internal/mic` reports what `miclint ./...` reports there.
var Unused = &Analyzer{
	Name: "unused",
	Doc:  "flags package-level funcs, methods, types, consts and vars that no non-test code of the whole program reaches",
	Run:  runUnused,
}

func runUnused(pass *Pass) error {
	live := pass.prog.liveKeys()
	for _, d := range declare(pass.Pkg, pass.Files, pass.TypesInfo) {
		if d.key != "" && !live[d.key] {
			pass.Reportf(d.name.Pos(), "%s is unused", strings.TrimPrefix(d.key, pass.Pkg.Path()+"."))
		}
	}
	return nil
}

// A decl is one package-level declaration and the keys its source uses,
// its own included: a use counts only from a live declaration, so a
// self-use never makes one live.
type decl struct {
	key      string
	name     *ast.Ident
	root     bool
	uses     []string
	isType   bool
	ifaceIDs []string          // an interface type's methodIDs
	methods  map[string]string // a concrete type's method set: methodID to key
	recv     string            // a method's receiver type key
}

// objKey names a package-level object, or a method of a package-level
// type, by package path, receiver and name, so that the objects of one
// declaration in different type-checks (source and export data) share a
// key. Locals, fields, interface methods and builtins have none.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if fn.Type().(*types.Signature).Recv() != nil {
			if k := objKey(recvType(fn)); k != "" {
				return k + "." + fn.Name()
			}
			return ""
		}
		obj = fn
	}
	if obj == nil || obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// recvType returns the named type a method is declared on, or nil for an
// interface method.
func recvType(fn *types.Func) types.Object {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && !types.IsInterface(named) {
		return named.Origin().Obj()
	}
	return nil
}

// methodID names a method by what decides whether it implements an
// interface method: its name, qualified by package path when unexported,
// and its signature spelled with package paths, so that the separate
// type-checks of different packages agree on it.
func methodID(m *types.Func) string {
	name := m.Name()
	if !m.Exported() {
		name = m.Pkg().Path() + "." + name
	}
	return name + " " + types.TypeString(m.Type(), (*types.Package).Path)
}

// ifaceIDs returns the methodIDs of t's methods when t is an interface
// with any.
func ifaceIDs(t types.Type) []string {
	it, ok := t.Underlying().(*types.Interface)
	if !ok || it.NumMethods() == 0 {
		return nil
	}
	ids := make([]string, it.NumMethods())
	for i := range ids {
		ids[i] = methodID(it.Method(i))
	}
	return ids
}

// declare lists a package's package-level declarations.
func declare(pkg *types.Package, files []*ast.File, info *types.Info) []*decl {
	var out []*decl
	add := func(name *ast.Ident, node ast.Node) *decl {
		obj := info.Defs[name]
		d := &decl{key: objKey(obj), name: name, root: pkg.Name() == "main" || name.Name == "_"}
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if k := objKey(info.Uses[id]); k != "" {
					d.uses = append(d.uses, k)
				}
			}
			return true
		})
		switch obj := obj.(type) {
		case *types.TypeName:
			d.isType, d.ifaceIDs = true, ifaceIDs(obj.Type())
			if named, ok := obj.Type().(*types.Named); ok && d.ifaceIDs == nil && named.TypeParams().Len() == 0 {
				ms := types.NewMethodSet(types.NewPointer(named))
				d.methods = make(map[string]string, ms.Len())
				for i := 0; i < ms.Len(); i++ {
					m := ms.At(i).Obj().(*types.Func)
					d.methods[methodID(m)] = objKey(m)
				}
			}
		case *types.Func:
			if obj.Type().(*types.Signature).Recv() != nil {
				d.recv = objKey(recvType(obj))
			}
		}
		out = append(out, d)
		return d
	}
	for _, f := range files {
		for _, fd := range f.Decls {
			switch fd := fd.(type) {
			case *ast.FuncDecl:
				d := add(fd.Name, fd)
				d.root = d.root || fd.Recv == nil && (fd.Name.Name == "init" || fd.Name.Name == "main")
			case *ast.GenDecl:
				var group []*decl
				enum := false
				for _, spec := range fd.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						enum = enum || fd.Tok == token.CONST && len(s.Values) == 0
						for _, n := range s.Names {
							group = append(group, add(n, s))
						}
					}
				}
				for _, d := range group {
					for _, o := range group {
						if enum && o != d {
							d.uses = append(d.uses, o.key)
						}
					}
				}
			}
		}
	}
	return out
}

// liveKeys computes, once per run, the keys of every declaration the
// program reaches.
func (p *Program) liveKeys() map[string]bool {
	if p.live != nil {
		return p.live
	}
	var decls []*decl
	byKey := map[string][]*decl{}
	inProgram := map[string]bool{}
	kept := map[string]bool{} // types a directive keeps, with their methods
	for i, set := range [][]*Package{p.Pkgs, p.Refs} {
		for _, pkg := range set {
			inProgram[pkg.Path] = true
			dirs := parseDirectives(pkg.Fset, pkg.Files)
			for _, d := range declare(pkg.Types, pkg.Files, pkg.TypesInfo) {
				d.root = d.root || i == 1 || dirs.suppressed("unused", pkg.Fset.Position(d.name.Pos()))
				kept[d.key] = kept[d.key] || d.root && d.isType
				decls = append(decls, d)
				byKey[d.key] = append(byKey[d.key], d)
			}
		}
	}

	live := map[string]bool{}
	ifaces := importedIfaces(slices.Concat(p.Pkgs, p.Refs), inProgram)
	for _, d := range decls {
		if d.ifaceIDs != nil {
			ifaces = append(ifaces, iface{d.key, d.ifaceIDs})
		}
	}
	var work []string
	mark := func(k string) {
		if !live[k] {
			live[k] = true
			work = append(work, k)
		}
	}
	for _, d := range decls {
		if d.root || kept[d.recv] {
			mark(d.key) // blanks, all roots, share the empty key
		}
	}
	for {
		for len(work) > 0 {
			k := work[len(work)-1]
			work = work[:len(work)-1]
			for _, d := range byKey[k] {
				for _, u := range d.uses {
					mark(u)
				}
			}
		}
		for _, t := range decls {
			if t.methods == nil || !live[t.key] {
				continue
			}
			for _, in := range ifaces {
				if (in.key == "" || live[in.key]) && implements(t.methods, in.ids) {
					for _, id := range in.ids {
						mark(t.methods[id])
					}
				}
			}
		}
		if len(work) == 0 {
			break
		}
	}
	p.live = live
	return live
}

// An iface is an interface a value may be converted to: its methodIDs,
// and its key when the program declares it, as it counts only while live.
type iface struct {
	key string
	ids []string
}

// implements reports whether a method set has every one of ids.
func implements(methods map[string]string, ids []string) bool {
	for _, id := range ids {
		if _, ok := methods[id]; !ok {
			return false
		}
	}
	return true
}

// importedIfaces returns error, every interface declared in a package the
// program imports from outside itself, directly or not, and every
// interface literal the program spells.
func importedIfaces(pkgs []*Package, inProgram map[string]bool) []iface {
	var out []iface
	seen := map[string]bool{}
	add := func(t types.Type) {
		ids := ifaceIDs(t)
		if k := strings.Join(ids, ";"); ids != nil && !seen[k] {
			seen[k] = true
			out = append(out, iface{"", ids})
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if visited[tp] {
			return
		}
		visited[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && !inProgram[tp.Path()] {
				add(tn.Type())
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range pkgs {
		visit(pkg.Types)
		for _, tv := range pkg.TypesInfo.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				add(tv.Type)
			}
		}
	}
	return out
}
