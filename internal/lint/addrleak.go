package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AddrLeak is the anonymity contract's taint analysis. MIC's security
// argument (PAPER.md Sec III, Sec V) is positional: real endpoint addresses
// may appear only at sanctioned points — the first/last path segment on the
// wire, the MC's journal, the mimic-rewrite rules the MC installs, and
// inside onion-encrypted payloads. Everywhere else a real address in an
// error string, telemetry counter, trace line or packet header is a leak an
// adversary (or merely a curious client) can read.
//
// Sources are declared in the code under analysis with `// lint:secret` on
// struct fields and function parameters (the MC's hidden-service map, the
// per-channel real initiator/responder endpoints). Taint propagates through
// assignments, composite literals, struct-field reads, conversions and
// statically-resolvable same-package calls (bounded depth, memoized — the
// same call-graph discipline handlerblock uses; calls that leave the
// package conservatively taint their results when any argument is tainted).
//
// Sinks, reported when a tainted value reaches them:
//
//   - fmt-family formatting calls (Errorf/Sprintf/Fprintf/...): their
//     output becomes error strings, telemetry labels and journal-adjacent
//     report text;
//   - calls into internal/metrics and internal/trace: emission surfaces
//     rendered into reports;
//   - packet-header writes: packet.Packet SetSrcIP/SetDstIP calls, direct
//     assignments to its address fields, and calls to the flowtable
//     address-rewrite action constructors (SetIPSrc/SetIPDst/SetEthSrc/
//     SetEthDst).
//
// Sanctioned boundaries carry `// lint:declassify addrleak <reason>` — the
// reviewable, mandatory-reason counterpart of lint:ignore. A lint:secret
// directive that anchors to no field or parameter is itself reported, so a
// directive that drifts away from its declaration cannot silently stop
// marking.
var AddrLeak = &Analyzer{
	Name: "addrleak",
	Doc:  "taints lint:secret real-address values and flags flows into format strings, telemetry, traces and packet headers",
	Run:  runAddrLeak,
}

// alMaxDepth bounds the interprocedural walk, matching handlerblock.
const alMaxDepth = 4

// fmtSinks are the fmt functions whose output becomes user- or
// operator-visible strings.
var fmtSinks = map[string]bool{
	"fmt.Errorf": true, "fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"fmt.Fprintf": true, "fmt.Fprint": true, "fmt.Fprintln": true,
	"fmt.Printf": true, "fmt.Print": true, "fmt.Println": true,
	"fmt.Appendf": true, "fmt.Append": true, "fmt.Appendln": true,
}

// emissionPkgs are packages whose call surface is an exposure sink: values
// handed to them land in telemetry counters, rendered tables or packet
// captures.
var emissionPkgs = map[string]bool{
	"mic/internal/metrics": true,
	"mic/internal/trace":   true,
}

// headerWriteMethods are packet-header mutators; headerRewriteActions are the
// flow-table action constructors whose argument is installed as an address
// on the data path.
var headerWriteMethods = map[string]bool{
	"(*mic/internal/packet.Packet).SetSrcIP": true,
	"(*mic/internal/packet.Packet).SetDstIP": true,
}

var headerRewriteActions = map[string]bool{
	"mic/internal/flowtable.SetIPSrc":  true,
	"mic/internal/flowtable.SetIPDst":  true,
	"mic/internal/flowtable.SetEthSrc": true,
	"mic/internal/flowtable.SetEthDst": true,
}

// headerFieldOwner/headerFields match direct assignments to packet address
// fields (p.SrcIP = x).
const headerFieldOwner = "mic/internal/packet.Packet"

var headerFields = map[string]bool{"SrcIP": true, "DstIP": true, "SrcMAC": true, "DstMAC": true}

func runAddrLeak(pass *Pass) error {
	w := &alWalker{
		pass:     pass,
		secret:   map[types.Object]string{},
		decls:    map[types.Object]*ast.FuncDecl{},
		retMemo:  map[alKey]string{},
		active:   map[alKey]bool{},
		sinkMemo: map[alKey]bool{},
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
	}
	w.resolveSecrets()
	if len(w.secret) == 0 {
		return nil // no declared sources, nothing can be tainted
	}
	// Every declared function is a root: directive-marked parameters arrive
	// tainted, and secret struct fields taint any body that reads them.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				w.walkFunc(fd, nil, 0)
			}
		}
	}
	return nil
}

// alKey memoizes per-function analysis under a given tainted-parameter set.
type alKey struct {
	fn   types.Object
	mask uint64
}

type alWalker struct {
	pass     *Pass
	secret   map[types.Object]string // object -> origin description
	decls    map[types.Object]*ast.FuncDecl
	retMemo  map[alKey]string // "" = returns clean
	active   map[alKey]bool   // recursion guard for summaries
	sinkMemo map[alKey]bool   // bodies already scanned under this taint
	reported map[token.Pos]bool
}

// resolveSecrets anchors each lint:secret directive to struct fields and
// function parameters/results declared on the directive's line or the line
// below, reporting directives that mark nothing — drift protection.
func (w *alWalker) resolveSecrets() {
	type candidate struct {
		obj  types.Object
		name string
	}
	// Collect every markable declaration ident by (file, line).
	byLine := map[string][]candidate{}
	lineKey := func(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }
	addIdent := func(id *ast.Ident) {
		if id == nil || id.Name == "_" {
			return
		}
		obj := w.pass.TypesInfo.Defs[id]
		if obj == nil {
			return
		}
		p := w.pass.Fset.Position(id.Pos())
		k := lineKey(p.Filename, p.Line)
		byLine[k] = append(byLine[k], candidate{obj, id.Name})
	}
	addFieldList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, id := range f.Names {
				addIdent(id)
			}
		}
	}
	for _, f := range w.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.StructType:
				addFieldList(nn.Fields)
			case *ast.FuncDecl:
				addFieldList(nn.Type.Params)
				addFieldList(nn.Type.Results)
			}
			return true
		})
	}
	for _, s := range w.pass.dirs.secrets {
		var cands []candidate
		for _, line := range [2]int{s.line, s.line + 1} {
			cands = append(cands, byLine[lineKey(s.file, line)]...)
		}
		switch {
		case len(cands) == 0:
			w.pass.Reportf(s.pos, "lint:secret anchors to no struct field or function parameter (drifted directive?)")
		case len(s.names) > 0:
			want := map[string]bool{}
			for _, n := range s.names {
				want[n] = true
			}
			for _, c := range cands {
				if want[c.name] {
					w.markSecret(c.obj)
					delete(want, c.name)
				}
			}
			for n := range want {
				// lint:ignore detrange diagnostics are position-sorted by the framework afterwards
				w.pass.Reportf(s.pos, "lint:secret names %s, which is not declared on the anchored line", n)
			}
		case len(cands) == 1:
			w.markSecret(cands[0].obj)
		default:
			w.pass.Reportf(s.pos, "lint:secret anchors to %d declarations; name the ones to mark", len(cands))
		}
	}
}

func (w *alWalker) markSecret(obj types.Object) {
	origin := obj.Name()
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		origin = "field " + origin
	}
	w.secret[obj] = origin
}

// walkFunc analyzes one function body: computes the local taint environment
// (directive-marked parameters plus extra taint injected by a caller),
// reports sinks, and follows same-package calls that pass taint onward.
func (w *alWalker) walkFunc(fd *ast.FuncDecl, extra map[types.Object]string, depth int) {
	if fd.Body == nil || depth > alMaxDepth {
		return
	}
	obj := w.pass.TypesInfo.Defs[fd.Name]
	key := alKey{obj, w.paramMask(fd, extra)}
	if obj != nil {
		if w.sinkMemo[key] {
			return
		}
		w.sinkMemo[key] = true
	}
	env := w.buildEnv(fd, extra)
	w.scanSinks(fd.Body, env, depth)
}

// paramMask encodes which parameters arrive tainted, for memoization.
func (w *alWalker) paramMask(fd *ast.FuncDecl, extra map[types.Object]string) uint64 {
	var mask uint64
	i := 0
	if fd.Type.Params == nil {
		return 0
	}
	for _, f := range fd.Type.Params.List {
		for _, id := range f.Names {
			obj := w.pass.TypesInfo.Defs[id]
			if obj != nil && extra[obj] != "" && i < 64 {
				mask |= 1 << i
			}
			i++
		}
	}
	return mask
}

// buildEnv computes the function's taint environment: a flow-insensitive
// fixpoint over assignments, declarations and range statements. Taint only
// grows — re-assigning a clean value does not launder a variable; the
// declassify directive exists for reviewed exceptions.
func (w *alWalker) buildEnv(fd *ast.FuncDecl, extra map[types.Object]string) map[types.Object]string {
	env := map[types.Object]string{}
	for obj, origin := range extra {
		env[obj] = origin
	}
	for changed, rounds := true, 0; changed && rounds < 8; rounds++ {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch nn := n.(type) {
			case *ast.AssignStmt:
				changed = w.applyAssign(nn.Lhs, nn.Rhs, env) || changed
			case *ast.ValueSpec:
				lhs := make([]ast.Expr, len(nn.Names))
				for i, id := range nn.Names {
					lhs[i] = id
				}
				changed = w.applyAssign(lhs, nn.Values, env) || changed
			case *ast.RangeStmt:
				if origin := w.taintOf(nn.X, env, 0); origin != "" {
					for _, e := range [2]ast.Expr{nn.Key, nn.Value} {
						if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
							if obj := w.defOrUse(id); obj != nil && env[obj] == "" {
								env[obj] = origin
								changed = true
							}
						}
					}
				}
			}
			return true
		})
	}
	return env
}

// applyAssign taints LHS variables whose RHS carries taint. With a single
// multi-value RHS (call or type assertion), taint from it covers every LHS.
func (w *alWalker) applyAssign(lhs, rhs []ast.Expr, env map[types.Object]string) bool {
	if len(rhs) == 0 {
		return false
	}
	changed := false
	taintLHS := func(e ast.Expr, origin string) {
		if origin == "" {
			return
		}
		// Writing into a slot of a container (T[n] = ..., *p = ...) taints
		// the container variable itself.
		for {
			switch lhs := e.(type) {
			case *ast.IndexExpr:
				e = lhs.X
				continue
			case *ast.StarExpr:
				e = lhs.X
				continue
			case *ast.ParenExpr:
				e = lhs.X
				continue
			}
			break
		}
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := w.defOrUse(id); obj != nil && env[obj] == "" && !isErrObj(obj) {
				env[obj] = origin
				changed = true
			}
		}
	}
	if len(lhs) == len(rhs) {
		for i := range lhs {
			taintLHS(lhs[i], w.taintOf(rhs[i], env, 0))
		}
		return changed
	}
	origin := w.taintOf(rhs[0], env, 0)
	for _, l := range lhs {
		taintLHS(l, origin)
	}
	return changed
}

func (w *alWalker) defOrUse(id *ast.Ident) types.Object {
	if obj := w.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return w.pass.TypesInfo.Uses[id]
}

// taintOf reports the origin of the first secret contributor of e, or "".
func (w *alWalker) taintOf(e ast.Expr, env map[types.Object]string, depth int) string {
	// error values never carry address taint: scrubbing happens at the
	// fmt.Errorf construction site (the sink this analyzer checks), so a
	// clean error stays clean however far it is wrapped and re-returned.
	if tv, ok := w.pass.TypesInfo.Types[e]; ok && isErrorType(tv.Type) {
		return ""
	}
	switch nn := e.(type) {
	case *ast.Ident:
		if obj := w.defOrUse(nn); obj != nil {
			if o := env[obj]; o != "" {
				return o
			}
			return w.secret[obj]
		}
	case *ast.SelectorExpr:
		if obj := w.pass.TypesInfo.Uses[nn.Sel]; obj != nil {
			if o := w.secret[obj]; o != "" {
				return o
			}
		}
		return w.taintOf(nn.X, env, depth)
	case *ast.CallExpr:
		return w.callTaint(nn, env, depth)
	case *ast.CompositeLit:
		for _, el := range nn.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				// A secret value stored into a secret-marked field is covered
				// by field sensitivity: reading it back through the field is
				// tainted, but the enclosing struct value itself stays clean
				// (channelState{initiator: x} must not taint every channel
				// bookkeeping slice hanging off the state).
				if key, ok := kv.Key.(*ast.Ident); ok {
					if obj := w.defOrUse(key); obj != nil && w.secret[obj] != "" {
						continue
					}
				}
				el = kv.Value
			}
			if o := w.taintOf(el, env, depth); o != "" {
				return o
			}
		}
	case *ast.BinaryExpr:
		if o := w.taintOf(nn.X, env, depth); o != "" {
			return o
		}
		return w.taintOf(nn.Y, env, depth)
	case *ast.UnaryExpr:
		return w.taintOf(nn.X, env, depth)
	case *ast.StarExpr:
		return w.taintOf(nn.X, env, depth)
	case *ast.ParenExpr:
		return w.taintOf(nn.X, env, depth)
	case *ast.IndexExpr:
		return w.taintOf(nn.X, env, depth)
	case *ast.SliceExpr:
		return w.taintOf(nn.X, env, depth)
	case *ast.TypeAssertExpr:
		return w.taintOf(nn.X, env, depth)
	}
	return ""
}

// callTaint decides whether a call expression yields a tainted value.
func (w *alWalker) callTaint(call *ast.CallExpr, env map[types.Object]string, depth int) string {
	// Conversions carry the operand's taint.
	if tv, ok := w.pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 {
			return w.taintOf(call.Args[0], env, depth)
		}
		return ""
	}
	fn := w.callee(call)
	if fn != nil {
		switch fn.FullName() {
		case "len", "cap":
			return "" // counts of secret containers are not secret
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := w.defOrUse(id).(*types.Builtin); isBuiltin {
			switch id.Name {
			case "len", "cap", "delete", "close", "panic":
				return ""
			}
		}
	}
	argTaint := func() string {
		for _, a := range call.Args {
			if o := w.taintOf(a, env, depth); o != "" {
				return o
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return w.taintOf(sel.X, env, depth)
		}
		return ""
	}
	if fn == nil {
		return argTaint() // dynamic call: conservative pass-through
	}
	fd := w.decls[fn]
	if fd == nil || fd.Body == nil {
		return argTaint() // out-of-package or bodyless: pass-through
	}
	// Same-package static call: summarize whether its returns carry taint
	// given the argument taint we pass in.
	extra := w.bindArgs(fd, call, env, depth)
	key := alKey{fn, w.paramMask(fd, extra)}
	if w.active[key] || depth >= alMaxDepth {
		return argTaint() // recursion/depth cap: conservative pass-through
	}
	if o, ok := w.retMemo[key]; ok {
		return o
	}
	w.active[key] = true
	calleeEnv := w.buildEnv(fd, extra)
	origin := ""
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if origin != "" {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for _, r := range ret.Results {
				if o := w.taintOf(r, calleeEnv, depth+1); o != "" {
					origin = o
					break
				}
			}
		}
		return true
	})
	delete(w.active, key)
	w.retMemo[key] = origin
	return origin
}

// bindArgs maps tainted call arguments onto the callee's parameters.
func (w *alWalker) bindArgs(fd *ast.FuncDecl, call *ast.CallExpr, env map[types.Object]string, depth int) map[types.Object]string {
	extra := map[types.Object]string{}
	if fd.Type.Params == nil {
		return extra
	}
	var params []types.Object
	for _, f := range fd.Type.Params.List {
		for _, id := range f.Names {
			params = append(params, w.pass.TypesInfo.Defs[id])
		}
	}
	for i, a := range call.Args {
		if i >= len(params) || params[i] == nil {
			continue
		}
		if o := w.taintOf(a, env, depth); o != "" {
			extra[params[i]] = o
		}
	}
	// A tainted method receiver taints the callee's receiver object.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && fd.Recv != nil && len(fd.Recv.List) > 0 {
		if o := w.taintOf(sel.X, env, depth); o != "" {
			for _, id := range fd.Recv.List[0].Names {
				if obj := w.pass.TypesInfo.Defs[id]; obj != nil {
					extra[obj] = o
				}
			}
		}
	}
	return extra
}

// scanSinks reports tainted values reaching exposure surfaces in body, and
// walks taint into same-package callees.
func (w *alWalker) scanSinks(body *ast.BlockStmt, env map[types.Object]string, depth int) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.AssignStmt:
			w.checkHeaderFieldAssign(nn, env, depth)
		case *ast.CallExpr:
			w.checkCallSinks(nn, env, depth)
		}
		return true
	})
}

// checkHeaderFieldAssign flags p.SrcIP = tainted and friends.
func (w *alWalker) checkHeaderFieldAssign(as *ast.AssignStmt, env map[types.Object]string, depth int) {
	for i, l := range as.Lhs {
		sel, ok := l.(*ast.SelectorExpr)
		if !ok || i >= len(as.Rhs) {
			continue
		}
		fobj, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Var)
		if !ok || !fobj.IsField() || !headerFields[fobj.Name()] {
			continue
		}
		if owner := fieldOwner(w.pass.TypesInfo, sel); owner != headerFieldOwner {
			continue
		}
		if o := w.taintOf(as.Rhs[i], env, depth); o != "" {
			w.report(l.Pos(), "secret %s written into packet header field %s", o, fobj.Name())
		}
	}
}

// fieldOwner names the struct type a selected field belongs to.
func fieldOwner(info *types.Info, sel *ast.SelectorExpr) string {
	s, ok := info.Selections[sel]
	if !ok {
		return ""
	}
	t := s.Recv()
	for {
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		return named.Obj().Pkg().Path() + "." + named.Obj().Name()
	}
	return ""
}

// checkCallSinks flags tainted arguments reaching fmt formatting, the
// metrics/trace emission surface, packet-header mutators and the flow-table
// address-rewrite action constructors — and follows taint into same-package
// callees.
func (w *alWalker) checkCallSinks(call *ast.CallExpr, env map[types.Object]string, depth int) {
	fn := w.callee(call)
	if fn == nil {
		return
	}
	full := fn.FullName()
	switch {
	case fmtSinks[full]:
		for _, a := range call.Args {
			if o := w.taintOf(a, env, depth); o != "" {
				w.report(call.Pos(), "secret %s reaches %s — real addresses must not land in error/report strings", o, full)
				break
			}
		}
	case headerWriteMethods[full]:
		for _, a := range call.Args {
			if o := w.taintOf(a, env, depth); o != "" {
				w.report(call.Pos(), "secret %s written into packet header via %s", o, fn.Name())
				break
			}
		}
	case headerRewriteActions[full]:
		for _, a := range call.Args {
			if o := w.taintOf(a, env, depth); o != "" {
				w.report(call.Pos(), "secret %s written into header-rewrite action %s", o, fn.Name())
				break
			}
		}
	case fn.Pkg() != nil && emissionPkgs[fn.Pkg().Path()]:
		for _, a := range call.Args {
			if o := w.taintOf(a, env, depth); o != "" {
				w.report(call.Pos(), "secret %s reaches telemetry/trace emission %s", o, full)
				break
			}
		}
	case fn.Pkg() != nil && fn.Pkg().Path() == "encoding/binary" &&
		(strings.HasPrefix(fn.Name(), "Put") || strings.HasPrefix(fn.Name(), "Append")):
		// Serializing a secret into a wire buffer is a header-write sink:
		// whatever the buffer is, its bytes leave the node.
		for _, a := range call.Args {
			if o := w.taintOf(a, env, depth); o != "" {
				w.report(call.Pos(), "secret %s serialized into a wire buffer via binary.%s", o, fn.Name())
				break
			}
		}
	}
	// Follow taint into same-package callees so sinks buried a few calls
	// deep are still attributed.
	if fd := w.decls[fn]; fd != nil {
		extra := w.bindArgs(fd, call, env, depth)
		if len(extra) > 0 || w.readsSecrets(fd) {
			w.walkFunc(fd, extra, depth+1)
		}
	}
}

// readsSecrets cheaply decides whether a function body can originate taint
// on its own (reads a secret field or marked parameter), so clean call
// chains are not walked.
func (w *alWalker) readsSecrets(fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.defOrUse(id); obj != nil && w.secret[obj] != "" {
				found = true
			}
		}
		return true
	})
	return found
}

// callee resolves a call to the *types.Func it statically invokes.
func (w *alWalker) callee(call *ast.CallExpr) *types.Func {
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

// isErrObj reports whether obj holds an error value.
func isErrObj(obj types.Object) bool {
	return isErrorType(obj.Type())
}

func (w *alWalker) report(pos token.Pos, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	// Origins read like "field hidden"; strip duplicate spacing defensively.
	w.pass.Reportf(pos, "%s", strings.TrimSpace(fmt.Sprintf(format, args...)))
}
