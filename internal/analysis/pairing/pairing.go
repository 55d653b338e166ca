// Package pairing proves the acquire → exactly-one-release discipline
// behind the simulator's off-heap buffers, trace spans and free-list
// pools, with one CFG analysis driven by a table of resources:
//
//	row     source                             release             leak at      double / use-after
//	buffer  membuf Pool.Allocate/MustAllocate  HBuffer.Free        exit         yes / yes
//	pin     HBuffer.Pin on a local or param    HBuffer.Unpin/Free  exit         no / no
//	span    obs Tracer.Begin                   OpenSpan.End        exit, panic  no / no
//	pool    a //gflink:pool function           Put, same receiver  exit         yes / yes, + retained
//
// The paper's GMemoryManager allocates and releases each buffer exactly
// once (Section 4.1.2), and membuf panics on a double Free. A leaked
// HBuffer keeps its pages charged against the pool until the off-heap
// budget spuriously exhausts — the failure mode that makes off-heap
// memory hard once the GC no longer tracks it ("Garbage Collection or
// Serialization?", PAPERS.md). A forgotten Unpin shrinks the evictable
// region for good. An OpenSpan records nothing until End runs, so a
// leaked handle is a silent hole in the trace. A pooled value that
// misses its Put, is Put twice, or is touched after Put breaks the
// allocation-free hot paths.
//
// Every function body and every function literal is analyzed on its
// own: a forward may-problem over the CFG with three bits per
// acquisition — live (acquired, not yet released), done (released) and
// retained (an earlier call kept a reference). A source result bound to
// a trackable local generates a fact; a discarded one (an expression
// statement, an assignment to _, or a method chain that is not the
// release) is reported outright. The fact ends at a release of the same
// value, at an ownership transfer under the row's rule, or when a
// function literal captures the value. A deferred release discharges
// the obligation on every exit without marking the value done, so uses
// between the defer and the return stay legal. Branch guards refine the
// state: where the source's own error result is non-nil nothing was
// acquired, and b.Freed() tells whether the buffer is released.
//
// Findings: a fact still live at one of the row's leak exits; a release
// or a use (other than a nil comparison or the row's query method,
// Freed) of a value that may already be released; for pools, a Put of
// a value an earlier call retained — by an imported bufescape Retains
// fact, or a lexical scan of same-package callees.
//
// Transfer rules keep each resource's established meaning. Buffers and
// pins: every use except a method call on the value hands it on — call
// argument, return, store, alias, composite, send, method value. Spans:
// every use except End and a nil comparison. Pools: stores, returns,
// sends, composites, append and dynamic calls transfer; selectors,
// indexing, dereferences and arguments to non-retaining callees are
// neutral.
//
// Waivers: //gflink:owns-buffer on a buffer allocation or Pin line,
// //gflink:span-escapes on a Begin line, when ownership leaves through
// a path the analysis cannot see. Pool rows have none.
package pairing

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"

	"gflink/internal/analysis"
	"gflink/internal/analysis/bufescape"
)

// PoolSource is an object fact marking a //gflink:pool-annotated
// Get-like method, so acquisitions through it are tracked from other
// packages too.
type PoolSource struct{}

// AFact marks PoolSource as a fact type.
func (*PoolSource) AFact() {}

// Analyzer implements the pairing check.
var Analyzer = &analysis.Analyzer{
	Name:      "pairing",
	Doc:       "every membuf Allocate/Pin, obs Tracer.Begin and //gflink:pool acquisition reaches exactly one Free/Unpin, End or Put (or a visible ownership transfer) on every path, with no release or use after release where the resource forbids it (suppress with //gflink:owns-buffer, //gflink:span-escapes)",
	Run:       run,
	FactTypes: []analysis.Fact{(*PoolSource)(nil)},
}

const (
	membufPath = "gflink/internal/membuf"
	obsPath    = "gflink/internal/obs"
)

// A row describes one resource. Messages expand {var} to the quoted
// variable and {src} to the source method; an empty message disables
// that finding.
type row struct {
	pkg      string   // package of the source and release methods; "" for pools
	sources  []string // ObjectKeys of the source methods
	releases []string // ObjectKeys of the release methods, called on the value
	onRecv   bool     // the source acquires its receiver variable, not its result

	panicLeaks bool   // a fact live at the panic exit is a leak too
	query      string // ObjectKey of the method that stays legal after release
	use        func(c *checker, stack []ast.Node, id *ast.Ident) useKind
	waiver     string

	leak, discard, double, useAfter, retained string
}

const spanMsg = "span opened by Tracer.Begin is not ended on every path out of the function; close it with OpenSpan.End (or //gflink:span-escapes if ownership leaves invisibly)"

var rows = []*row{
	{ // buffer
		pkg: membufPath, sources: []string{"Pool.Allocate", "Pool.MustAllocate"}, releases: []string{"HBuffer.Free"},
		query: "HBuffer.Freed", use: ownerUse, waiver: "owns-buffer",
		leak:     "HBuffer {var} from Pool.{src} is never freed or transferred on some path out of the function; call Free, or annotate the transfer with //gflink:owns-buffer",
		discard:  "result of Pool.{src} is discarded; the HBuffer leaks pool pages until off-heap exhaustion",
		double:   "HBuffer {var} may already have been freed; a second Free panics in membuf",
		useAfter: "HBuffer {var} is used after Free; its pages are back in the pool",
	},
	{ // pin
		pkg: membufPath, sources: []string{"HBuffer.Pin"}, releases: []string{"HBuffer.Unpin", "HBuffer.Free"}, onRecv: true,
		use: ownerUse, waiver: "owns-buffer",
		leak: "HBuffer {var} is pinned but never unpinned, freed or transferred on some path out of the function; pinned pages are excluded from cache reclaim",
	},
	{ // span
		pkg: obsPath, sources: []string{"Tracer.Begin"}, releases: []string{"OpenSpan.End"},
		panicLeaks: true, use: spanUse, waiver: "span-escapes",
		leak: spanMsg, discard: spanMsg,
	},
	{ // pool
		use:      poolUse,
		leak:     "pooled value is not returned with Put on every path out of the function (store or hand it off to transfer the obligation)",
		discard:  "pooled value is discarded; acquire into a variable and return it with Put (or don't acquire)",
		double:   "pooled value may already have been returned; a second Put corrupts the free list",
		useAfter: "pooled value used after being returned to the pool",
		retained: "pooled value was retained by an earlier call and is returned to the pool while still referenced (escape after Put)",
	},
}

func run(pass *analysis.Pass) (interface{}, error) {
	c := &checker{
		pass:    pass,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		sources: make(map[*types.Func]bool),
		retain:  make(map[*types.Func][]bool),
	}
	idx := make([]map[string]map[int]bool, len(pass.Files))
	for i, f := range pass.Files {
		idx[i] = analysis.DirectiveIndex(pass.Fset, f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			c.decls[obj] = fd
			if analysis.DirectiveAt(idx[i], pass.Fset, "pool", fd.Pos()) {
				c.sources[obj] = true
				if analysis.ObjectKey(obj) != "" {
					pass.ExportObjectFact(obj, &PoolSource{})
				}
			}
		}
	}
	for i, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					c.checkFunc(idx[i], fn, fn.Body, fn.Recv, fn.Type)
				}
			case *ast.FuncLit:
				c.checkFunc(idx[i], fn, fn.Body, nil, fn.Type)
			}
			return true
		})
	}
	return nil, nil
}

type checker struct {
	pass    *analysis.Pass
	decls   map[*types.Func]*ast.FuncDecl
	sources map[*types.Func]bool
	retain  map[*types.Func][]bool // lexical retention cache, by param
}

// acq is one tracked acquisition.
type acq struct {
	row   *row
	call  *ast.CallExpr     // the source call: findings about the acquisition land here
	node  ast.Node          // the block node whose execution acquires
	defs  []*analysis.Def   // definitions carrying the acquired value
	owner *types.Named      // pool rows: the type whose Put releases it
	msg   *strings.Replacer // expands {var} and {src}
}

// fnCheck is the state of one function's analysis.
type fnCheck struct {
	*checker
	rd    *analysis.ReachingDefs
	acqs  []*acq
	byDef map[*analysis.Def][]int
	byVar map[*types.Var][]int
	genAt map[ast.Node][]int
}

func (c *checker) checkFunc(idx map[string]map[int]bool, fn ast.Node, body *ast.BlockStmt, recv *ast.FieldList, ftype *ast.FuncType) {
	info := c.pass.TypesInfo
	cfg := analysis.BuildCFG(info, body)
	f := &fnCheck{
		checker: c,
		rd:      analysis.NewReachingDefs(info, cfg, recv, ftype),
		byDef:   make(map[*analysis.Def][]int),
		byVar:   make(map[*types.Var][]int),
		genAt:   make(map[ast.Node][]int),
	}
	for _, blk := range cfg.Blocks {
		for _, node := range blk.Nodes {
			inspect(node, func(x ast.Node, stack []ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					f.collect(idx, fn, node, call, stack)
				}
				return true
			})
		}
	}
	if len(f.acqs) == 0 {
		return
	}

	n := len(f.acqs)
	in, _ := analysis.Solve(cfg, analysis.FlowProblem[[]bool]{
		Dir:      analysis.Forward,
		Boundary: make([]bool, 3*n),
		Init:     func() []bool { return make([]bool, 3*n) },
		Meet: func(a, b []bool) []bool {
			m := make([]bool, len(a))
			for i := range a {
				m[i] = a[i] || b[i]
			}
			return m
		},
		Transfer: func(blk *analysis.Block, in []bool) []bool {
			s := slices.Clone(in)
			f.block(blk, s, nil)
			return s
		},
		Equal: slices.Equal[[]bool],
	})

	// Reporting pass: replay each block once from its solved entry
	// state (the solver's transfer runs to fixpoint, so it stays silent).
	seen := make(map[token.Pos]map[string]bool)
	rep := func(pos token.Pos, msg string) {
		if seen[pos] == nil {
			seen[pos] = make(map[string]bool)
		}
		if !seen[pos][msg] {
			seen[pos][msg] = true
			c.pass.Reportf(pos, "%s", msg)
		}
	}
	for _, blk := range cfg.Blocks {
		f.block(blk, slices.Clone(in[blk]), rep)
	}
	for i, a := range f.acqs {
		if in[cfg.Exit][i] || (a.row.panicLeaks && in[cfg.Panic][i]) {
			rep(a.call.Pos(), a.msg.Replace(a.row.leak))
		}
	}
}

// collect classifies one call found in block node: a source whose
// value is bound to a trackable local becomes an acquisition; a
// discarded source is reported; any other use hands the value on.
func (f *fnCheck) collect(idx map[string]map[int]bool, fn, node ast.Node, call *ast.CallExpr, stack []ast.Node) {
	callee := staticOrigin(f.pass.TypesInfo, call)
	for _, r := range rows {
		if !f.isSource(r, callee) {
			continue
		}
		if r.waiver != "" && analysis.DirectiveAt(idx, f.pass.Fset, r.waiver, call.Pos()) {
			continue
		}
		a := &acq{row: r, call: call, node: node, owner: recvNamed(callee)}
		var name string
		if r.onRecv {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					a.defs, name = f.rd.DefsAt(id), id.Name
				}
			}
		} else {
			var discarded bool
			a.defs, name, discarded = f.bind(r, fn, call, stack)
			if discarded {
				f.pass.Reportf(call.Pos(), "%s", strings.ReplaceAll(r.discard, "{src}", callee.Name()))
			}
		}
		if len(a.defs) == 0 {
			continue
		}
		a.msg = strings.NewReplacer("{var}", strconv.Quote(name), "{src}", callee.Name())
		i := len(f.acqs)
		f.acqs = append(f.acqs, a)
		f.genAt[node] = append(f.genAt[node], i)
		for _, d := range a.defs {
			f.byDef[d] = append(f.byDef[d], i)
			if !slices.Contains(f.byVar[d.Var], i) {
				f.byVar[d.Var] = append(f.byVar[d.Var], i)
			}
		}
	}
}

// bind resolves where a source call's (first) result goes: the
// definitions of the trackable local it is bound to, or discarded.
// Anything else — a store, an argument, a captured or untrackable
// variable — is a transfer at the call and yields neither.
func (f *fnCheck) bind(r *row, fn ast.Node, call *ast.CallExpr, stack []ast.Node) (defs []*analysis.Def, name string, discarded bool) {
	var lhs ast.Expr
	switch p, _ := parent(stack); p := p.(type) {
	case *ast.ExprStmt:
		return nil, "", true
	case *ast.SelectorExpr:
		// A method chain drops the value unless it is the release.
		return nil, "", !r.is(staticOrigin(f.pass.TypesInfo, methodCall(stack, call)), r.releases...)
	case *ast.AssignStmt:
		// lhs[i] receives rhs[i], or a multi-value source's first result.
		for i, e := range p.Rhs {
			if ast.Unparen(e) == ast.Expr(call) && (p.Tok == token.ASSIGN || p.Tok == token.DEFINE) {
				lhs = p.Lhs[i]
			}
		}
	case *ast.ValueSpec:
		for i, e := range p.Values {
			if ast.Unparen(e) == ast.Expr(call) {
				lhs = p.Names[i]
			}
		}
	}
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return nil, "", false
	}
	if id.Name == "_" {
		return nil, "", true
	}
	v := defVar(f.pass.TypesInfo, id)
	if v == nil || v.Pos() < fn.Pos() || v.Pos() >= fn.End() || !f.rd.Tracked(v) {
		return nil, "", false
	}
	for _, d := range f.rd.Defs(v) {
		if d.RHS != nil && ast.Unparen(d.RHS) == ast.Expr(call) {
			defs = append(defs, d)
		}
	}
	return defs, id.Name, false
}

// block pushes the state s through one block's nodes; with a non-nil
// rep it also reports findings.
func (f *fnCheck) block(blk *analysis.Block, s []bool, rep func(token.Pos, string)) {
	f.refine(blk, s)
	for _, node := range blk.Nodes {
		f.step(node, s, rep)
	}
}

// refine applies what a branch's guard proves, on entry to the branch.
// Where a source's own error result is non-nil (err != nil) nothing was
// acquired. Where the row's query (b.Freed()) is true the value is
// released; where it is false, it is not.
func (f *fnCheck) refine(blk *analysis.Block, s []bool) {
	then := blk.Kind == "if.then"
	if !then && blk.Kind != "if.else" {
		return
	}
	cond := ast.Unparen(blk.Guard)
	if u, ok := cond.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		cond, then = ast.Unparen(u.X), !then
	}
	switch c := cond.(type) {
	case *ast.BinaryExpr:
		if (c.Op != token.NEQ && c.Op != token.EQL) || (c.Op == token.NEQ) != then {
			return
		}
		x := ast.Unparen(c.X)
		if isNil(x) {
			x = ast.Unparen(c.Y)
		} else if !isNil(ast.Unparen(c.Y)) {
			return
		}
		id, _ := x.(*ast.Ident)
		for _, d := range f.rd.DefsAt(id) {
			for i, a := range f.acqs {
				if d.Multi && ast.Unparen(d.RHS) == ast.Expr(a.call) && !slices.Contains(a.defs, d) {
					s[i] = false // d is the error result of a's source
				}
			}
		}
	case *ast.CallExpr:
		sel, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		id, _ := ast.Unparen(sel.X).(*ast.Ident)
		fn := staticOrigin(f.pass.TypesInfo, c)
		for _, d := range f.rd.DefsAt(id) {
			for _, i := range f.byDef[d] {
				if f.acqs[i].row.is(fn, f.acqs[i].row.query) {
					s[i] = s[i] && !then
					s[len(f.acqs)+i] = then
				}
			}
		}
	}
}

// step applies one block node's effect to s (layout: live, done,
// retained; n bits each).
func (f *fnCheck) step(node ast.Node, s []bool, rep func(token.Pos, string)) {
	n := len(f.acqs)
	nilCmp := nilComparisonIdents(node)
	inspect(node, func(x ast.Node, stack []ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			// Capturing a value hands it to the closure.
			ast.Inspect(x.Body, func(y ast.Node) bool {
				if id, ok := y.(*ast.Ident); ok {
					if v, ok := f.pass.TypesInfo.Uses[id].(*types.Var); ok {
						for _, i := range f.byVar[v] {
							s[i] = false
						}
					}
				}
				return true
			})
			return false
		case *ast.Ident:
			if nilCmp[x] {
				return true
			}
			for _, d := range f.rd.DefsAt(x) {
				for _, i := range f.byDef[d] {
					f.use(i, x, stack, s, rep)
				}
			}
		}
		return true
	})
	for _, i := range f.genAt[node] {
		s[i], s[n+i], s[2*n+i] = true, false, false
	}
}

// use applies one occurrence of acquisition i's value.
func (f *fnCheck) use(i int, id *ast.Ident, stack []ast.Node, s []bool, rep func(token.Pos, string)) {
	a, n := f.acqs[i], len(f.acqs)
	r := a.row
	if call, deferred := f.releaseOf(a, id, stack); call != nil {
		if rep != nil && s[n+i] && r.double != "" {
			rep(call.Pos(), a.msg.Replace(r.double))
		}
		if rep != nil && s[2*n+i] && r.retained != "" {
			rep(call.Pos(), a.msg.Replace(r.retained))
		}
		s[i] = false
		s[n+i] = s[n+i] || !deferred
		return
	}
	if rep != nil && s[n+i] && r.useAfter != "" {
		if !r.is(staticOrigin(f.pass.TypesInfo, methodCall(stack, id)), r.query) {
			rep(id.Pos(), a.msg.Replace(r.useAfter))
		}
	}
	switch r.use(f.checker, stack, id) {
	case useRetain:
		s[2*n+i] = true
	case useTransfer:
		s[i] = false
	}
}

// releaseOf returns the call when id's occurrence releases a: the
// receiver of a release method, or for pools an argument of Put on the
// acquisition's pool type. deferred reports a defer of that call.
func (f *fnCheck) releaseOf(a *acq, id *ast.Ident, stack []ast.Node) (call *ast.CallExpr, deferred bool) {
	info := f.pass.TypesInfo
	if a.row.pkg != "" {
		call = methodCall(stack, id)
		if !a.row.is(staticOrigin(info, call), a.row.releases...) {
			return nil, false
		}
	} else {
		call, _ = parentNode(stack).(*ast.CallExpr)
		if call == nil || ast.Unparen(call.Fun) == ast.Expr(id) {
			return nil, false
		}
		fn := staticOrigin(info, call)
		if fn == nil || fn.Name() != "Put" || !sameNamed(recvNamed(fn), a.owner) {
			return nil, false
		}
	}
	i := slices.Index(stack, ast.Node(call))
	_, deferred = parentNode(stack[:i]).(*ast.DeferStmt)
	return call, deferred
}

// isSource reports whether fn acquires r's resource.
func (c *checker) isSource(r *row, fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if r.pkg == "" {
		return c.sources[fn] || c.pass.ImportObjectFact(fn, &PoolSource{})
	}
	return r.is(fn, r.sources...)
}

// is reports whether fn is one of the methods keys (ObjectKeys) of r's
// package.
func (r *row) is(fn *types.Func, keys ...string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == r.pkg && slices.Contains(keys, analysis.ObjectKey(fn))
}

type useKind int

const (
	useNeutral useKind = iota
	useRetain
	useTransfer
)

// ownerUse is the buffer rule: a method call on the value, a
// reassignment, or a comparison keeps the obligation; handing the value
// anywhere else (argument, return, store, alias, composite, send, map
// index, address-of, method value) transfers it.
func ownerUse(_ *checker, stack []ast.Node, id *ast.Ident) useKind {
	switch p := parentNode(stack).(type) {
	case *ast.SelectorExpr:
		if methodCall(stack, id) != nil {
			return useNeutral
		}
		return useTransfer // method value
	case *ast.AssignStmt:
		if isLHS(p, id) {
			return useNeutral
		}
		return useTransfer
	case *ast.CallExpr:
		if ast.Unparen(p.Fun) == ast.Expr(id) {
			return useNeutral
		}
		return useTransfer
	case *ast.ValueSpec, *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr,
		*ast.SendStmt, *ast.IndexExpr, *ast.UnaryExpr:
		return useTransfer
	}
	return useNeutral
}

// spanUse is the span rule: every use other than End (the release) and
// a nil comparison (filtered before the rule) transfers.
func spanUse(*checker, []ast.Node, *ast.Ident) useKind { return useTransfer }

// poolUse is the pool rule. Field access, indexing, dereference,
// comparison and reassignment are neutral; a call argument retains or
// stays neutral depending on the callee; everything else (stores,
// returns, sends, composite literals, address-of, append, dynamic
// calls) transfers.
func poolUse(c *checker, stack []ast.Node, id *ast.Ident) useKind {
	info := c.pass.TypesInfo
	switch p := parentNode(stack).(type) {
	case *ast.SelectorExpr:
		if ast.Unparen(p.X) == ast.Expr(id) {
			return useNeutral
		}
	case *ast.IndexExpr:
		if ast.Unparen(p.X) == ast.Expr(id) {
			return useNeutral
		}
	case *ast.SliceExpr:
		if ast.Unparen(p.X) == ast.Expr(id) {
			return useNeutral
		}
	case *ast.StarExpr:
		return useNeutral
	case *ast.BinaryExpr:
		if p.Op == token.EQL || p.Op == token.NEQ {
			return useNeutral
		}
	case *ast.AssignStmt:
		if isLHS(p, id) {
			return useNeutral // reassignment; reaching defs retire this def
		}
	case *ast.CallExpr:
		ai := slices.IndexFunc(p.Args, func(a ast.Expr) bool { return ast.Unparen(a) == ast.Expr(id) })
		if ai < 0 {
			return useTransfer // calling a pooled func value: unknown
		}
		callee := staticOrigin(info, p)
		if callee == nil {
			// Builtins: append stores, the rest only read; calls
			// through function values are unknown and transfer.
			if fun, ok := ast.Unparen(p.Fun).(*ast.Ident); ok {
				if _, builtin := info.Uses[fun].(*types.Builtin); builtin && fun.Name != "append" {
					return useNeutral
				}
			}
			return useTransfer
		}
		if c.retains(callee, ai) {
			return useRetain
		}
		return useNeutral
	}
	return useTransfer
}

// retains reports whether fn keeps a reference to its i'th parameter:
// by imported bufescape Retains fact, or for same-package callees by a
// lexical scan.
func (c *checker) retains(fn *types.Func, i int) bool {
	sig, _ := fn.Type().(*types.Signature)
	var fact bufescape.Retains
	if c.pass.ImportObjectFact(fn, &fact) {
		return paramBit(fact.Params, sig, i)
	}
	ps, ok := c.retain[fn]
	if !ok {
		ps = c.lexicalRetention(fn)
		c.retain[fn] = ps
	}
	return paramBit(ps, sig, i)
}

func paramBit(ps []bool, sig *types.Signature, i int) bool {
	if sig != nil && sig.Variadic() && i >= len(ps)-1 {
		i = len(ps) - 1
	}
	return i >= 0 && i < len(ps) && ps[i]
}

// lexicalRetention scans a same-package callee's body: a parameter is
// retained when it is stored (assignment right-hand side, composite
// literal element, channel send, append argument) or captured by a
// function literal.
func (c *checker) lexicalRetention(fn *types.Func) []bool {
	decl := c.decls[fn]
	sig, _ := fn.Type().(*types.Signature)
	if decl == nil || decl.Body == nil || sig == nil {
		return nil
	}
	ps := make([]bool, sig.Params().Len())
	vars := make(map[*types.Var]int, len(ps))
	for i := range ps {
		vars[sig.Params().At(i)] = i
	}
	var stack []ast.Node
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := c.pass.TypesInfo.Uses[id].(*types.Var); ok {
				if i, ok := vars[v]; ok && retainingUse(stack, id) {
					ps[i] = true
				}
			}
		}
		stack = append(stack, n)
		return true
	})
	return ps
}

// retainingUse reports whether a parameter occurrence stores the
// reference beyond the call.
func retainingUse(stack []ast.Node, id *ast.Ident) bool {
	for _, a := range stack {
		if _, ok := a.(*ast.FuncLit); ok {
			return true
		}
	}
	switch p := parentNode(stack).(type) {
	case *ast.AssignStmt:
		return !isLHS(p, id) // on a right-hand side: stored somewhere
	case *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		return true
	case *ast.CallExpr:
		fun, ok := ast.Unparen(p.Fun).(*ast.Ident)
		return ok && fun.Name == "append"
	}
	return false
}

// inspect walks one block node in source order, passing each node's
// ancestor stack. Only a RangeStmt's header executes in its block, so
// its body is skipped.
func inspect(root ast.Node, visit func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	if r, ok := root.(*ast.RangeStmt); ok {
		stack, root = []ast.Node{r}, r.X
	}
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !visit(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// parent returns the nearest non-paren node of stack and its index.
func parent(stack []ast.Node) (ast.Node, int) {
	for i := len(stack) - 1; i >= 0; i-- {
		if _, ok := stack[i].(*ast.ParenExpr); !ok {
			return stack[i], i
		}
	}
	return nil, -1
}

func parentNode(stack []ast.Node) ast.Node {
	p, _ := parent(stack)
	return p
}

// methodCall returns the call when x is the receiver of a method call
// x.M(...), stack being x's ancestors.
func methodCall(stack []ast.Node, x ast.Expr) *ast.CallExpr {
	p, i := parent(stack)
	sel, ok := p.(*ast.SelectorExpr)
	if !ok || ast.Unparen(sel.X) != x {
		return nil
	}
	call, ok := parentNode(stack[:i]).(*ast.CallExpr)
	if !ok || ast.Unparen(call.Fun) != ast.Expr(sel) {
		return nil
	}
	return call
}

func isLHS(a *ast.AssignStmt, id *ast.Ident) bool {
	return slices.ContainsFunc(a.Lhs, func(l ast.Expr) bool { return ast.Unparen(l) == ast.Expr(id) })
}

// nilComparisonIdents collects identifiers compared against nil within
// n: those uses neither release nor transfer, and stay legal after a
// release.
func nilComparisonIdents(n ast.Node) map[*ast.Ident]bool {
	out := make(map[*ast.Ident]bool)
	ast.Inspect(n, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
		if id, ok := y.(*ast.Ident); ok && isNil(x) {
			out[id] = true
		}
		if id, ok := x.(*ast.Ident); ok && isNil(y) {
			out[id] = true
		}
		return true
	})
	return out
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

func defVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// staticOrigin resolves a call's static callee, canonicalized to its
// generic origin so local lookups and facts line up for instantiated
// methods.
func staticOrigin(info *types.Info, call *ast.CallExpr) *types.Func {
	if call == nil {
		return nil
	}
	fn := analysis.StaticCallee(info, call)
	if fn != nil {
		fn = fn.Origin()
	}
	return fn
}

func recvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

func sameNamed(a, b *types.Named) bool {
	if a == nil || b == nil {
		return false
	}
	ao, bo := a.Obj(), b.Obj()
	if ao.Pkg() == nil || bo.Pkg() == nil {
		return ao == bo
	}
	return ao.Name() == bo.Name() && ao.Pkg().Path() == bo.Pkg().Path()
}
