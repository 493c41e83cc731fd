package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// DetRange flags `for ... range` over a map inside the packages that
// feed reports, aggregation, block building, or winner determination.
// Go randomizes map iteration order per run, so any such loop whose
// effect depends on visit order is a nondeterminism bug waiting for a
// scheduler to expose it — the exact class that breaks byte-identical
// reports across worker counts.
//
// These shapes are sanctioned without annotation:
//
//   - collect-then-sort: the body only appends keys/values to local
//     slices, and every collected slice is sorted later in the same
//     block (sort.Strings, sort.Slice, slices.Sort, ...);
//   - commutative folds: the body only accumulates into integer
//     variables with += / -= / ++ / --, deletes from other maps, or
//     branches on state the loop does not itself write. Integer
//     addition is associative and commutative, so visit order cannot
//     leak into the result (floats are NOT sanctioned: float addition
//     is order-dependent);
//   - keyed inserts: m2[k] = v where k is this range's own key
//     variable. Keys are distinct across iterations, so the writes
//     cannot collide and last-write-wins cannot depend on visit order;
//   - iteration-local state: variables declared inside the body (x :=
//     ...) are fresh each iteration, so writes into them — including
//     arbitrary map/slice/field writes — cannot cross iterations;
//   - extremum folds: if v > max { max = v } (and the <, >=, <=
//     variants). Max and min are commutative, whatever the ordering;
//   - existence checks: return of constants (return true / return
//     false) from a body that writes nothing else. "Does any element
//     satisfy P" does not depend on which element is found first.
//
// Anything else needs a load-bearing justification comment on or
// immediately above the statement:
//
//	//xdeal:unordered <reason the iteration order provably cannot leak>
//
// The analyzer verifies the annotation is doing work: a suppression
// with no reason, on a non-map loop, or on a loop that is already
// order-safe is itself reported.
var DetRange = &Analyzer{
	Name: "detrange",
	Doc: "flag order-dependent map iteration in report-feeding packages\n\n" +
		"Reports must be byte-identical across worker counts and replays\n" +
		"bit-for-bit; an unsorted map range in fleet, arena, feemarket,\n" +
		"hedge, bundle, chain, engine, or obs silently breaks both.",
	Run: runDetRange,
}

// detRangeTargets is the set of package basenames (under internal/)
// whose output feeds reports, aggregation, block building, or winner
// determination. obs holds the report's distribution type (Sketch) and
// the metrics registry whose snapshots must match across worker counts.
var detRangeTargets = map[string]bool{
	"fleet":     true,
	"arena":     true,
	"feemarket": true,
	"hedge":     true,
	"bundle":    true,
	"chain":     true,
	"engine":    true,
	"obs":       true,
}

// suppressionComment is the marker justifying an order-dependent map
// iteration.
const suppressionComment = "//xdeal:unordered"

type suppression struct {
	pos    token.Pos
	line   int
	reason string
	used   bool
}

func runDetRange(pass *Pass) error {
	path := pass.Pkg.Path()
	inScope := pathHasInternal(path) && detRangeTargets[lastSegment(path)]
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		sups := collectSuppressions(pass.Fset, f)
		if inScope {
			checkFileRanges(pass, f, sups)
		}
		for _, s := range sups {
			if s.used {
				continue
			}
			if !inScope {
				pass.Reportf(s.pos, "//xdeal:unordered has no effect: detrange does not police package %s", path)
			} else {
				pass.Reportf(s.pos, "//xdeal:unordered has no effect: not attached to a map iteration")
			}
		}
	}
	return nil
}

// collectSuppressions indexes every //xdeal:unordered comment in f by
// the line it ends on.
func collectSuppressions(fset *token.FileSet, f *ast.File) map[int]*suppression {
	sups := make(map[int]*suppression)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, suppressionComment) {
				continue
			}
			rest := c.Text[len(suppressionComment):]
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue // e.g. //xdeal:unorderedX — not ours
			}
			// The reason ends at an embedded "//": what follows is a
			// trailing comment, not justification.
			if i := strings.Index(rest, "//"); i >= 0 {
				rest = rest[:i]
			}
			s := &suppression{
				pos:    c.Pos(),
				line:   fset.Position(c.End()).Line,
				reason: strings.TrimSpace(rest),
			}
			sups[s.line] = s
		}
	}
	return sups
}

// checkFileRanges walks every statement list in f looking for map
// ranges, keeping the trailing statements of the enclosing block in
// hand so collect-then-sort can be verified.
func checkFileRanges(pass *Pass, f *ast.File, sups map[int]*suppression) {
	ast.Inspect(f, func(n ast.Node) bool {
		var list []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			list = n.List
		case *ast.CaseClause:
			list = n.Body
		case *ast.CommClause:
			list = n.Body
		default:
			return true
		}
		for i, st := range list {
			rs, ok := st.(*ast.RangeStmt)
			if !ok || !isMapType(pass.TypesInfo.TypeOf(rs.X)) {
				continue
			}
			checkMapRange(pass, rs, list[i+1:], sups)
		}
		return true
	})
}

// checkMapRange applies the detrange policy to one map iteration.
func checkMapRange(pass *Pass, rs *ast.RangeStmt, tail []ast.Stmt, sups map[int]*suppression) {
	line := pass.Fset.Position(rs.For).Line
	sup := sups[line]
	if sup == nil {
		sup = sups[line-1]
	}

	body := newBodyCheck(pass.TypesInfo)
	body.rangeVars(rs)
	safe, why := body.blockSafe(rs.Body)
	unsorted := ""
	if safe {
		for obj, id := range body.collects {
			if !sortedInTail(pass.TypesInfo, tail, obj) {
				unsorted = id.Name
				break
			}
		}
	}

	if sup != nil {
		sup.used = true
		if sup.reason == "" {
			pass.Reportf(sup.pos, "//xdeal:unordered needs a justification: state why iteration order cannot leak into output")
			return
		}
		if safe && unsorted == "" {
			pass.Reportf(sup.pos, "//xdeal:unordered is not load-bearing: this iteration is already order-safe; remove the annotation")
		}
		return
	}
	x := types.ExprString(rs.X)
	switch {
	case !safe:
		pass.Reportf(rs.For, "order-dependent iteration over map %s (%s); collect and sort the keys first, or justify with //xdeal:unordered <reason>", x, why)
	case unsorted != "":
		pass.Reportf(rs.For, "%s is collected from map %s but never sorted in this block; sort it before use, or justify with //xdeal:unordered <reason>", unsorted, x)
	}
}

// bodyCheck decides whether a map-range body is order-independent.
type bodyCheck struct {
	info      *types.Info
	primary   types.Object                // the key variable of the range under scrutiny
	perIter   map[types.Object]bool       // range/if-init/body-declared vars: fresh each iteration
	writes    map[types.Object]bool       // state the loop accumulates into
	container map[types.Object]bool       // roots of index/selector lvalues the loop writes through
	collects  map[types.Object]*ast.Ident // slices built by x = append(x, ...)
}

func newBodyCheck(info *types.Info) *bodyCheck {
	return &bodyCheck{
		info:      info,
		perIter:   make(map[types.Object]bool),
		writes:    make(map[types.Object]bool),
		container: make(map[types.Object]bool),
		collects:  make(map[types.Object]*ast.Ident),
	}
}

func (b *bodyCheck) rangeVars(rs *ast.RangeStmt) {
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok {
			if obj := b.info.Defs[id]; obj != nil {
				b.perIter[obj] = true
			} else if obj := b.info.Uses[id]; obj != nil {
				b.perIter[obj] = true
			}
		}
	}
	if id, ok := rs.Key.(*ast.Ident); ok {
		b.primary = b.objOf(id)
	}
}

func (b *bodyCheck) objOf(id *ast.Ident) types.Object {
	if obj := b.info.Uses[id]; obj != nil {
		return obj
	}
	return b.info.Defs[id]
}

// blockSafe reports whether every statement in the block is one of the
// sanctioned order-independent forms; why names the first offender.
func (b *bodyCheck) blockSafe(blk *ast.BlockStmt) (bool, string) {
	// First pass: record what the whole body writes, so conditions can
	// be checked against accumulated state wherever they appear.
	ast.Inspect(blk, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					if obj := b.objOf(id); obj != nil {
						b.writes[obj] = true
					}
				} else if root := lvalueRoot(lhs); root != nil {
					if obj := b.objOf(root); obj != nil {
						b.container[obj] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if id, ok := n.X.(*ast.Ident); ok {
				if obj := b.objOf(id); obj != nil {
					b.writes[obj] = true
				}
			}
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				if id, ok := e.(*ast.Ident); ok {
					if obj := b.objOf(id); obj != nil {
						b.perIter[obj] = true
					}
				}
			}
		}
		return true
	})
	for obj := range b.perIter {
		delete(b.writes, obj)
	}
	return b.stmtsSafe(blk.List)
}

func (b *bodyCheck) stmtsSafe(list []ast.Stmt) (bool, string) {
	for _, st := range list {
		if ok, why := b.stmtSafe(st); !ok {
			return false, why
		}
	}
	return true, ""
}

func (b *bodyCheck) stmtSafe(st ast.Stmt) (bool, string) {
	switch st := st.(type) {
	case *ast.AssignStmt:
		return b.assignSafe(st)
	case *ast.IncDecStmt:
		if id, ok := st.X.(*ast.Ident); ok && isIntegerObj(b.info, id) {
			return true, ""
		}
		return false, fmt.Sprintf("%s is not an integer counter", types.ExprString(st.X))
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok && isBuiltinDelete(b.info, call) {
			return true, ""
		}
		return false, "calls with effects may observe iteration order"
	case *ast.BranchStmt:
		if st.Tok == token.CONTINUE && st.Label == nil {
			return true, ""
		}
		return false, "break/goto makes the visited subset order-dependent"
	case *ast.ReturnStmt:
		// Existence check: returning constants from an otherwise
		// effect-free body answers "does any element satisfy P", which
		// is order-independent.
		if len(b.writes) > 0 || len(b.container) > 0 {
			return false, "early return from a loop that also accumulates state truncates the fold order-dependently"
		}
		for _, res := range st.Results {
			if tv, ok := b.info.Types[res]; !ok || tv.Value == nil {
				return false, fmt.Sprintf("early return of non-constant %s depends on which element is visited first", types.ExprString(res))
			}
		}
		return true, ""
	case *ast.IfStmt:
		return b.ifSafe(st)
	case *ast.RangeStmt:
		if ok, why := b.condReadsState(st.X); !ok {
			return false, why
		}
		return b.stmtsSafe(st.Body.List)
	case *ast.BlockStmt:
		return b.stmtsSafe(st.List)
	default:
		return false, fmt.Sprintf("statement kind %T is not a sanctioned order-independent form", st)
	}
}

func (b *bodyCheck) assignSafe(st *ast.AssignStmt) (bool, string) {
	// x := ...: iteration-local declarations. The variables are fresh
	// each pass, so nothing written into them can cross iterations.
	if st.Tok == token.DEFINE {
		for _, rhs := range st.Rhs {
			if ok, why := b.condReadsState(rhs); !ok {
				return false, why
			}
		}
		for _, lhs := range st.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := b.info.Defs[id]; obj != nil {
					b.perIter[obj] = true
					delete(b.writes, obj)
				}
			}
		}
		return true, ""
	}
	// x = append(x, ...): collecting for a later sort.
	if st.Tok == token.ASSIGN && len(st.Lhs) == 1 && len(st.Rhs) == 1 {
		if id, ok := st.Lhs[0].(*ast.Ident); ok {
			if call, ok := st.Rhs[0].(*ast.CallExpr); ok && isBuiltinAppend(b.info, call) && len(call.Args) > 0 {
				if arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok && b.objOf(arg) == b.objOf(id) && b.objOf(id) != nil {
					b.collects[b.objOf(id)] = id
					return true, ""
				}
			}
		}
	}
	// x += e / x -= e on integers: a commutative fold.
	if (st.Tok == token.ADD_ASSIGN || st.Tok == token.SUB_ASSIGN) && len(st.Lhs) == 1 {
		if _, isIdx := st.Lhs[0].(*ast.IndexExpr); !isIdx {
			if id, ok := st.Lhs[0].(*ast.Ident); ok && isIntegerObj(b.info, id) {
				return b.condReadsState(st.Rhs[0])
			}
			return false, fmt.Sprintf("%s is not an integer accumulator (float and string folds are order-dependent)", types.ExprString(st.Lhs[0]))
		}
	}
	// Writes into iteration-local containers, and keyed inserts
	// m2[key] = v on this range's own key (distinct every iteration,
	// so the writes cannot collide).
	if len(st.Lhs) == 1 {
		if ok, why := b.lvalueWriteSafe(st.Lhs[0]); ok {
			for _, rhs := range st.Rhs {
				if ok, why := b.condReadsState(rhs); !ok {
					return false, why
				}
			}
			return true, ""
		} else if why != "" {
			return false, why
		}
	}
	return false, "assignment is neither a key-collecting append, an integer fold, nor a keyed insert"
}

// lvalueWriteSafe reports whether writing through lv cannot leak visit
// order: either the root of the lvalue is an iteration-local variable,
// or the final index is this range's own key. A non-empty why with
// ok=false pins a specific offense; empty why means merely "not one of
// these shapes".
func (b *bodyCheck) lvalueWriteSafe(lv ast.Expr) (bool, string) {
	root := lvalueRoot(lv)
	if root == nil {
		return false, ""
	}
	rootObj := b.objOf(root)
	if rootObj != nil && b.perIter[rootObj] {
		// Iteration-local container: still verify the index expressions
		// read no accumulated state.
		return b.indexesReadState(lv, rootObj)
	}
	idx, ok := ast.Unparen(lv).(*ast.IndexExpr)
	if !ok {
		return false, ""
	}
	key, ok := ast.Unparen(idx.Index).(*ast.Ident)
	if !ok || b.primary == nil || b.objOf(key) != b.primary {
		return false, ""
	}
	// m2[key] = v: the container expression may mention its own root
	// (that is the write target), but nothing the loop accumulates.
	return b.condReadsStateExcept(idx.X, rootObj)
}

// indexesReadState checks every index expression along the lvalue chain
// against accumulated state.
func (b *bodyCheck) indexesReadState(lv ast.Expr, rootObj types.Object) (bool, string) {
	for {
		switch x := ast.Unparen(lv).(type) {
		case *ast.IndexExpr:
			if ok, why := b.condReadsStateExcept(x.Index, rootObj); !ok {
				return false, why
			}
			lv = x.X
		case *ast.SelectorExpr:
			lv = x.X
		case *ast.StarExpr:
			lv = x.X
		default:
			return true, ""
		}
	}
}

// lvalueRoot walks an lvalue (m[k], s.f, *p, chains thereof) down to
// its root identifier.
func lvalueRoot(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (b *bodyCheck) ifSafe(st *ast.IfStmt) (bool, string) {
	if b.isExtremumFold(st) {
		return true, ""
	}
	if st.Init != nil {
		init, ok := st.Init.(*ast.AssignStmt)
		if !ok || init.Tok != token.DEFINE {
			return false, "if-init is not a simple declaration"
		}
		for _, rhs := range init.Rhs {
			if ok, why := b.condReadsState(rhs); !ok {
				return false, why
			}
		}
		for _, lhs := range init.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := b.info.Defs[id]; obj != nil {
					b.perIter[obj] = true
					delete(b.writes, obj)
				}
			}
		}
	}
	if ok, why := b.condReadsState(st.Cond); !ok {
		return false, why
	}
	if ok, why := b.stmtsSafe(st.Body.List); !ok {
		return ok, why
	}
	switch els := st.Else.(type) {
	case nil:
		return true, ""
	case *ast.BlockStmt:
		return b.stmtsSafe(els.List)
	case *ast.IfStmt:
		return b.ifSafe(els)
	default:
		return false, "unsupported else form"
	}
}

// isExtremumFold recognizes if v > max { max = v } and its <, >=, <=
// variants: max and min are commutative folds whatever the element
// type, so the branch-on-written-state rule does not apply.
func (b *bodyCheck) isExtremumFold(st *ast.IfStmt) bool {
	if st.Init != nil || st.Else != nil || len(st.Body.List) != 1 {
		return false
	}
	as, ok := st.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	cond, ok := ast.Unparen(st.Cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch cond.Op {
	case token.GTR, token.LSS, token.GEQ, token.LEQ:
	default:
		return false
	}
	lhs, rhs := types.ExprString(as.Lhs[0]), types.ExprString(as.Rhs[0])
	x, y := types.ExprString(cond.X), types.ExprString(cond.Y)
	return (x == rhs && y == lhs) || (x == lhs && y == rhs)
}

// condReadsState rejects expressions that read state the loop itself
// writes: a branch on an accumulator makes the outcome visit-order
// dependent.
func (b *bodyCheck) condReadsState(e ast.Expr) (bool, string) {
	return b.condReadsStateExcept(e, nil)
}

// condReadsStateExcept is condReadsState with one object (the write
// target of the statement under scrutiny) exempted.
func (b *bodyCheck) condReadsStateExcept(e ast.Expr, except types.Object) (bool, string) {
	bad := ""
	ast.Inspect(e, func(n ast.Node) bool {
		if bad != "" {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			obj := b.info.Uses[id]
			if obj == nil || obj == except || b.perIter[obj] {
				return true
			}
			if b.writes[obj] || b.container[obj] {
				bad = id.Name
				return false
			}
		}
		return true
	})
	if bad != "" {
		return false, fmt.Sprintf("reads %s, which the loop itself writes — visit order leaks into the result", bad)
	}
	return true, ""
}

// sortOrderers are functions that impose a deterministic order on a
// collected slice.
var sortOrderers = map[string]bool{
	"sort.Strings":          true,
	"sort.Ints":             true,
	"sort.Float64s":         true,
	"sort.Slice":            true,
	"sort.SliceStable":      true,
	"sort.Sort":             true,
	"sort.Stable":           true,
	"slices.Sort":           true,
	"slices.SortFunc":       true,
	"slices.SortStableFunc": true,
}

// sortedInTail reports whether a later statement in the same block
// passes obj (the collected slice) to a sorting function.
func sortedInTail(info *types.Info, tail []ast.Stmt, obj types.Object) bool {
	for _, st := range tail {
		es, ok := st.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := es.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		callee := calleeObject(info, call)
		if callee == nil || !sortOrderers[funcKey(callee)] {
			continue
		}
		found := false
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && info.Uses[id] == obj {
					found = true
					return false
				}
				return true
			})
		}
		if found {
			return true
		}
	}
	return false
}

func isIntegerObj(info *types.Info, id *ast.Ident) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return false
	}
	basic, ok := coreType(obj.Type()).(*types.Basic)
	return ok && basic.Info()&types.IsInteger != 0
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	return isBuiltin(info, call, "append")
}

func isBuiltinDelete(info *types.Info, call *ast.CallExpr) bool {
	return isBuiltin(info, call, "delete")
}

func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
