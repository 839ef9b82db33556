// Package locksafe guards the fleet's locking discipline with a
// must-hold dataflow analysis over each function's CFG. It reports
// four families of findings:
//
//  1. Lock-order cycles: every acquisition of mutex B while mutex A is
//     held contributes an A → B edge to a per-package order graph; an
//     acquisition that completes a cycle in that graph is a potential
//     ABBA deadlock, and is reported at the acquiring call. The edges
//     themselves are exported as function facts ("acquires B while
//     holding A") so tests can pin the derived model.
//
//  2. Self-deadlock: locking a mutex that the must-hold set says is
//     already held on every path to the call. sync mutexes are not
//     reentrant, so this blocks the goroutine forever.
//
//  3. Blocking operations inside critical sections: channel sends,
//     bare channel receives, selects without a default, ranging over a
//     channel, time.Sleep, WaitGroup.Wait, net/http round-trips,
//     syncx.CPUGate acquisition, and os package disk I/O
//     (ReadFile/WriteFile/Rename/ReadDir and friends) while any mutex
//     is held. These stall every contender of the lock for the
//     duration of the operation; the fix is to move the blocking step
//     outside the critical section or hand off through a buffered
//     channel. The disk rule is the cas.Store discipline: an index
//     lock orders map mutations, never I/O — stage the write first,
//     lock only to publish the entry.
//
//  4. Check-then-act on locked maps: a map read under a mutex, the
//     mutex released, and the map later filled under the same mutex
//     without a re-read in between. Two goroutines can both miss and
//     both fill; the fix is the double-checked idiom or syncx.Memo.
//     The read leaves a token in the same must-flow as the held set:
//     the token becomes "checked" when the mutex is released, a later
//     read under that mutex kills it, and a write while it survives
//     on every path is the finding.
//
// The held set is a Must (intersection) analysis, so joins keep only
// mutexes held on every inbound path: a lock taken in one branch of an
// if does not poison the code after the join. A deferred Unlock keeps
// the mutex in the held set to the end of the function, which is the
// truth the analysis cares about. The analysis is intraprocedural:
// a callee that blocks or locks is invisible unless it is one of the
// recognized blocking calls, so keep critical sections free of opaque
// calls as a matter of style. Function literals are checked as
// functions of their own, with an empty entry held set.
package locksafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"vbench/internal/lint/analysis"
)

// Analyzer is the locksafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "detects lock-order cycles, self-deadlocks, blocking operations inside mutex critical sections, and check-then-act fills of locked maps",
	Run:  run,
}

// orderEdge is one observed "acquired to while holding from".
type orderEdge struct {
	from, to string
	pos      token.Pos // the acquiring call
}

func run(pass *analysis.Pass) error {
	var edges []orderEdge
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				edges = append(edges, checkFunc(pass, fn, fd.Body)...)
			}
		}
	}
	reportCycles(pass, edges)
	return nil
}

// checker carries one function body's analysis state.
type checker struct {
	pass *analysis.Pass
	fn   *types.Func // order-edge facts are attributed to it
	// writes holds every map index expression assigned to.
	writes map[*ast.IndexExpr]bool
	edges  []orderEdge
}

// Token kinds for check-then-act. Facts starting with '#' are never
// mutex keys, so they stay out of held-set diagnostics.
const (
	readTok    = "#read\x00"    // map read in the current section of a mutex
	checkedTok = "#checked\x00" // that section has since been released
)

func mapToken(kind, mutex, m string) string { return kind + mutex + "\x00" + m }

// checkFunc runs the must-hold analysis over one function body and
// the function literals inside it (each with a fresh CFG and an empty
// entry held set, order edges attributed to fn), reports
// intra-function findings, and returns the order edges observed.
func checkFunc(pass *analysis.Pass, fn *types.Func, body *ast.BlockStmt) []orderEdge {
	c := &checker{pass: pass, fn: fn, writes: map[*ast.IndexExpr]bool{}}
	comm := map[ast.Node]bool{}
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, n)
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					c.writes[ix] = true
				}
			}
		case *ast.SelectStmt:
			// Comm statements are judged at the select head.
			for _, cl := range n.Body.List {
				if cc := cl.(*ast.CommClause); cc.Comm != nil {
					comm[cc.Comm] = true
				}
			}
		}
		return true
	})
	cfg := analysis.BuildCFG(body)
	flow := &analysis.Flow{
		Join: analysis.Must,
		Transfer: func(n ast.Node, in analysis.Set) analysis.Set {
			st := in.Clone()
			c.step(n, st, false)
			return st
		},
	}
	in := flow.Run(cfg)
	flow.Replay(cfg, in, func(n ast.Node, st analysis.Set) {
		c.step(n, st.Clone(), !comm[n])
	})
	for _, lit := range lits {
		c.edges = append(c.edges, checkFunc(pass, fn, lit.Body)...)
	}
	return c.edges
}

// step folds one CFG node into st, in source order. With report set
// it also reports findings and records order edges; the transfer
// function calls it with report unset.
func (c *checker) step(n ast.Node, st analysis.Set, report bool) {
	if report {
		c.checkBlockingNode(n, st)
	}
	analysis.WalkNode(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.DeferStmt:
			// A deferred Unlock releases at return; the mutex stays
			// held for the rest of the body.
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && report {
				c.reportHeld(x.Pos(), st, "channel receive")
			}
		case *ast.IndexExpr:
			c.mapAccess(x, st, report)
		case *ast.CallExpr:
			if key, unlock, ok := lockCall(c.pass, x); ok {
				c.lock(x, key, unlock, st, report)
			} else if bn := blockingCall(c.pass, x); bn != "" && report {
				c.reportHeld(x.Pos(), st, "call to "+bn+" may block")
			}
		}
		return true
	})
}

// lock applies one Lock/Unlock call to st. An unlock turns the
// mutex's read tokens into checked ones.
func (c *checker) lock(call *ast.CallExpr, key string, unlock bool, st analysis.Set, report bool) {
	if unlock {
		delete(st, key)
		prefix := mapToken(readTok, key, "")
		for tok := range st {
			if strings.HasPrefix(tok, prefix) {
				delete(st, tok)
				st[mapToken(checkedTok, key, tok[len(prefix):])] = struct{}{}
			}
		}
		return
	}
	if report {
		if st.Has(key) {
			c.pass.Reportf(call.Pos(), "mutex %s is locked again while already held (self-deadlock)", key)
		} else {
			for _, held := range mutexes(st) {
				c.edges = append(c.edges, orderEdge{from: held, to: key, pos: call.Pos()})
				c.pass.ExportFunctionFact(c.fn, "acquires %s while holding %s", key, held)
			}
		}
	}
	st[key] = struct{}{}
}

// mapAccess applies a read or write of a map element to the
// check-then-act tokens of every held mutex.
func (c *checker) mapAccess(ix *ast.IndexExpr, st analysis.Set, report bool) {
	tv, ok := c.pass.TypesInfo.Types[ix.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	m := types.ExprString(ix.X)
	racy := false
	for _, mu := range mutexes(st) {
		read, checked := mapToken(readTok, mu, m), mapToken(checkedTok, mu, m)
		if !c.writes[ix] {
			delete(st, checked) // re-checked after reacquiring
			st[read] = struct{}{}
			continue
		}
		racy = racy || st.Has(checked)
		delete(st, checked)
		delete(st, read)
	}
	if report && racy {
		c.pass.Reportf(ix.Pos(), "map %s is checked in one critical section and filled in a later one without re-checking (check-then-act race); re-check after locking or use syncx.Memo", m)
	}
}

// checkBlockingNode handles the statement-shaped blocking constructs
// that the CFG places as whole nodes.
func (c *checker) checkBlockingNode(n ast.Node, st analysis.Set) {
	switch n := n.(type) {
	case *ast.SendStmt:
		c.reportHeld(n.Pos(), st, "channel send")
	case *ast.SelectStmt:
		for _, cl := range n.Body.List {
			if cl.(*ast.CommClause).Comm == nil {
				return // has a default: non-blocking
			}
		}
		c.reportHeld(n.Pos(), st, "blocking select")
	case *ast.RangeStmt:
		if tv, ok := c.pass.TypesInfo.Types[n.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				c.reportHeld(n.Pos(), st, "range over channel")
			}
		}
	}
}

// reportHeld reports a blocking operation when any mutex is held.
func (c *checker) reportHeld(pos token.Pos, st analysis.Set, what string) {
	if held := mutexes(st); len(held) > 0 {
		c.pass.Reportf(pos, "%s while holding %s", what, strings.Join(held, ", "))
	}
}

// lockCall classifies call as a sync mutex Lock/RLock (unlock=false)
// or Unlock/RUnlock (unlock=true) and returns the mutex identity key.
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (key string, unlock, ok bool) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || !analysis.FromPath(fn, "sync") {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		unlock = false
	case "Unlock", "RUnlock":
		unlock = true
	default:
		return "", false, false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	return mutexKey(pass, sel.X), unlock, true
}

// mutexKey names a mutex so the same lock reached from different
// functions maps to the same order-graph node: struct fields key by
// owning type and field name, package-level vars by package and name,
// locals by declaration position (never shared across functions).
func mutexKey(pass *analysis.Pass, expr ast.Expr) string {
	expr = ast.Unparen(expr)
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		if s, ok := pass.TypesInfo.Selections[e]; ok {
			if f, ok := s.Obj().(*types.Var); ok {
				return typeName(s.Recv()) + "." + f.Name()
			}
		}
		// Qualified package-level var: pkg.Mu.
		if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
			return v.Pkg().Name() + "." + v.Name()
		}
	case *ast.Ident:
		if v, ok := pass.TypesInfo.Uses[e].(*types.Var); ok {
			if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
				return v.Pkg().Name() + "." + v.Name()
			}
			// A receiver or local of a type that embeds its mutex
			// (q.Lock()) keys by the owning type.
			if n := typeName(v.Type()); n != "" && !strings.HasPrefix(n, "sync.") && n != "Mutex" && n != "RWMutex" {
				return n + ".(embedded)"
			}
			return fmt.Sprintf("%s@%s", v.Name(), pass.Fset.Position(v.Pos()))
		}
	}
	return types.ExprString(expr)
}

// typeName renders the named type behind t (through pointers), or ""
// for unnamed types.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	if pkg := n.Obj().Pkg(); pkg != nil && pkg.Path() == "sync" {
		return "sync." + n.Obj().Name()
	}
	return n.Obj().Name()
}

// blockingCall names a call known to block indefinitely or for a
// scheduled duration, or returns "".
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil {
		return ""
	}
	name := fn.Name()
	switch {
	case analysis.FromPath(fn, "time") && name == "Sleep":
		return "time.Sleep"
	case analysis.FromPath(fn, "sync") && name == "Wait":
		// Only WaitGroup.Wait: Cond.Wait is designed to be called
		// with the lock held.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && typeName(sig.Recv().Type()) == "sync.WaitGroup" {
			return "sync.WaitGroup.Wait"
		}
	case analysis.FromPath(fn, "net/http"):
		switch name {
		case "Do", "Get", "Post", "Head", "PostForm", "Serve", "ListenAndServe", "ListenAndServeTLS":
			return "http." + name
		}
	case analysis.FromPackage(fn, "syncx"):
		switch name {
		case "Acquire", "AcquireOrQuit":
			return "syncx." + name
		}
	case analysis.FromPath(fn, "os"):
		// Package-level disk I/O only (sig.Recv() == nil): methods such
		// as File.Name or FileInfo.Size are cheap accessors and share
		// these names.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			switch name {
			case "ReadFile", "WriteFile", "Open", "OpenFile", "Create",
				"Rename", "Remove", "RemoveAll", "ReadDir", "Mkdir", "MkdirAll":
				return "os." + name
			}
		}
	}
	return ""
}

// mutexes returns the held mutexes in st, sorted, without the
// check-then-act tokens.
func mutexes(st analysis.Set) []string {
	var out []string
	for _, k := range st.Sorted() {
		if !strings.HasPrefix(k, "#") {
			out = append(out, k)
		}
	}
	return out
}

// reportCycles builds the package's acquisition-order graph and flags
// every edge that sits on a cycle, rendering the shortest completing
// path in the message.
func reportCycles(pass *analysis.Pass, edges []orderEdge) {
	adj := map[string]map[string]bool{}
	for _, e := range edges {
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}
	reported := map[token.Pos]bool{}
	sort.Slice(edges, func(i, j int) bool { return edges[i].pos < edges[j].pos })
	for _, e := range edges {
		if reported[e.pos] {
			continue
		}
		if path := findPath(adj, e.to, e.from); path != nil {
			reported[e.pos] = true
			cycle := append([]string{}, path...)
			cycle = append(cycle, e.to)
			pass.Reportf(e.pos, "acquiring %s while holding %s completes a lock-order cycle (%s)",
				e.to, e.from, strings.Join(cycle, " -> "))
		}
	}
}

// findPath returns a shortest node path from src to dst in adj
// (inclusive of both ends), or nil when unreachable.
func findPath(adj map[string]map[string]bool, src, dst string) []string {
	type item struct {
		node string
		path []string
	}
	seen := map[string]bool{src: true}
	queue := []item{{src, []string{src}}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if it.node == dst {
			return it.path
		}
		next := make([]string, 0, len(adj[it.node]))
		for n := range adj[it.node] {
			next = append(next, n)
		}
		sort.Strings(next)
		for _, n := range next {
			if seen[n] {
				continue
			}
			seen[n] = true
			queue = append(queue, item{n, append(append([]string{}, it.path...), n)})
		}
	}
	return nil
}
