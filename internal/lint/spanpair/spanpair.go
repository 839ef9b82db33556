// Package spanpair guards the tracing layer's pairing invariant:
// every span opened through telemetry (StartSpan, Tracer.Start,
// Span.Child) must be closed with End on every path out of the
// function that created it, or the Chrome trace-event export silently
// drops the interval.
//
// The check is a may-open dataflow over each function's CFG. Assigning
// a span constructor's result to a local variable opens that site;
// v.End(), a deferred End (direct or in a deferred closure) and a call
// that never returns close it, and a nil guard on v closes it along
// the nil edge (End is nil-safe). A site still open at a return, at
// the fall-through end of the function, or when control comes back
// round a loop to the site itself is reported; break, continue and
// goto are ordinary edges. A deferred End inside a loop counts as
// ending the span (the intervals pile up until return: an accepted
// intraprocedural limit).
//
// Spans that escape (returned, stored, or passed onward) are owned
// elsewhere and not tracked. Dropped results and `_` assignments are
// reported syntactically. The telemetry package and its tests are
// exempt; deliberate exceptions use //lint:ignore spanpair <reason>.
package spanpair

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strconv"
	"strings"

	"vbench/internal/lint/analysis"
)

// Analyzer is the spanpair pass.
var Analyzer = &analysis.Analyzer{
	Name: "spanpair",
	Doc:  "checks that every telemetry span is ended on all paths of its creating function",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if name := pass.Pkg.Name(); name == "telemetry" || name == "telemetry_test" {
		return nil
	}
	for _, file := range pass.Files {
		// Each function body, literals included, is its own scope.
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkFunc(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// site is one tracked span creation: obj receives the result of call.
type site struct {
	obj  types.Object
	call *ast.CallExpr
}

// spanSites collects the non-escaping span creations directly inside
// body (not inside nested function literals), keyed by fact token,
// and the tokens each assignment opens. Dropped results are reported
// immediately.
func spanSites(pass *analysis.Pass, body *ast.BlockStmt) (map[string]site, map[ast.Node][]string) {
	sites := map[string]site{}
	opens := map[ast.Node][]string{}
	var escaped map[types.Object]bool
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ExprStmt:
			if call, name := spanCall(pass.TypesInfo, n.X); call != nil {
				pass.Reportf(call.Pos(), "result of %s is dropped; the span is never ended", name)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs { // len(Lhs) >= len(Rhs), so Lhs[i] exists
				call, name := spanCall(pass.TypesInfo, rhs)
				id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident)
				if call == nil || !ok {
					continue // not a span, or stored into a field/element: ownership transferred
				}
				if id.Name == "_" {
					pass.Reportf(call.Pos(), "result of %s is assigned to _; the span is never ended", name)
					continue
				}
				if escaped == nil {
					escaped = escapedVars(pass.TypesInfo, body)
				}
				if obj := pass.TypesInfo.ObjectOf(id); obj != nil && !escaped[obj] {
					tok := strconv.Itoa(len(sites))
					sites[tok] = site{obj: obj, call: call}
					opens[n] = append(opens[n], tok)
				}
			}
		}
		return true
	})
	return sites, opens
}

// checkFunc solves the open-span flow of one function body and
// reports the leaks. A site that leaks around its loop gets only the
// loop message.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	sites, opens := spanSites(pass, body)
	if len(sites) == 0 {
		return
	}
	info := pass.TypesInfo
	closeVar := func(st analysis.Set, obj types.Object) {
		for tok := range st {
			if sites[tok].obj == obj {
				delete(st, tok)
			}
		}
	}
	flow := &analysis.Flow{
		Join: analysis.May,
		Transfer: func(n ast.Node, in analysis.Set) analysis.Set {
			out := in.Clone()
			end := func(x ast.Node) bool {
				if call, ok := x.(*ast.CallExpr); ok {
					if obj := endedVar(info, call); obj != nil {
						closeVar(out, obj)
					}
				}
				return true
			}
			analysis.WalkNode(n, func(x ast.Node) bool {
				switch x := x.(type) {
				case *ast.ReturnStmt:
					clear(out) // the leak is reported at the return
					return false
				case *ast.DeferStmt:
					if lit, ok := ast.Unparen(x.Call.Fun).(*ast.FuncLit); ok {
						ast.Inspect(lit.Body, end)
					}
				case *ast.CallExpr:
					if isTerminalCall(info, x) {
						clear(out)
					}
				}
				return end(x)
			})
			for _, tok := range opens[n] {
				out[tok] = struct{}{}
			}
			return out
		},
		Edge: func(cond ast.Expr, taken bool, out analysis.Set) analysis.Set {
			if obj, eq := nilGuard(info, cond); obj != nil && taken == eq {
				out = out.Clone()
				closeVar(out, obj)
			}
			return out
		},
	}
	cfg := analysis.BuildCFG(body)
	in := flow.Run(cfg)
	looped := map[string]bool{}
	flow.Replay(cfg, in, func(n ast.Node, st analysis.Set) {
		for _, tok := range opens[n] {
			if st.Has(tok) {
				looped[tok] = true
				pass.Reportf(sites[tok].call.Pos(), "span %s is created inside a loop but not ended within the loop body", sites[tok].obj.Name())
			}
		}
	})
	flow.Replay(cfg, in, func(n ast.Node, st analysis.Set) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			named := map[string]bool{}
			for _, tok := range st.Sorted() {
				if name := sites[tok].obj.Name(); !looped[tok] && !named[name] {
					named[name] = true
					pass.Reportf(ret.Pos(), "return leaks span %s (End not called on this path)", name)
				}
			}
		}
	})
	for _, tok := range in[cfg.Exit].Sorted() {
		if !looped[tok] {
			pass.Reportf(sites[tok].call.Pos(), "span %s is not ended on the fall-through return path", sites[tok].obj.Name())
		}
	}
}

// spanCall matches a call of a telemetry span constructor (a function
// or method of package telemetry named Start* or Child whose single
// result has an End method) and returns it with the constructor's
// name, or nil.
func spanCall(info *types.Info, e ast.Expr) (*ast.CallExpr, string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	fn := analysis.CalleeFunc(info, call)
	if !analysis.FromPackage(fn, "telemetry") || !strings.HasPrefix(fn.Name(), "Start") && fn.Name() != "Child" {
		return nil, ""
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() != 1 {
		return nil, ""
	}
	if end, _, _ := types.LookupFieldOrMethod(res.At(0).Type(), true, fn.Pkg(), "End"); end == nil {
		return nil, ""
	}
	return call, fn.FullName()
}

// escapedVars returns the variables whose value leaves body:
// returned, stored, passed as an argument, aliased, or captured by a
// closure doing any of those. Such a span is owned elsewhere. Method
// calls, nil comparisons and reassignments do not escape.
func escapedVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	escaped := map[types.Object]bool{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] == nil {
			return true
		}
		switch parent := stack[len(stack)-2].(type) {
		case *ast.SelectorExpr:
			if parent.X == id {
				return true // method call / field access on the span
			}
		case *ast.AssignStmt:
			if slices.Contains(parent.Lhs, ast.Expr(id)) {
				return true // reassignment: a fresh creation site
			}
		case *ast.BinaryExpr:
			if parent.Op == token.EQL || parent.Op == token.NEQ {
				return true // nil comparison
			}
		}
		escaped[info.Uses[id]] = true
		return true
	})
	return escaped
}

// endedVar returns the variable v of a `v.End()` call, or nil.
func endedVar(info *types.Info, call *ast.CallExpr) types.Object {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" {
		return nil
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return info.Uses[id]
	}
	return nil
}

// nilGuard matches `v == nil` (eq) and `v != nil` and returns v.
func nilGuard(info *types.Info, cond ast.Expr) (v types.Object, eq bool) {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok || (b.Op != token.EQL && b.Op != token.NEQ) {
		return nil, false
	}
	for _, side := range [2][2]ast.Expr{{b.X, b.Y}, {b.Y, b.X}} {
		id, ok := ast.Unparen(side[0]).(*ast.Ident)
		if tv := info.Types[side[1]]; ok && tv.IsNil() {
			return info.Uses[id], b.Op == token.EQL
		}
	}
	return nil, false
}

// noReturn lists, by package path, the calls that never return.
var noReturn = map[string][]string{
	"os":      {"Exit"},
	"runtime": {"Goexit"},
	"log":     {"Fatal", "Fatalf", "Fatalln"},
	"testing": {"Fatal", "Fatalf", "FailNow", "Skip", "Skipf", "SkipNow"},
}

// isTerminalCall matches panic and the noReturn calls.
func isTerminalCall(info *types.Info, call *ast.CallExpr) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
		return true
	}
	fn := analysis.CalleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && slices.Contains(noReturn[fn.Pkg().Path()], fn.Name())
}
