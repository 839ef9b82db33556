package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// parseBody parses src as a file and returns the body of its first
// function declaration.
func parseBody(t *testing.T, src string) (*token.FileSet, *ast.BlockStmt) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
			return fset, fd.Body
		}
	}
	t.Fatalf("no function in source")
	return nil, nil
}

// nodeOnLine reports whether any node of b sits on the given line.
func blockOnLine(fset *token.FileSet, b *Block, line int) bool {
	for _, n := range b.Nodes {
		if fset.Position(n.Pos()).Line == line {
			return true
		}
	}
	return false
}

func TestCFGStraightLine(t *testing.T) {
	_, body := parseBody(t, `package p
func f() {
	a()
	b()
}`)
	c := BuildCFG(body)
	if len(c.Entry.Nodes) != 2 {
		t.Fatalf("entry has %d nodes, want 2", len(c.Entry.Nodes))
	}
	if len(c.Entry.Succs) != 1 || c.Entry.Succs[0] != c.Exit {
		t.Fatalf("entry should flow straight to exit")
	}
}

func TestCFGIfJoins(t *testing.T) {
	fset, body := parseBody(t, `package p
func f(x bool) {
	if x {
		a()
	} else {
		b()
	}
	c()
}`)
	c := BuildCFG(body)
	reach := c.Reachable()
	var thenB, elseB, join *Block
	for b := range reach {
		switch {
		case blockOnLine(fset, b, 4):
			thenB = b
		case blockOnLine(fset, b, 6):
			elseB = b
		case blockOnLine(fset, b, 8):
			join = b
		}
	}
	if thenB == nil || elseB == nil || join == nil {
		t.Fatalf("missing blocks: then=%v else=%v join=%v", thenB, elseB, join)
	}
	for _, b := range []*Block{thenB, elseB} {
		found := false
		for _, s := range b.Succs {
			if s == join {
				found = true
			}
		}
		if !found {
			t.Errorf("branch block %d does not reach the join", b.Index)
		}
	}
}

func TestCFGReturnUnreachable(t *testing.T) {
	fset, body := parseBody(t, `package p
func f() {
	return
	a()
}`)
	c := BuildCFG(body)
	reach := c.Reachable()
	for b := range reach {
		if blockOnLine(fset, b, 4) {
			t.Fatalf("statement after return should be unreachable")
		}
	}
}

func TestCFGLoopBackEdge(t *testing.T) {
	fset, body := parseBody(t, `package p
func f() {
	for i := 0; i < 10; i++ {
		a()
	}
	b()
}`)
	c := BuildCFG(body)
	// The body block must reach itself through the post/head chain.
	var bodyBlk *Block
	for _, b := range c.Blocks {
		if blockOnLine(fset, b, 4) {
			bodyBlk = b
		}
	}
	if bodyBlk == nil {
		t.Fatalf("loop body block not found")
	}
	seen := map[*Block]bool{}
	stack := append([]*Block{}, bodyBlk.Succs...)
	cyclic := false
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == bodyBlk {
			cyclic = true
			break
		}
		if seen[b] {
			continue
		}
		seen[b] = true
		stack = append(stack, b.Succs...)
	}
	if !cyclic {
		t.Fatalf("loop body does not loop back to itself")
	}
}

func TestCFGInfiniteLoopSkipsExit(t *testing.T) {
	fset, body := parseBody(t, `package p
func f() {
	for {
		a()
	}
	b()
}`)
	c := BuildCFG(body)
	reach := c.Reachable()
	for b := range reach {
		if blockOnLine(fset, b, 6) {
			t.Fatalf("statement after for{} should be unreachable")
		}
	}
}

func TestCFGBreakReachesLoopExit(t *testing.T) {
	fset, body := parseBody(t, `package p
func f(x bool) {
	for {
		if x {
			break
		}
	}
	b()
}`)
	c := BuildCFG(body)
	reach := c.Reachable()
	found := false
	for b := range reach {
		if blockOnLine(fset, b, 8) {
			found = true
		}
	}
	if !found {
		t.Fatalf("break should make post-loop code reachable")
	}
}

func TestCFGSelectClauses(t *testing.T) {
	fset, body := parseBody(t, `package p
func f(a, b chan int) {
	select {
	case <-a:
		x()
	case v := <-b:
		_ = v
	}
	y()
}`)
	c := BuildCFG(body)
	reach := c.Reachable()
	for _, line := range []int{5, 7, 9} {
		found := false
		for b := range reach {
			if blockOnLine(fset, b, line) {
				found = true
			}
		}
		if !found {
			t.Fatalf("line %d unreachable in select CFG", line)
		}
	}
}

func TestCFGGotoBackward(t *testing.T) {
	fset, body := parseBody(t, `package p
func f(x bool) {
top:
	a()
	if x {
		goto top
	}
	b()
}`)
	c := BuildCFG(body)
	var labelBlk, gotoBlk *Block
	for _, b := range c.Blocks {
		if blockOnLine(fset, b, 4) {
			labelBlk = b
		}
		for _, n := range b.Nodes {
			if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.GOTO {
				gotoBlk = b
			}
		}
	}
	if labelBlk == nil || gotoBlk == nil {
		t.Fatalf("label or goto block missing")
	}
	found := false
	for _, s := range gotoBlk.Succs {
		if s == labelBlk {
			found = true
		}
	}
	if !found {
		t.Fatalf("goto does not target its label block")
	}
}

func TestCFGPanicTerminates(t *testing.T) {
	fset, body := parseBody(t, `package p
func f() {
	panic("boom")
	a()
}`)
	c := BuildCFG(body)
	reach := c.Reachable()
	for b := range reach {
		if blockOnLine(fset, b, 4) {
			t.Fatalf("statement after panic should be unreachable")
		}
	}
}

// TestFlowMustVsMay pins the join semantics on a diamond: a fact set
// only on one branch survives a May join and dies at a Must join.
func TestFlowMustVsMay(t *testing.T) {
	fset, body := parseBody(t, `package p
func f(x bool) {
	if x {
		lock()
	}
	after()
}`)
	c := BuildCFG(body)
	transfer := func(n ast.Node, in Set) Set {
		out := in
		WalkNode(n, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "lock" {
				out = out.Clone()
				out["mu"] = struct{}{}
			}
			return true
		})
		return out
	}
	for _, tc := range []struct {
		mode JoinMode
		want bool
	}{{May, true}, {Must, false}} {
		flow := &Flow{Join: tc.mode, Transfer: transfer}
		in := flow.Run(c)
		var atAfter Set
		flow.Replay(c, in, func(n ast.Node, state Set) {
			if fset.Position(n.Pos()).Line == 6 {
				atAfter = state
			}
		})
		if got := atAfter.Has("mu"); got != tc.want {
			t.Errorf("join mode %v: held at after() = %v, want %v", tc.mode, got, tc.want)
		}
	}
}

// TestFlowLoopFixpoint: a fact acquired inside a loop must flow
// around the back edge and stabilize.
func TestFlowLoopFixpoint(t *testing.T) {
	fset, body := parseBody(t, `package p
func f() {
	for i := 0; i < 3; i++ {
		lock()
	}
	after()
}`)
	c := BuildCFG(body)
	transfer := func(n ast.Node, in Set) Set {
		out := in
		WalkNode(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "lock" {
					out = out.Clone()
					out["mu"] = struct{}{}
				}
			}
			return true
		})
		return out
	}
	flow := &Flow{Join: Must, Transfer: transfer}
	in := flow.Run(c)
	var atAfter Set
	flow.Replay(c, in, func(n ast.Node, state Set) {
		if fset.Position(n.Pos()).Line == 6 {
			atAfter = state
		}
	})
	// Zero-iteration path exists, so under Must the lock is not held.
	if atAfter == nil {
		t.Fatalf("after() never observed")
	}
	if atAfter.Has("mu") {
		t.Errorf("must-analysis claims lock held after a maybe-zero-trip loop")
	}
}

// TestFlowEdgeNilGuard pins the if-condition successor order (true
// branch first, then the else or join block) and the Flow edge hook on
// the nil-guard shape spanpair relies on: a fact killed on the guard's
// false edge and by a() on the true edge is gone at the join, and
// survives there without the hook.
func TestFlowEdgeNilGuard(t *testing.T) {
	for _, tc := range []struct {
		src                        string
		thenLine, fLine, afterLine int
	}{
		{`package p
func f(v *int) {
	open()
	if v != nil {
		a()
	}
	after()
}`, 5, 7, 7},
		{`package p
func f(v *int) {
	open()
	if v != nil {
		a()
	} else {
		b()
	}
	after()
}`, 5, 7, 9},
	} {
		fset, body := parseBody(t, tc.src)
		c := BuildCFG(body)
		var cond *Block
		for _, b := range c.Blocks {
			if b.Cond != nil {
				cond = b
			}
		}
		if cond == nil || len(cond.Succs) != 2 {
			t.Fatalf("if condition block missing or not two-way: %+v", cond)
		}
		if !blockOnLine(fset, cond.Succs[0], tc.thenLine) || !blockOnLine(fset, cond.Succs[1], tc.fLine) {
			t.Fatalf("successors of %q are not [then (line %d), false (line %d)]",
				types.ExprString(cond.Cond), tc.thenLine, tc.fLine)
		}
		transfer := func(n ast.Node, in Set) Set {
			call, ok := n.(*ast.ExprStmt)
			if !ok {
				return in
			}
			switch call.X.(*ast.CallExpr).Fun.(*ast.Ident).Name {
			case "open":
				return in.Union(NewSet("v"))
			case "a":
				return in.Intersect(Set{})
			}
			return in
		}
		var edges []bool
		guard := func(cond ast.Expr, taken bool, out Set) Set {
			edges = append(edges, taken)
			if taken {
				return out
			}
			return out.Intersect(Set{})
		}
		for _, hook := range []bool{true, false} {
			flow := &Flow{Join: May, Transfer: transfer}
			if hook {
				flow.Edge = guard
			}
			in := flow.Run(c)
			var atAfter Set
			flow.Replay(c, in, func(n ast.Node, state Set) {
				if fset.Position(n.Pos()).Line == tc.afterLine {
					atAfter = state
				}
			})
			if got := atAfter.Has("v"); got == hook {
				t.Errorf("edge hook %v: fact at after() = %v", hook, got)
			}
		}
		if len(edges) != 2 || !edges[0] || edges[1] {
			t.Errorf("edge hook saw taken = %v, want [true false]", edges)
		}
	}
}

func TestWalkNodeSkipsFuncLitAndSelectBodies(t *testing.T) {
	_, body := parseBody(t, `package p
func f(ch chan int) {
	go func() { inner() }()
	select {
	case <-ch:
		clause()
	}
}`)
	c := BuildCFG(body)
	var names []string
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			WalkNode(n, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok {
						names = append(names, id.Name)
					}
				}
				return true
			})
		}
	}
	joined := strings.Join(names, ",")
	if strings.Contains(joined, "inner") {
		t.Errorf("WalkNode descended into a function literal: %v", names)
	}
	if !strings.Contains(joined, "clause") {
		t.Errorf("select clause body not owned by its clause block: %v", names)
	}
}
