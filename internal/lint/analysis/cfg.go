package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the per-function control-flow graph the dataflow
// analyzers (locksafe, spanpair) run over. It is deliberately
// lightweight: blocks hold ast.Node statement lists in source order,
// edges model structured control flow (if/for/range/switch/select,
// break/continue/goto with labels, return, terminal panic), and
// expression-level ordering inside one node is left to the analyzer
// (they re-walk each node with ast.Inspect). Function literals are
// not descended into — each literal gets its own CFG.

// Block is one straight-line run of statements. Nodes never contains
// nested statement lists: compound statements contribute their
// non-body parts (an if condition, a range operand, a select comm
// clause) as individual nodes and route their bodies through edges.
type Block struct {
	// Index is the block's position in CFG.Blocks (stable, build
	// order), used for deterministic iteration.
	Index int
	Nodes []ast.Node
	Succs []*Block
	// Cond is set when the block ends in an if condition: Succs[0] is
	// taken when it is true, Succs[1] when it is false.
	Cond ast.Expr
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Blocks []*Block
	Entry  *Block
	// Exit is the single synthetic exit block: returns, panics, and
	// the fall-through end of the body all lead here.
	Exit *Block
}

// BuildCFG constructs the graph for one function body. It never
// returns nil; an empty body yields entry → exit.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	b.edge(b.cur, b.cfg.Exit)
	b.resolveGotos()
	return b.cfg
}

// cfgBuilder carries the under-construction graph plus the jump
// context stacks.
type cfgBuilder struct {
	cfg *CFG
	cur *Block

	// loops is the stack of enclosing breakable/continuable contexts.
	loops []loopCtx
	// labels maps a label name to the block its statement starts in
	// (goto targets) once seen.
	labels map[string]*Block
	// pendingGotos are forward gotos resolved at the end.
	pendingGotos []pendingGoto
}

type loopCtx struct {
	label          string // enclosing label, "" if none
	brk, cont      *Block // cont nil for switch/select (break only)
	isLoop         bool
	fallthroughTgt *Block // next case clause, for fallthrough
}

type pendingGoto struct {
	from  *Block
	label string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// startBlock begins a fresh block reached from the current one.
func (b *cfgBuilder) startBlock() *Block {
	nb := b.newBlock()
	b.edge(b.cur, nb)
	b.cur = nb
	return nb
}

// deadBlock begins a fresh unreachable block (after return/branch).
func (b *cfgBuilder) deadBlock() {
	b.cur = b.newBlock()
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt adds one statement to the graph. label is the name of a
// directly-enclosing labeled statement ("" otherwise), consumed by
// loops and switches for labeled break/continue.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label targets the block the labeled statement starts in.
		nb := b.startBlock()
		if b.labels == nil {
			b.labels = map[string]*Block{}
		}
		b.labels[s.Label.Name] = nb
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Cond)
		condBlk := b.cur
		condBlk.Cond = s.Cond
		thenBlk := b.newBlock()
		b.edge(condBlk, thenBlk)
		join := b.newBlock()
		b.cur = thenBlk
		b.stmtList(s.Body.List)
		b.edge(b.cur, join)
		if s.Else != nil {
			elseBlk := b.newBlock()
			b.edge(condBlk, elseBlk)
			b.cur = elseBlk
			b.stmt(s.Else, "")
			b.edge(b.cur, join)
		} else {
			b.edge(condBlk, join)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.cur.Nodes = append(b.cur.Nodes, s.Init)
		}
		head := b.startBlock()
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		exit := b.newBlock()
		if s.Cond != nil {
			b.edge(head, exit)
		}
		post := b.newBlock()
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		b.edge(post, head)
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.loops = append(b.loops, loopCtx{label: label, brk: exit, cont: post, isLoop: true})
		b.stmtList(s.Body.List)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(b.cur, post)
		b.cur = exit

	case *ast.RangeStmt:
		head := b.startBlock()
		head.Nodes = append(head.Nodes, s)
		exit := b.newBlock()
		b.edge(head, exit)
		body := b.newBlock()
		b.edge(head, body)
		b.cur = body
		b.loops = append(b.loops, loopCtx{label: label, brk: exit, cont: head, isLoop: true})
		b.stmtList(s.Body.List)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(b.cur, head)
		b.cur = exit

	case *ast.SwitchStmt:
		b.switchStmt(s.Init, s.Tag, s.Body, label)

	case *ast.TypeSwitchStmt:
		b.switchStmt(s.Init, s.Assign, s.Body, label)

	case *ast.SelectStmt:
		// The SelectStmt node itself sits in the head block so
		// analyzers can classify blocking selects; each comm clause's
		// statement starts its clause block.
		b.cur.Nodes = append(b.cur.Nodes, s)
		head := b.cur
		join := b.newBlock()
		b.loops = append(b.loops, loopCtx{label: label, brk: join})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(head, blk)
			if cc.Comm != nil {
				blk.Nodes = append(blk.Nodes, cc.Comm)
			}
			b.cur = blk
			b.stmtList(cc.Body)
			b.edge(b.cur, join)
		}
		b.loops = b.loops[:len(b.loops)-1]
		if len(s.Body.List) == 0 {
			b.edge(head, join)
		}
		b.cur = join

	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.edge(b.cur, b.cfg.Exit)
		b.deadBlock()

	case *ast.BranchStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		switch s.Tok {
		case token.BREAK:
			if t := b.findLoop(s.Label, false); t != nil && t.brk != nil {
				b.edge(b.cur, t.brk)
			} else {
				b.edge(b.cur, b.cfg.Exit)
			}
		case token.CONTINUE:
			if t := b.findLoop(s.Label, true); t != nil && t.cont != nil {
				b.edge(b.cur, t.cont)
			} else {
				b.edge(b.cur, b.cfg.Exit)
			}
		case token.GOTO:
			b.pendingGotos = append(b.pendingGotos, pendingGoto{from: b.cur, label: s.Label.Name})
		case token.FALLTHROUGH:
			if n := len(b.loops); n > 0 && b.loops[n-1].fallthroughTgt != nil {
				b.edge(b.cur, b.loops[n-1].fallthroughTgt)
			}
		}
		b.deadBlock()

	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				b.edge(b.cur, b.cfg.Exit)
				b.deadBlock()
			}
		}

	case nil:
		// e.g. a missing else; nothing to add.

	default:
		// Assign, Decl, Send, IncDec, Defer, Go, Empty: straight-line.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

// switchStmt handles expression and type switches: every clause forks
// from the head; a missing default adds a head → join edge.
func (b *cfgBuilder) switchStmt(init ast.Stmt, tag ast.Node, body *ast.BlockStmt, label string) {
	if init != nil {
		b.cur.Nodes = append(b.cur.Nodes, init)
	}
	if tag != nil {
		b.cur.Nodes = append(b.cur.Nodes, tag)
	}
	head := b.cur
	join := b.newBlock()
	clauses := make([]*ast.CaseClause, 0, len(body.List))
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		b.edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(head, join)
	}
	for i, cc := range clauses {
		ctx := loopCtx{label: label, brk: join}
		if i+1 < len(blocks) {
			ctx.fallthroughTgt = blocks[i+1]
		}
		b.loops = append(b.loops, ctx)
		b.cur = blocks[i]
		for _, e := range cc.List {
			b.cur.Nodes = append(b.cur.Nodes, e)
		}
		b.stmtList(cc.Body)
		b.loops = b.loops[:len(b.loops)-1]
		b.edge(b.cur, join)
	}
	b.cur = join
}

// findLoop resolves a break/continue target. needLoop restricts the
// search to for/range contexts (continue); break also stops at
// switches and selects.
func (b *cfgBuilder) findLoop(label *ast.Ident, needLoop bool) *loopCtx {
	for i := len(b.loops) - 1; i >= 0; i-- {
		c := &b.loops[i]
		if needLoop && !c.isLoop {
			continue
		}
		if label == nil || c.label == label.Name {
			return c
		}
	}
	return nil
}

func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.pendingGotos {
		if t, ok := b.labels[g.label]; ok {
			b.edge(g.from, t)
		} else {
			// Unresolvable (malformed source): conservatively exit.
			b.edge(g.from, b.cfg.Exit)
		}
	}
}

// Reachable returns the set of blocks reachable from the entry.
func (c *CFG) Reachable() map[*Block]bool {
	seen := map[*Block]bool{}
	stack := []*Block{c.Entry}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[blk] {
			continue
		}
		seen[blk] = true
		stack = append(stack, blk.Succs...)
	}
	return seen
}
