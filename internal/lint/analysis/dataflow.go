package analysis

import (
	"go/ast"
	"sort"
)

// This file is the generic forward dataflow engine that runs over a
// BuildCFG graph. Facts are sets of strings (held mutexes for
// locksafe, open spans for spanpair); the lattice is the powerset with
// either union (may analysis) or intersection (must analysis) as the
// join. The engine iterates to a fixpoint, then analyzers replay each
// block with an observer to report at precise nodes.

// Set is an immutable-by-convention string set fact. Callers must
// Clone before mutating a set they did not build.
type Set map[string]struct{}

// NewSet builds a set from elements.
func NewSet(elems ...string) Set {
	s := Set{}
	for _, e := range elems {
		s[e] = struct{}{}
	}
	return s
}

// Clone returns an independent copy.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	for k := range s {
		c[k] = struct{}{}
	}
	return c
}

// Has reports membership.
func (s Set) Has(k string) bool { _, ok := s[k]; return ok }

// Sorted returns the elements in sorted order (for deterministic
// diagnostics).
func (s Set) Sorted() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Equal reports set equality.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if _, ok := o[k]; !ok {
			return false
		}
	}
	return true
}

// Union returns s ∪ o.
func (s Set) Union(o Set) Set {
	c := s.Clone()
	for k := range o {
		c[k] = struct{}{}
	}
	return c
}

// Intersect returns s ∩ o.
func (s Set) Intersect(o Set) Set {
	c := Set{}
	for k := range s {
		if _, ok := o[k]; ok {
			c[k] = struct{}{}
		}
	}
	return c
}

// JoinMode selects the lattice join of a forward analysis.
type JoinMode int

const (
	// May joins with union: a fact holds if it holds on any
	// predecessor path. Used for reachability-style questions.
	May JoinMode = iota
	// Must joins with intersection: a fact holds only if it holds on
	// every predecessor path. Used when reports must be
	// under-approximating (locksafe's held set).
	Must
)

// Flow is one forward dataflow problem over a CFG.
type Flow struct {
	Join JoinMode
	// Entry is the fact set at function entry (nil means empty).
	Entry Set
	// Transfer folds one CFG node into the incoming fact set and
	// returns the outgoing one. It must not mutate in; clone first.
	Transfer func(n ast.Node, in Set) Set
	// Edge, when set, refines the facts leaving a block that ends in
	// an if condition (Block.Cond); taken reports whether the edge is
	// the one followed when the condition is true. Like Transfer, it
	// must not mutate out.
	Edge func(cond ast.Expr, taken bool, out Set) Set
}

// Run iterates to a fixpoint and returns the fact set at the entry of
// every reachable block. Unreachable blocks are absent from the map.
func (f *Flow) Run(c *CFG) map[*Block]Set {
	entry := f.Entry
	if entry == nil {
		entry = Set{}
	}
	reachable := c.Reachable()
	in := map[*Block]Set{c.Entry: entry}
	// Worklist seeded in block order for determinism.
	work := make([]*Block, 0, len(c.Blocks))
	queued := map[*Block]bool{}
	push := func(b *Block) {
		if !queued[b] && reachable[b] {
			queued[b] = true
			work = append(work, b)
		}
	}
	push(c.Entry)
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		out := f.flowBlock(b, in[b])
		for i, s := range b.Succs {
			out := out
			if b.Cond != nil && f.Edge != nil {
				out = f.Edge(b.Cond, i == 0, out)
			}
			cur, seen := in[s]
			var next Set
			if !seen {
				next = out.Clone()
			} else if f.Join == May {
				next = cur.Union(out)
			} else {
				next = cur.Intersect(out)
			}
			if !seen || !next.Equal(cur) {
				in[s] = next
				push(s)
			}
		}
	}
	return in
}

// flowBlock applies Transfer over the block's nodes in order.
func (f *Flow) flowBlock(b *Block, state Set) Set {
	if state == nil {
		state = Set{}
	}
	for _, n := range b.Nodes {
		state = f.Transfer(n, state)
	}
	return state
}

// Replay re-walks every reachable block in index order, calling
// observe with the fact set in force just before each node. in is the
// map Run returned.
func (f *Flow) Replay(c *CFG, in map[*Block]Set, observe func(n ast.Node, state Set)) {
	for _, b := range c.Blocks {
		state, ok := in[b]
		if !ok {
			continue // unreachable
		}
		for _, n := range b.Nodes {
			observe(n, state)
			state = f.Transfer(n, state)
		}
	}
}

// WalkNode traverses one CFG node's expressions in source order
// without crossing into control-flow territory owned by other blocks:
// function literals are never entered (each gets its own CFG), a
// RangeStmt node contributes only its key/value/operand, and a
// SelectStmt node contributes nothing below itself (its comm clauses
// are separate blocks). f's return value prunes like ast.Inspect.
func WalkNode(n ast.Node, f func(ast.Node) bool) {
	switch n := n.(type) {
	case *ast.RangeStmt:
		if !f(n) {
			return
		}
		for _, sub := range []ast.Node{n.Key, n.Value, n.X} {
			if sub != nil {
				WalkNode(sub, f)
			}
		}
		return
	case *ast.SelectStmt:
		f(n)
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return f(n)
	})
}
