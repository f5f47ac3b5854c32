package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// This file is the intra-procedural control-flow graph builder underneath
// the dataflow analyzers (mustrelease, lockpair). The single-pass AST
// matchers that came before it could state "this call is forbidden here";
// a CFG lets an analyzer state "this acquire does not reach a release on
// every path", which is the shape of every leak the snapshot/memory
// protocols can suffer. The builder is deliberately simple: basic blocks
// of ast.Node, explicit edges for every Go control construct the engine
// uses (if/for/range/switch/type-switch/select, labeled break/continue,
// goto, short-circuit && and ||), return edges into one synthetic exit
// block, and panic treated as a non-returning terminator so error paths
// that abandon the frame do not produce leak noise.

// Block is one basic block: nodes execute in order, then control moves to
// exactly one successor. Kind is a stable human-readable tag ("if.then",
// "for.body", ...) used by diagnostics and the structural tests.
type Block struct {
	Index int
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// addSucc wires a CFG edge a -> b (idempotent).
func (b *Block) addSucc(s *Block) {
	for _, old := range b.Succs {
		if old == s {
			return
		}
	}
	b.Succs = append(b.Succs, s)
	s.Preds = append(s.Preds, b)
}

// CFG is one function body's control-flow graph. Entry has no
// predecessors; Exit collects every return edge and the implicit fall-off
// at the end of the body. Panic terminators get no edge to Exit: a frame
// abandoned by panic cannot "leak on return".
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// String renders the graph as "index kind -> succ-indexes" lines, sorted
// by block index — the canonical form the structural tests assert on.
func (g *CFG) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		succs := make([]int, 0, len(b.Succs))
		for _, s := range b.Succs {
			succs = append(succs, s.Index)
		}
		sort.Ints(succs)
		fmt.Fprintf(&sb, "%d %s ->", b.Index, b.Kind)
		for _, s := range succs {
			fmt.Fprintf(&sb, " %d", s)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// buildCFG constructs the CFG of one function body.
func buildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{
		cfg:    &CFG{},
		labels: map[string]*labelInfo{},
	}
	b.cfg.Entry = b.newBlock("entry")
	b.cfg.Exit = b.newBlock("exit")
	b.cur = b.cfg.Entry
	b.stmtList(body.List)
	b.jump(b.cfg.Exit)
	return b.cfg
}

// loopFrame is one enclosing breakable/continuable construct.
type loopFrame struct {
	label   string // "" for unlabeled
	breakTo *Block
	contTo  *Block // nil for switch/select (continue skips them)
}

// labelInfo tracks a declared label: goto lands on target; forward gotos
// that precede the declaration are recorded as pending sources.
type labelInfo struct {
	target  *Block
	pending []*Block
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block
	frames []loopFrame
	labels map[string]*labelInfo

	// nextLabel is set by a LabeledStmt so the immediately following
	// loop/switch/select registers the labeled break/continue frame.
	nextLabel string

	// fallTo is the next case clause's body block while building a
	// switch clause, the target of a fallthrough statement.
	fallTo *Block
}

func (b *cfgBuilder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// jump adds an edge cur -> to, unless cur is already terminated.
func (b *cfgBuilder) jump(to *Block) {
	if b.cur != nil {
		b.cur.addSucc(to)
	}
}

// startBlock makes blk the current block.
func (b *cfgBuilder) startBlock(blk *Block) { b.cur = blk }

// add appends a node to the current block (starting an unreachable block
// if control already left, so trailing dead code still parses into the
// graph without edges).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

// terminate marks the current path as ended (return/branch/panic).
func (b *cfgBuilder) terminate() { b.cur = nil }

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label set by a LabeledStmt.
func (b *cfgBuilder) takeLabel() string {
	l := b.nextLabel
	b.nextLabel = ""
	return l
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s)
	case *ast.RangeStmt:
		b.rangeStmt(s)
	case *ast.SwitchStmt:
		b.switchStmt(s)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s)
	case *ast.SelectStmt:
		b.selectStmt(s)
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cfg.Exit)
		b.terminate()
	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			// panic abandons the frame: no edge to exit, so "leaked on
			// this path" analyses do not fire on deliberate aborts.
			b.terminate()
		}
	default:
		// DeclStmt, AssignStmt, IncDecStmt, SendStmt, DeferStmt, GoStmt,
		// EmptyStmt: straight-line nodes.
		b.add(s)
	}
}

// isPanicCall reports whether e is a direct call of the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// cond builds the evaluation of a boolean condition with explicit
// short-circuit edges: control reaches t when the condition is true and f
// when it is false, and the right operand of && / || only evaluates on
// the paths the language evaluates it.
func (b *cfgBuilder) cond(e ast.Expr, t, f *Block) {
	switch x := e.(type) {
	case *ast.ParenExpr:
		b.cond(x.X, t, f)
		return
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			b.cond(x.X, f, t)
			return
		}
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			rhs := b.newBlock("cond.and")
			b.cond(x.X, rhs, f)
			b.startBlock(rhs)
			b.cond(x.Y, t, f)
			return
		case token.LOR:
			rhs := b.newBlock("cond.or")
			b.cond(x.X, rhs, t)
			b.startBlock(rhs)
			b.cond(x.Y, t, f)
			return
		}
	}
	b.add(e)
	b.jump(t)
	b.jump(f)
	b.terminate()
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	b.takeLabel() // labels on if are goto-only; frame handled by labeledStmt
	if s.Init != nil {
		b.add(s.Init)
	}
	then := b.newBlock("if.then")
	done := b.newBlock("if.done")
	if s.Else != nil {
		els := b.newBlock("if.else")
		b.cond(s.Cond, then, els)
		b.startBlock(els)
		b.stmt(s.Else)
		b.jump(done)
	} else {
		b.cond(s.Cond, then, done)
	}
	b.startBlock(then)
	b.stmtList(s.Body.List)
	b.jump(done)
	b.startBlock(done)
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.newBlock("for.head")
	body := b.newBlock("for.body")
	done := b.newBlock("for.done")
	post := head
	if s.Post != nil {
		post = b.newBlock("for.post")
	}
	b.jump(head)
	b.startBlock(head)
	if s.Cond != nil {
		b.cond(s.Cond, body, done)
	} else {
		b.jump(body)
		b.terminate()
	}
	b.frames = append(b.frames, loopFrame{label: label, breakTo: done, contTo: post})
	b.startBlock(body)
	b.stmtList(s.Body.List)
	b.jump(post)
	if s.Post != nil {
		b.startBlock(post)
		b.add(s.Post)
		b.jump(head)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.startBlock(done)
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt) {
	label := b.takeLabel()
	head := b.newBlock("range.head")
	body := b.newBlock("range.body")
	done := b.newBlock("range.done")
	b.jump(head)
	b.startBlock(head)
	// The range clause only: X evaluation plus key/value binding. The
	// body's statements land in their own block, so analyzers never see
	// them twice.
	b.add(s.X)
	if s.Key != nil {
		b.add(s.Key)
	}
	if s.Value != nil {
		b.add(s.Value)
	}
	b.jump(body)
	b.jump(done)
	b.frames = append(b.frames, loopFrame{label: label, breakTo: done, contTo: head})
	b.startBlock(body)
	b.stmtList(s.Body.List)
	b.jump(head)
	b.frames = b.frames[:len(b.frames)-1]
	b.startBlock(done)
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	b.caseClauses(label, s.Body.List, "switch")
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt) {
	label := b.takeLabel()
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	b.caseClauses(label, s.Body.List, "typeswitch")
}

// caseClauses builds switch/type-switch dispatch: the head fans out to
// every case body (and to done when no default exists), each body falls
// to done, and fallthrough chains to the next body in source order.
func (b *cfgBuilder) caseClauses(label string, clauses []ast.Stmt, kind string) {
	head := b.cur
	done := b.newBlock(kind + ".done")
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		tag := kind + ".case"
		if cc.List == nil {
			tag = kind + ".default"
			hasDefault = true
		}
		bodies[i] = b.newBlock(tag)
		if head != nil {
			head.addSucc(bodies[i])
		}
	}
	if !hasDefault && head != nil {
		head.addSucc(done)
	}
	b.frames = append(b.frames, loopFrame{label: label, breakTo: done})
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.startBlock(bodies[i])
		for _, e := range cc.List {
			b.add(e)
		}
		if i+1 < len(bodies) {
			b.fallTo = bodies[i+1]
		} else {
			b.fallTo = nil
		}
		b.stmtList(cc.Body)
		b.jump(done)
	}
	b.fallTo = nil
	b.frames = b.frames[:len(b.frames)-1]
	b.startBlock(done)
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt) {
	label := b.takeLabel()
	head := b.cur
	done := b.newBlock("select.done")
	b.frames = append(b.frames, loopFrame{label: label, breakTo: done})
	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		tag := "select.case"
		if cc.Comm == nil {
			tag = "select.default"
		}
		body := b.newBlock(tag)
		if head != nil {
			head.addSucc(body)
		}
		b.startBlock(body)
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		b.jump(done)
	}
	b.frames = b.frames[:len(b.frames)-1]
	// A select with no cases blocks forever; with cases, control only
	// leaves through a clause, so the head gets no direct edge to done.
	b.startBlock(done)
}

func (b *cfgBuilder) labeledStmt(s *ast.LabeledStmt) {
	name := s.Label.Name
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	target := b.newBlock("label." + name)
	li.target = target
	for _, src := range li.pending {
		src.addSucc(target)
	}
	li.pending = nil
	b.jump(target)
	b.startBlock(target)
	b.nextLabel = name
	b.stmt(s.Stmt)
	b.nextLabel = ""
}

func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if s.Label == nil || f.label == s.Label.Name {
				b.jump(f.breakTo)
				break
			}
		}
		b.terminate()
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.contTo == nil {
				continue // switch/select: continue refers to the loop outside
			}
			if s.Label == nil || f.label == s.Label.Name {
				b.jump(f.contTo)
				break
			}
		}
		b.terminate()
	case token.GOTO:
		name := s.Label.Name
		li := b.labels[name]
		if li == nil {
			li = &labelInfo{}
			b.labels[name] = li
		}
		if li.target != nil {
			b.jump(li.target)
		} else if b.cur != nil {
			li.pending = append(li.pending, b.cur)
		}
		b.terminate()
	case token.FALLTHROUGH:
		if b.fallTo != nil {
			b.jump(b.fallTo)
		}
		b.terminate()
	}
}
