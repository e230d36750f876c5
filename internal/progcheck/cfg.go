// Package progcheck statically analyses assembled SPARC-subset programs
// before any simulation runs them: it rebuilds the control-flow graph of
// the text section, derives dominators, natural loops and dataflow facts
// (reaching definitions, liveness, definitely-uninitialised reads,
// register-window depth, constant-address range checks), and reports
// machine-readable diagnostics with a line-scoped waiver mechanism
// (progcheck:allow) mirroring the Go-side lint passes in
// internal/analysis. A second layer (bounds.go) turns the same dependence
// information into a static ILP upper bound per machine geometry, the
// limit-study ceiling the experiments compare dynamic trace-scheduling
// IPC against.
//
// Every program source in the repository flows through this checker: the
// built-in workloads are certified clean or explicitly waived, the
// differential oracle certifies each generated program before running it,
// and the blockcheck CLI gates its matrix on it.
package progcheck

import (
	"fmt"

	"dtsvliw/internal/asm"
	"dtsvliw/internal/isa"
)

// Block is one basic block of the reconstructed CFG.
type Block struct {
	Start uint32 // address of the first instruction
	End   uint32 // address one past the last instruction
	Succs []int  // successor block indices, sorted by start address
	Preds []int  // predecessor block indices

	// Reachable is set when the block is reachable from the entry point
	// or an indirect-branch root.
	Reachable bool
	// Idom is the immediate dominator's block index (-1 for roots and
	// unreachable blocks); set by Analyze.
	Idom int
	// CallPad marks the conventionally-dead word after a CALL (returns
	// land at call+8, so call+4 is padding, idiomatically a nop).
	CallPad bool
}

// Len returns the number of instruction words in the block.
func (b *Block) Len() int { return int(b.End-b.Start) / 4 }

// Loop is one natural loop.
type Loop struct {
	Head   int   // header block index
	Blocks []int // member block indices, sorted by start address
}

// CFG is the control-flow graph of a program's text section.
type CFG struct {
	Prog     *asm.Program
	TextBase uint32
	TextEnd  uint32

	// Insts holds the decoded text section in address order; Ok marks the
	// words that decoded successfully.
	Insts []isa.Inst
	Ok    []bool

	Blocks []Block
	Entry  int    // entry block index
	Roots  []int  // entry plus indirect-branch target roots
	Loops  []Loop // natural loops; set by Analyze

	blockOf []int // word index -> block index
}

// InstAt returns the decoded instruction at addr (addr must be a text
// address; ok mirrors CFG.Ok).
func (c *CFG) InstAt(addr uint32) (isa.Inst, bool) {
	i := int(addr-c.TextBase) / 4
	if i < 0 || i >= len(c.Insts) {
		return isa.Inst{}, false
	}
	return c.Insts[i], c.Ok[i]
}

// BlockAt returns the index of the block containing addr (-1 if outside
// the text section).
func (c *CFG) BlockAt(addr uint32) int {
	i := int(addr-c.TextBase) / 4
	if i < 0 || i >= len(c.blockOf) {
		return -1
	}
	return c.blockOf[i]
}

// inText reports whether addr is a word address inside the text section.
func (c *CFG) inText(addr uint32) bool {
	return addr >= c.TextBase && addr < c.TextEnd && addr%4 == 0
}

// isReturn reports whether in is a function return: JMPL discarding the
// link (rd=%g0) through %o7 or %i7 (the retl/ret idioms).
func isReturn(in *isa.Inst) bool {
	return in.Op == isa.OpJMPL && in.Rd == 0 && (in.Rs1 == 15 || in.Rs1 == 31)
}

// isExitTrap reports whether in is the simulator's halt trap (ta 0 with a
// constant operand: trap number 0 = TrapExit).
func isExitTrap(in *isa.Inst) bool {
	return in.Op == isa.OpTICC && in.Cond == isa.CondA &&
		in.UseImm && in.Imm == 0 && in.Rs1 == 0
}

// succAddrs appends the static successor addresses of the instruction at
// addr. Indirect jumps contribute no static successors; their possible
// targets enter the graph as roots (see indirectRoots).
func succAddrs(in *isa.Inst, ok bool, addr uint32, out []uint32) []uint32 {
	if !ok {
		return out // undecodable: no defined continuation
	}
	switch in.Op {
	case isa.OpTICC:
		if isExitTrap(in) {
			return out
		}
		return append(out, addr+4) // OS-model traps return to the next word
	case isa.OpCALL:
		// Returns land at call+8 (retl = jmpl %o7+8): the callee and the
		// return point are both successors; call+4 is dead padding.
		return append(out, in.BranchTarget(addr), addr+8)
	case isa.OpJMPL:
		if isReturn(in) {
			return out // flows back to the matching call site's +8 edge
		}
		if in.Rd == 15 {
			return append(out, addr+8) // indirect call: returns to +8
		}
		return out // indirect jump: targets come from indirectRoots
	case isa.OpBICC, isa.OpFBFCC:
		switch in.Cond {
		case isa.CondN:
			return append(out, addr+4)
		case isa.CondA:
			return append(out, in.BranchTarget(addr))
		default:
			return append(out, in.BranchTarget(addr), addr+4)
		}
	}
	return append(out, addr+4)
}

// endsBlock reports whether the instruction terminates a basic block.
func endsBlock(in *isa.Inst, ok bool) bool {
	if !ok {
		return true
	}
	switch in.Op {
	case isa.OpCALL, isa.OpJMPL, isa.OpTICC:
		return true
	case isa.OpBICC, isa.OpFBFCC:
		return in.Cond != isa.CondN // branch-never is a fall-through nop
	}
	return false
}

// indirectRoots scans the non-text sections for word-aligned values that
// land in the text section: jump-table entries and stored function
// pointers. They become CFG roots with unknown machine state, so code
// reached only through indirect branches is neither reported unreachable
// nor analysed with a misleadingly-precise entry state. Text words are
// not scanned: small instruction encodings would masquerade as addresses.
func indirectRoots(p *asm.Program, textBase, textEnd uint32) []uint32 {
	var roots []uint32
	for _, s := range p.Sections {
		if s.Addr == textBase {
			continue
		}
		for i := 0; i+4 <= len(s.Bytes); i += 4 {
			v := uint32(s.Bytes[i])<<24 | uint32(s.Bytes[i+1])<<16 |
				uint32(s.Bytes[i+2])<<8 | uint32(s.Bytes[i+3])
			if v >= textBase && v < textEnd && v%4 == 0 {
				roots = append(roots, v)
			}
		}
	}
	return roots
}

// BuildCFG decodes the program's text section and constructs its CFG:
// basic blocks, branch edges and reachability from the entry and indirect
// roots — everything the structural pass needs. Immediate dominators and
// natural loops are derived by Analyze, because certification never reads
// them.
func BuildCFG(p *asm.Program) *CFG {
	c := &CFG{Prog: p, TextBase: p.TextBase, TextEnd: p.TextBase + p.TextSize}
	var text []byte
	for _, s := range p.Sections {
		if s.Addr == p.TextBase {
			text = s.Bytes
		}
	}
	n := len(text) / 4
	c.Insts = make([]isa.Inst, n)
	c.Ok = make([]bool, n)
	for i := 0; i < n; i++ {
		raw := uint32(text[4*i])<<24 | uint32(text[4*i+1])<<16 |
			uint32(text[4*i+2])<<8 | uint32(text[4*i+3])
		in, err := isa.Decode(raw)
		if err == nil {
			c.Insts[i] = in
			c.Ok[i] = true
		} else {
			c.Insts[i] = isa.Inst{Raw: raw}
		}
	}
	if n == 0 {
		c.Entry = -1
		return c
	}

	roots := append([]uint32{p.Entry}, indirectRoots(p, c.TextBase, c.TextEnd)...)

	// Leaders: the roots, every static successor of a block-ending
	// instruction, and the word after one (so padding after calls starts
	// its own block).
	leader := make([]bool, n)
	callPad := make([]bool, n)
	for _, r := range roots {
		if c.inText(r) {
			leader[(r-c.TextBase)/4] = true
		}
	}
	var scratch []uint32
	for i := 0; i < n; i++ {
		addr := c.TextBase + uint32(4*i)
		in := &c.Insts[i]
		if !endsBlock(in, c.Ok[i]) {
			continue
		}
		if i+1 < n {
			leader[i+1] = true
			if c.Ok[i] && in.Op == isa.OpCALL {
				callPad[i+1] = true
			}
		}
		scratch = succAddrs(in, c.Ok[i], addr, scratch[:0])
		for _, s := range scratch {
			if c.inText(s) {
				leader[(s-c.TextBase)/4] = true
			}
		}
	}

	// Blocks.
	c.blockOf = make([]int, n)
	start := 0
	flush := func(end int) {
		c.Blocks = append(c.Blocks, Block{
			Start:   c.TextBase + uint32(4*start),
			End:     c.TextBase + uint32(4*end),
			Idom:    -1,
			CallPad: callPad[start] && end == start+1,
		})
		for i := start; i < end; i++ {
			c.blockOf[i] = len(c.Blocks) - 1
		}
		start = end
	}
	for i := 0; i < n; i++ {
		if i > start && leader[i] {
			flush(i)
		}
		if endsBlock(&c.Insts[i], c.Ok[i]) {
			flush(i + 1)
		}
	}
	if start < n {
		flush(n)
	}

	// Edges.
	for bi := range c.Blocks {
		b := &c.Blocks[bi]
		last := int(b.End-c.TextBase)/4 - 1
		lastAddr := b.End - 4
		in := &c.Insts[last]
		if !endsBlock(in, c.Ok[last]) && c.Ok[last] {
			// Block was split by a leader: fall through.
			if c.inText(b.End) {
				b.Succs = append(b.Succs, c.blockOf[(b.End-c.TextBase)/4])
			}
		} else {
			scratch = succAddrs(in, c.Ok[last], lastAddr, scratch[:0])
			for _, s := range scratch {
				if c.inText(s) {
					b.Succs = append(b.Succs, c.blockOf[(s-c.TextBase)/4])
				}
			}
		}
		b.Succs = dedupInts(b.Succs)
	}
	for bi := range c.Blocks {
		for _, s := range c.Blocks[bi].Succs {
			c.Blocks[s].Preds = append(c.Blocks[s].Preds, bi)
		}
	}

	// Reachability from the roots.
	c.Entry = c.BlockAt(p.Entry)
	seenRoot := map[int]bool{}
	for _, r := range roots {
		if bi := c.BlockAt(r); bi >= 0 && !seenRoot[bi] {
			seenRoot[bi] = true
			c.Roots = append(c.Roots, bi)
		}
	}
	work := append([]int(nil), c.Roots...)
	for _, bi := range work {
		c.Blocks[bi].Reachable = true
	}
	for len(work) > 0 {
		bi := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range c.Blocks[bi].Succs {
			if !c.Blocks[s].Reachable {
				c.Blocks[s].Reachable = true
				work = append(work, s)
			}
		}
	}

	return c
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for _, x := range xs {
		dup := false
		for _, y := range out {
			if x == y {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, x)
		}
	}
	return out
}

// computeDominators runs the iterative dominator algorithm (Cooper,
// Harvey, Kennedy) over the reachable subgraph, with a virtual super-root
// over all roots so indirect entry points are handled uniformly.
func (c *CFG) computeDominators() {
	// Reverse postorder over reachable blocks from the roots.
	var order []int
	state := make([]uint8, len(c.Blocks)) // 0 unvisited, 1 on stack, 2 done
	var dfs func(int)
	dfs = func(bi int) {
		state[bi] = 1
		for _, s := range c.Blocks[bi].Succs {
			if state[s] == 0 {
				dfs(s)
			}
		}
		state[bi] = 2
		order = append(order, bi)
	}
	for _, r := range c.Roots {
		if state[r] == 0 {
			dfs(r)
		}
	}
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoIndex := make([]int, len(c.Blocks))
	for i := range rpoIndex {
		rpoIndex[i] = -1
	}
	for i, bi := range order {
		rpoIndex[bi] = i
	}

	const root = -2 // virtual super-root dominating every real root
	idom := make([]int, len(c.Blocks))
	for i := range idom {
		idom[i] = -1 // undefined
	}
	for _, r := range c.Roots {
		idom[r] = root
	}
	intersect := func(a, b int) int {
		for a != b {
			if a == root || b == root {
				return root
			}
			if rpoIndex[a] > rpoIndex[b] {
				a = idom[a]
			} else {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, bi := range order {
			if idom[bi] == root {
				continue
			}
			newIdom := -1
			for _, p := range c.Blocks[bi].Preds {
				if idom[p] == -1 {
					continue // predecessor not yet processed / unreachable
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if newIdom != -1 && idom[bi] != newIdom {
				idom[bi] = newIdom
				changed = true
			}
		}
	}
	for bi := range c.Blocks {
		if idom[bi] == root || idom[bi] == -1 {
			c.Blocks[bi].Idom = -1
		} else {
			c.Blocks[bi].Idom = idom[bi]
		}
	}
}

// Dominates reports whether block a dominates block b (both must be
// reachable; every root dominates only itself upward).
func (c *CFG) Dominates(a, b int) bool {
	for b != -1 {
		if a == b {
			return true
		}
		b = c.Blocks[b].Idom
	}
	return false
}

// findLoops detects natural loops: for every back edge t->h where h
// dominates t, the loop body is h plus every block that reaches t without
// passing h. Loops sharing a header are merged.
func (c *CFG) findLoops() {
	bodies := map[int]map[int]bool{} // header -> member set
	var headers []int
	for t := range c.Blocks {
		if !c.Blocks[t].Reachable {
			continue
		}
		for _, h := range c.Blocks[t].Succs {
			if !c.Dominates(h, t) {
				continue
			}
			body := bodies[h]
			if body == nil {
				body = map[int]bool{h: true}
				bodies[h] = body
				headers = append(headers, h)
			}
			// Walk predecessors backwards from t, stopping at h.
			stack := []int{t}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if body[b] {
					continue
				}
				body[b] = true
				for _, p := range c.Blocks[b].Preds {
					if c.Blocks[p].Reachable {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	// Deterministic order: headers by start address.
	for i := 0; i < len(headers); i++ {
		for j := i + 1; j < len(headers); j++ {
			if c.Blocks[headers[j]].Start < c.Blocks[headers[i]].Start {
				headers[i], headers[j] = headers[j], headers[i]
			}
		}
	}
	for _, h := range headers {
		var members []int
		for b := range bodies[h] { //determinism:allow sorted below
			members = append(members, b)
		}
		for i := 0; i < len(members); i++ {
			for j := i + 1; j < len(members); j++ {
				if c.Blocks[members[j]].Start < c.Blocks[members[i]].Start {
					members[i], members[j] = members[j], members[i]
				}
			}
		}
		c.Loops = append(c.Loops, Loop{Head: h, Blocks: members})
	}
}

// structural emits the CFG-level diagnostics: undecodable reachable
// words, direct branches out of the text section, reachable paths falling
// off the end of text, and unreachable blocks.
func (c *CFG) structural() []Diagnostic {
	var ds []Diagnostic
	report := func(k Kind, addr uint32, format string, args ...interface{}) {
		ds = append(ds, Diagnostic{Kind: k, Addr: addr, Line: c.Prog.LineOf(addr),
			Msg: fmt.Sprintf(format, args...)})
	}
	var scratch []uint32
	for bi := range c.Blocks {
		b := &c.Blocks[bi]
		if !b.Reachable {
			if b.CallPad || c.allNop(b) {
				continue // idiomatic padding after calls / alignment nops
			}
			report(KindUnreachable, b.Start,
				"block %#x..%#x is unreachable from the entry point and all indirect roots",
				b.Start, b.End)
			continue
		}
		last := int(b.End-c.TextBase)/4 - 1
		lastAddr := b.End - 4
		for i := int(b.Start-c.TextBase) / 4; i <= last; i++ {
			if !c.Ok[i] {
				addr := c.TextBase + uint32(4*i)
				report(KindUndecodable, addr,
					"reachable word %#08x does not decode as a SPARC-subset instruction",
					c.Insts[i].Raw)
			}
		}
		in := &c.Insts[last]
		if !c.Ok[last] {
			continue
		}
		// Direct CTI targets must stay in text.
		switch in.Op {
		case isa.OpCALL, isa.OpBICC, isa.OpFBFCC:
			if in.Op != isa.OpCALL && in.Cond == isa.CondN {
				break
			}
			if t := in.BranchTarget(lastAddr); !c.inText(t) {
				report(KindBranchOutOfText, lastAddr,
					"%s targets %#x, outside text [%#x, %#x)",
					in.Op, t, c.TextBase, c.TextEnd)
			}
		}
		// Fall-through (and call-return) continuations must stay in text;
		// branch targets out of text are already reported above.
		scratch = succAddrs(in, true, lastAddr, scratch[:0])
		if !endsBlock(in, true) {
			scratch = append(scratch[:0], b.End)
		}
		for _, s := range scratch {
			if (s == lastAddr+4 || s == lastAddr+8) && s >= c.TextEnd {
				report(KindFallOffEnd, lastAddr,
					"execution can run past the end of text (%#x) after this instruction", c.TextEnd)
			}
		}
	}
	return ds
}

// allNop reports whether every instruction of the block is an
// architectural nop.
func (c *CFG) allNop(b *Block) bool {
	for i := int(b.Start-c.TextBase) / 4; i < int(b.End-c.TextBase)/4; i++ {
		if !c.Ok[i] || !c.Insts[i].IsNop() {
			return false
		}
	}
	return true
}
