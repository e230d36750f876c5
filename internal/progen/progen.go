// Package progen generates random, terminating SPARC V7 programs for
// property-based testing. Every generated program halts with a checksum,
// and its sequential execution is the oracle: the lockstep test machine
// must agree with the DTSVLIW at every synchronisation point.
//
// The generator deliberately produces the hazards the DTSVLIW must handle:
// tight dependence chains, store/load pairs whose addresses collide only
// on some paths (aliasing), deeply nested counted loops (trace reuse and
// exits), calls through register windows, condition-code recycling,
// floating-point flows, and non-schedulable trap instructions that flush
// the scheduling list.
package progen

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
)

// Shape selects a program-shape bias: which hazard family the generator
// concentrates on. The differential oracle (internal/oracle) sweeps every
// shape; ShapeMixed is the historical balanced default.
type Shape uint8

// Program shapes.
const (
	// ShapeMixed is the balanced hazard mix (the original generator).
	ShapeMixed Shape = iota
	// ShapeBranchy concentrates on control flow: dense conditional
	// branches sharing condition codes (several branches per block, tag
	// annulment), nested loops and calls.
	ShapeBranchy
	// ShapeAliasing concentrates on memory: store/load pairs whose
	// data-dependent addresses collide only on some paths, and mixed-size
	// accesses that partially overlap.
	ShapeAliasing
	// ShapeMulticycle concentrates on latency: dependent floating-point
	// chains, divisions and load-use sequences, exercising the multicycle
	// scheduling and delayed-commit machinery.
	ShapeMulticycle

	numShapes
)

func (s Shape) String() string {
	switch s {
	case ShapeMixed:
		return "mixed"
	case ShapeBranchy:
		return "branchy"
	case ShapeAliasing:
		return "aliasing"
	case ShapeMulticycle:
		return "multicycle"
	}
	return fmt.Sprintf("shape(%d)", uint8(s))
}

// Shapes lists every program shape.
func Shapes() []Shape {
	out := make([]Shape, numShapes)
	for i := range out {
		out[i] = Shape(i)
	}
	return out
}

// ShapeByName resolves a shape name ("mixed", "branchy", "aliasing",
// "multicycle").
func ShapeByName(name string) (Shape, bool) {
	for _, s := range Shapes() {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// Params controls generation.
type Params struct {
	Seed     int64
	Items    int // top-level statement budget
	MaxDepth int // loop/call nesting bound
	Shape    Shape
	// Mem enables load/store generation; FP enables floating point;
	// Calls enables function calls; Traps enables putchar traps.
	Mem, FP, Calls, Traps bool
}

// DefaultParams returns a balanced workload for the given seed.
func DefaultParams(seed int64) Params {
	return Params{Seed: seed, Items: 40, MaxDepth: 3, Mem: true, FP: true, Calls: true, Traps: true}
}

// ShapeParams returns tuned parameters for the given shape and seed.
func ShapeParams(s Shape, seed int64) Params {
	p := DefaultParams(seed)
	p.Shape = s
	switch s {
	case ShapeBranchy:
		p.Items = 55
		p.FP = false
		p.Traps = false
	case ShapeAliasing:
		p.Items = 55
		p.FP = false
		p.Calls = false
		p.Traps = false
	case ShapeMulticycle:
		p.Items = 50
		p.Calls = false
		p.Traps = false
	}
	return p
}

type gen struct {
	rng   *rand.Rand
	p     Params
	w     *strings.Builder // where emit writes: body, or funcs inside genFunc
	body  strings.Builder
	funcs strings.Builder // function bodies, appended after the main body
	label int
}

// Generate produces the assembly source of a random terminating program.
func Generate(p Params) string {
	g := &gen{rng: rand.New(rand.NewSource(p.Seed)), p: p}
	g.w = &g.body
	// About the 90th-percentile program size of every shape, so the body
	// is allocated once per program rather than regrown line by line.
	g.body.Grow(1024 + 160*p.Items)
	return g.program()
}

// Scratch integer registers usable inside one window. %l4..%l7 are loop
// counters (one per nesting depth), %g6/%g7 are address scratch, %o6/%o7
// and %i6/%i7 are stack/return linkage.
var pool = []string{"%g1", "%g2", "%g3", "%g4", "%o0", "%o1", "%o2", "%o3", "%o4", "%o5",
	"%l0", "%l1", "%l2", "%l3", "%i0", "%i1", "%i2", "%i3", "%i4", "%i5"}

func (g *gen) reg() string { return pool[g.rng.Intn(len(pool))] }

func (g *gen) newLabel(prefix string) string {
	g.label++
	var buf [32]byte
	b := append(append(buf[:0], prefix...), '_')
	return string(strconv.AppendInt(b, int64(g.label), 10))
}

// emit writes one instruction line: a tab, format expanded by put, and a
// newline.
func (g *gen) emit(format string, args ...any) {
	g.w.WriteByte('\t')
	g.put(format, args)
	g.w.WriteByte('\n')
}

// labelLine writes a label definition line.
func (g *gen) labelLine(lbl string) {
	g.w.WriteString(lbl)
	g.w.WriteString(":\n")
}

// put expands format with the only verbs the generator uses — %s
// (string), %d (integer), %#x (integer as 0x-prefixed lower-case hex)
// and %% — exactly as fmt would. Expanding them here rather
// than through fmt keeps args on the caller's stack, so emitting a line
// does not allocate.
func (g *gen) put(format string, args []any) {
	var num [24]byte
	for {
		i := strings.IndexByte(format, '%')
		if i < 0 {
			g.w.WriteString(format)
			return
		}
		g.w.WriteString(format[:i])
		verb := format[i+1]
		format = format[i+2:]
		switch verb {
		case '%':
			g.w.WriteByte('%')
			continue
		case 's':
			g.w.WriteString(args[0].(string))
		case 'd':
			g.w.Write(strconv.AppendInt(num[:0], intArg(args[0]), 10))
		case '#':
			if format == "" || format[0] != 'x' {
				panic("progen: unsupported verb %#" + format)
			}
			format = format[1:]
			v := intArg(args[0])
			if v < 0 {
				g.w.WriteByte('-')
				v = -v
			}
			g.w.WriteString("0x")
			g.w.Write(strconv.AppendUint(num[:0], uint64(v), 16))
		default:
			panic("progen: unsupported verb %" + string(verb))
		}
		args = args[1:]
	}
}

// intArg returns an integer argument of put.
func intArg(a any) int64 {
	switch v := a.(type) {
	case int:
		return int64(v)
	case int32:
		return int64(v)
	case uint32:
		return int64(v)
	}
	panic("progen: put argument is not an integer")
}

func (g *gen) program() string {
	g.w.WriteString("\t.data 0x40000\nbuf:\t.space 256\nfbuf:")
	for i := 0; i < 16; i++ {
		g.emit(".word %#x", g.rng.Uint32()&0x3FFFFFFF|0x3F000000)
	}
	g.w.WriteString("\t.text 0x1000\nstart:\n")
	// Seed registers with deterministic junk.
	for _, r := range pool {
		g.emit("set %d, %s", g.rng.Int31n(1<<20), r)
	}
	g.emit("set buf, %%g6")
	if g.p.FP {
		g.emit("set fbuf, %%g7")
		for i := 0; i < 8; i += 2 {
			g.emit("ldf [%%g7+%d], %%f%d", 4*i, i)
		}
	}
	// Pre-generate callable functions so calls have targets.
	if g.p.Calls {
		for i := 0; i < 3; i++ {
			g.genFunc(i)
		}
	}
	for i := 0; i < g.p.Items; i++ {
		g.item(0)
	}
	// Checksum: fold the register pool into %o0 and exit.
	g.emit("mov 0, %%o0")
	for _, r := range pool[:8] {
		g.emit("xor %%o0, %s, %%o0", r)
	}
	g.emit("ta 0")
	g.body.WriteString(g.funcs.String())
	return g.body.String()
}

// item emits one random statement at the given nesting depth, with the
// distribution of the configured shape.
func (g *gen) item(depth int) {
	switch g.p.Shape {
	case ShapeBranchy:
		g.branchyItem(depth)
	case ShapeAliasing:
		g.aliasingItem(depth)
	case ShapeMulticycle:
		g.multicycleItem(depth)
	default:
		g.mixedItem(depth)
	}
}

// mixedItem is the balanced historical distribution (ShapeMixed).
func (g *gen) mixedItem(depth int) {
	roll := g.rng.Intn(100)
	switch {
	case roll < 40:
		g.alu()
	case roll < 60 && g.p.Mem:
		g.memOp()
	case roll < 68:
		g.condSkip(depth)
	case roll < 80 && depth < g.p.MaxDepth:
		g.loop(depth)
	case roll < 86 && g.p.Calls && depth < g.p.MaxDepth:
		g.emit("call fn_%d", g.rng.Intn(3))
		g.emit("nop")
	case roll < 90 && g.p.FP:
		g.fpOp()
	case roll < 93 && g.p.Traps:
		g.emit("and %s, 63, %%o0", g.reg())
		g.emit("add %%o0, 48, %%o0")
		g.emit("ta 1")
	case roll < 96:
		g.emit("nop")
	default:
		g.mulStep()
	}
}

// branchyItem biases towards control flow: conditional skips, paired
// branches over one set of condition codes (several branches per long
// instruction, exercising tag annulment) and nested loops.
func (g *gen) branchyItem(depth int) {
	roll := g.rng.Intn(100)
	switch {
	case roll < 30:
		g.condSkip(depth)
	case roll < 50:
		g.ccBranchPair()
	case roll < 70 && depth < g.p.MaxDepth:
		g.loop(depth)
	case roll < 78 && g.p.Calls && depth < g.p.MaxDepth:
		g.emit("call fn_%d", g.rng.Intn(3))
		g.emit("nop")
	case roll < 95:
		g.alu()
	default:
		g.mulStep()
	}
}

// aliasingItem biases towards memory hazards: reorderable store/load
// pairs whose runtime addresses sometimes collide, partially overlapping
// mixed-size accesses, and plain memory traffic.
func (g *gen) aliasingItem(depth int) {
	roll := g.rng.Intn(100)
	switch {
	case roll < 30:
		g.aliasPair()
	case roll < 45:
		g.overlapMem()
	case roll < 65:
		g.memOp()
	case roll < 75 && depth < g.p.MaxDepth:
		g.loop(depth)
	case roll < 83:
		g.condSkip(depth)
	default:
		g.alu()
	}
}

// multicycleItem biases towards latency: dependent floating-point chains
// (including division) and load-use sequences whose consumers sit inside
// the producer's latency shadow.
func (g *gen) multicycleItem(depth int) {
	roll := g.rng.Intn(100)
	switch {
	case roll < 30 && g.p.FP:
		g.fpChain()
	case roll < 50 && g.p.Mem:
		g.loadUse()
	case roll < 62 && g.p.FP:
		g.fpOp()
	case roll < 72 && depth < g.p.MaxDepth:
		g.loop(depth)
	case roll < 80:
		g.condSkip(depth)
	default:
		g.alu()
	}
}

// Operand vocabularies the statement generators draw from.
var (
	aluOps = []string{"add", "sub", "and", "or", "xor", "andn", "orn", "xnor",
		"addcc", "subcc", "andcc", "orcc", "xorcc", "sll", "srl", "sra",
		"addx", "subx"}
	memSizes = []struct {
		ld, st string
		mask   int
	}{{"ld", "st", 0xFC}, {"ldub", "stb", 0xFF}, {"lduh", "sth", 0xFE}, {"ldsb", "stb", 0xFF}, {"ldsh", "sth", 0xFE}}
	conds  = []string{"e", "ne", "g", "le", "ge", "l", "gu", "leu", "cc", "cs", "pos", "neg"}
	fconds = []string{"e", "ne", "l", "g", "le", "ge"}
	fpOps  = []string{"fadds", "fsubs", "fmuls"}
)

// alu emits a random integer ALU instruction.
func (g *gen) alu() {
	op := aluOps[g.rng.Intn(len(aluOps))]
	rd := g.reg()
	rs1 := g.reg()
	if g.rng.Intn(2) == 0 {
		imm := g.rng.Int31n(256)
		if strings.HasPrefix(op, "s") && (op[1] == 'l' || op[1] == 'r') {
			imm = g.rng.Int31n(32)
		}
		g.emit("%s %s, %d, %s", op, rs1, imm, rd)
	} else {
		g.emit("%s %s, %s, %s", op, rs1, g.reg(), rd)
	}
}

// memOp emits a load or store confined to buf, with data-dependent
// addressing so schedule-time and run-time addresses can differ. The
// address register is drawn from the pool so that independent memory
// operations can be reordered by the scheduler (the precondition for
// runtime aliasing).
func (g *gen) memOp() {
	sz := memSizes[g.rng.Intn(len(memSizes))]
	ra := g.reg()
	if g.rng.Intn(3) == 0 {
		// Fixed offset: collides with data-dependent addresses sometimes.
		g.emit("mov %d, %s", int(g.rng.Int31n(64))&sz.mask, ra)
	} else {
		g.emit("and %s, %#x, %s", g.reg(), sz.mask, ra)
	}
	if g.rng.Intn(2) == 0 {
		g.emit("%s [%%g6+%s], %s", sz.ld, ra, g.reg())
	} else {
		g.emit("%s %s, [%%g6+%s]", sz.st, g.reg(), ra)
	}
}

// condSkip emits a compare and a conditional forward branch over a few
// instructions.
func (g *gen) condSkip(depth int) {
	lbl := g.newLabel("skip")
	g.emit("cmp %s, %s", g.reg(), g.reg())
	g.emit("b%s %s", conds[g.rng.Intn(len(conds))], lbl)
	n := 1 + g.rng.Intn(3)
	for i := 0; i < n; i++ {
		g.alu()
	}
	g.labelLine(lbl)
}

// loop emits a counted loop using the per-depth counter register.
func (g *gen) loop(depth int) {
	ctr := "%l" + strconv.Itoa(4+depth)
	lbl := g.newLabel("loop")
	iters := 1 + g.rng.Intn(6)
	g.emit("mov %d, %s", iters, ctr)
	g.labelLine(lbl)
	n := 1 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		g.item(depth + 1)
	}
	g.emit("subcc %s, 1, %s", ctr, ctr)
	g.emit("bg %s", lbl)
}

// fpOp emits floating-point arithmetic over %f0..%f7 plus an fcc branch.
func (g *gen) fpOp() {
	f := func() int { return g.rng.Intn(8) }
	g.emit("%s %%f%d, %%f%d, %%f%d", fpOps[g.rng.Intn(len(fpOps))], f(), f(), f())
	if g.rng.Intn(3) == 0 {
		lbl := g.newLabel("fskip")
		g.emit("fcmps %%f%d, %%f%d", f(), f())
		g.emit("fb%s %s", fconds[g.rng.Intn(len(fconds))], lbl)
		g.alu()
		g.labelLine(lbl)
	}
	if g.rng.Intn(4) == 0 {
		g.emit("fstoi %%f%d, %%f%d", f(), f())
		g.emit("fitos %%f%d, %%f%d", f(), f())
	}
}

// ccBranchPair emits one compare followed by two conditional branches
// consuming the same condition codes, so blocks carry several branches and
// the VLIW Engine's tag system must annul correctly on either deviation.
func (g *gen) ccBranchPair() {
	g.emit("cmp %s, %s", g.reg(), g.reg())
	l1 := g.newLabel("bp")
	g.emit("b%s %s", conds[g.rng.Intn(len(conds))], l1)
	g.alu()
	g.labelLine(l1)
	l2 := g.newLabel("bp")
	g.emit("b%s %s", conds[g.rng.Intn(len(conds))], l2)
	g.alu()
	g.alu()
	g.labelLine(l2)
}

// aliasPair emits a store through a data-dependent pointer next to a load
// (or store) at a fixed offset: the scheduler sees one pair of addresses
// at schedule time, the VLIW Engine may see another at run time, and the
// two collide only on some paths — the paper's §3.10 aliasing hazard.
func (g *gen) aliasPair() {
	ra := g.reg()
	g.emit("and %s, 0xFC, %s", g.reg(), ra)
	fixed := 4 * g.rng.Intn(64)
	switch g.rng.Intn(3) {
	case 0:
		g.emit("st %s, [%%g6+%s]", g.reg(), ra)
		g.emit("ld [%%g6+%d], %s", fixed, g.reg())
	case 1:
		g.emit("st %s, [%%g6+%d]", g.reg(), fixed)
		g.emit("ld [%%g6+%s], %s", ra, g.reg())
	default:
		g.emit("st %s, [%%g6+%s]", g.reg(), ra)
		g.emit("st %s, [%%g6+%d]", g.reg(), fixed)
	}
}

// overlapMem emits mixed-size accesses to nearby offsets so that byte and
// halfword operations partially overlap a word slot (the address-overlap
// comparisons of the load/store lists are range checks, not equality).
func (g *gen) overlapMem() {
	base := 4 * g.rng.Intn(8)
	g.emit("st %s, [%%g6+%d]", g.reg(), base)
	g.emit("stb %s, [%%g6+%d]", g.reg(), base+g.rng.Intn(4))
	g.emit("ld [%%g6+%d], %s", base, g.reg())
	g.emit("ldsh [%%g6+%d], %s", base+2*g.rng.Intn(2), g.reg())
}

// loadUse emits a load immediately consumed by ALU instructions, placing
// the consumers inside the load's latency shadow under the multicycle
// configurations.
func (g *gen) loadUse() {
	ra := g.reg()
	g.emit("and %s, 0xFC, %s", g.reg(), ra)
	rd := g.reg()
	g.emit("ld [%%g6+%s], %s", ra, rd)
	g.emit("add %s, %s, %s", rd, g.reg(), g.reg())
	if g.rng.Intn(2) == 0 {
		g.emit("xorcc %s, %s, %s", rd, g.reg(), g.reg())
	}
}

// fpChain emits a dependent floating-point chain, occasionally ending in a
// division or a compare, so multicycle FP latencies stack up on one value.
func (g *gen) fpChain() {
	f := func() int { return g.rng.Intn(8) }
	d := f()
	g.emit("%s %%f%d, %%f%d, %%f%d", fpOps[g.rng.Intn(len(fpOps))], f(), f(), d)
	g.emit("%s %%f%d, %%f%d, %%f%d", fpOps[g.rng.Intn(len(fpOps))], d, f(), d)
	if g.rng.Intn(3) == 0 {
		g.emit("fdivs %%f%d, %%f%d, %%f%d", f(), d, f())
	}
	if g.rng.Intn(3) == 0 {
		lbl := g.newLabel("fchain")
		g.emit("fcmps %%f%d, %%f%d", d, f())
		g.emit("fb%s %s", fconds[g.rng.Intn(len(fconds))], lbl)
		g.alu()
		g.labelLine(lbl)
	}
}

// mulStep emits a short multiply-step sequence exercising the Y register.
func (g *gen) mulStep() {
	g.emit("wr %s, 0, %%y", g.reg())
	g.emit("andcc %%g0, 0, %%g0")
	rd := g.reg()
	for i := 0; i < 2+g.rng.Intn(3); i++ {
		g.emit("mulscc %s, %s, %s", rd, g.reg(), rd)
	}
	g.emit("rd %%y, %s", g.reg())
}

// genFunc emits one callable function with a random body. Functions use a
// fresh register window, may call lower-numbered functions, and return
// through %i7.
func (g *gen) genFunc(idx int) {
	g.w = &g.funcs
	g.put("fn_%d:\n", []any{idx})
	g.emit("save %%sp, -96, %%sp")
	n := 2 + g.rng.Intn(5)
	for i := 0; i < n; i++ {
		roll := g.rng.Intn(10)
		switch {
		case roll < 5:
			g.alu()
		case roll < 7 && g.p.Mem:
			g.memOp()
		case roll < 8 && idx > 0:
			g.emit("call fn_%d", g.rng.Intn(idx))
			g.emit("nop")
		default:
			g.condSkip(g.p.MaxDepth)
		}
	}
	g.emit("restore %%o0, 0, %%o0")
	g.emit("retl")
	g.w = &g.body
}
