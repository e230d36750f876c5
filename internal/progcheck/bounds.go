package progcheck

import (
	"fmt"
	"math"

	"dtsvliw/internal/isa"
)

// BoundParams is the machine model the static ILP bound is computed
// against: block geometry, the per-slot functional-unit classes (nil =
// homogeneous) and the multicycle latency knobs, mirroring core.Config.
type BoundParams struct {
	Width, Height int
	FUs           []isa.FUClass
	LoadLatency   int
	FPLatency     int
	FPDivLatency  int
}

// latency returns the instruction's execution latency under the params
// (minimum 1, like sched.Config.Latency).
func (p *BoundParams) latency(in *isa.Inst) int {
	l := 1
	switch in.LatencyClass() {
	case isa.LatLoad:
		l = p.LoadLatency
	case isa.LatFP:
		l = p.FPLatency
	case isa.LatFPDiv:
		l = p.FPDivLatency
	}
	if l < 1 {
		l = 1
	}
	return l
}

// classCapacity returns how many slots of one long instruction can hold
// an instruction of each functional-unit class (dedicated slots plus the
// FUAny wildcards; sharing of wildcards across classes is ignored, which
// over-approximates capacity and keeps the bound an upper bound).
func (p *BoundParams) classCapacity() [4]int {
	var caps [4]int
	if p.FUs == nil {
		for i := range caps {
			caps[i] = p.Width
		}
		return caps
	}
	anyCount := 0
	for _, c := range p.FUs {
		if c == isa.FUAny {
			anyCount++
		} else if int(c) < 4 {
			caps[c]++
		}
	}
	for i := range caps {
		caps[i] += anyCount
	}
	return caps
}

// dropped reports whether the Scheduler Unit removes the instruction from
// the trace without consuming a slot: nops and unconditional direct
// branches (paper §3.9). They still retire sequentially, so they count in
// the bound's instruction numerator but not against slot capacity or the
// critical path.
func dropped(in *isa.Inst) bool { return in.IsNop() || in.IsUncondBranch() }

// RegionKind labels what a bound region was derived from.
type RegionKind string

// Region kinds.
const (
	RegionLoop  RegionKind = "loop"
	RegionChain RegionKind = "chain"
)

// RegionBound is the static ILP analysis of one program region.
type RegionBound struct {
	Kind  RegionKind `json:"kind"`
	Start uint32     `json:"start"` // head address
	Line  int        `json:"line"`  // source line of the head
	// Instrs counts every instruction of one region instance (loop
	// iteration or chain pass); Sched counts the slot-occupying subset.
	Instrs int `json:"instrs"`
	Sched  int `json:"sched"`
	// CritPath is the dependence-DAG critical path of one instance under
	// the latency model; Rho is the per-iteration recurrence length of a
	// loop (critical-path growth from one iteration to the next through
	// loop-carried register/cc dependences), 0 for chains.
	CritPath int `json:"crit_path"`
	Rho      int `json:"rho"`
	// IPC is the region's static IPC upper bound.
	IPC float64 `json:"ipc"`
}

// Bound is the static ILP upper bound of one program under one machine
// model.
type Bound struct {
	Params  BoundParams   `json:"params"`
	Regions []RegionBound `json:"regions"`
	// IPC is the program-level static upper bound: the best region bound,
	// floored at 1.0 (Primary Processor execution retires at most one
	// instruction per cycle, so a program can always be driven at up to
	// IPC 1 outside its analysable regions).
	IPC float64 `json:"ipc"`
}

// depTracker computes critical paths by earliest-finish propagation over
// true register/condition dependences. Memory dependences are ignored on
// purpose: the DTSVLIW may speculate loads past stores (paper §3.10), so
// leaving them out only raises the bound, keeping it an upper bound.
type depTracker struct {
	finish [numLocs]int // earliest finish cycle of the last writer
	cp     int
}

func (t *depTracker) step(in *isa.Inst, p *BoundParams) {
	if dropped(in) {
		return
	}
	var rbuf, wbuf [8]uint8
	reads, writes := footprint(in, rbuf[:0], wbuf[:0])
	start := 0
	for _, r := range reads {
		if r != 0 && t.finish[r] > start {
			start = t.finish[r]
		}
	}
	fin := start + p.latency(in)
	for _, w := range writes {
		if w != 0 {
			t.finish[w] = fin
		}
	}
	if fin > t.cp {
		t.cp = fin
	}
}

// seqStats walks a straight-line instruction sequence once: total and
// schedulable instruction counts, per-class schedulable counts, and the
// running critical path.
func seqStats(seq []isa.Inst, p *BoundParams, t *depTracker) (total, sched int, perClass [4]int) {
	for i := range seq {
		in := &seq[i]
		total++
		if !dropped(in) {
			sched++
			if cls := in.Class(); int(cls) < 4 {
				perClass[cls]++
			}
		}
		t.step(in, p)
	}
	return
}

// capacityCycles returns the minimum cycles the slot capacity allows for
// the given schedulable instruction counts.
func capacityCycles(p *BoundParams, sched int, perClass [4]int) int {
	cy := (sched + p.Width - 1) / p.Width
	caps := p.classCapacity()
	for cls, n := range perClass {
		if n == 0 {
			continue
		}
		if c := (n + caps[cls] - 1) / caps[cls]; c > cy {
			cy = c
		}
	}
	return cy
}

// maxUnroll bounds how many region instances one VLIW block can overlap:
// a block holds at most Width*Height scheduled instructions, and the
// search is clamped for degenerate tiny regions.
func maxUnroll(p *BoundParams, sched int) int {
	if sched <= 0 {
		return 1
	}
	k := (p.Width * p.Height) / sched
	if k < 1 {
		k = 1
	}
	if k > 64 {
		k = 64
	}
	return k
}

// regionIPC computes the IPC upper bound of a region whose single
// instance has the given stats, allowing a block to overlap up to k
// instances with per-instance recurrence rho: k instances retire k*total
// instructions in at least max(capacity(k*counts), cp + (k-1)*rho)
// cycles, and blocks never overlap each other (the VLIW Engine executes
// one long instruction per cycle, one block at a time).
func regionIPC(p *BoundParams, total, sched int, perClass [4]int, cp, rho int) float64 {
	if total == 0 {
		return 1
	}
	best := 0.0
	for k := 1; k <= maxUnroll(p, sched); k++ {
		kClass := perClass
		for i := range kClass {
			kClass[i] *= k
		}
		cy := capacityCycles(p, k*sched, kClass)
		if chain := cp + (k-1)*rho; chain > cy {
			cy = chain
		}
		if cy < 1 {
			cy = 1
		}
		if ipc := float64(k*total) / float64(cy); ipc > best {
			best = ipc
		}
	}
	return best
}

// loopBound analyses one natural loop: the body in address order stands
// in for one iteration, and the recurrence rho is measured as the
// critical-path growth of a second, dependence-connected iteration.
func (c *CFG) loopBound(l *Loop, p *BoundParams) RegionBound {
	var body []isa.Inst
	for _, bi := range l.Blocks {
		b := &c.Blocks[bi]
		for i := int(b.Start-c.TextBase) / 4; i < int(b.End-c.TextBase)/4; i++ {
			if c.Ok[i] {
				body = append(body, c.Insts[i])
			}
		}
	}
	var t depTracker
	total, sched, perClass := seqStats(body, p, &t)
	cp1 := t.cp
	_, _, _ = seqStats(body, p, &t) // second iteration, same tracker: carried deps connect
	rho := t.cp - cp1
	if rho < 0 {
		rho = 0
	}
	head := c.Blocks[l.Head].Start
	r := RegionBound{Kind: RegionLoop, Start: head, Line: c.Prog.LineOf(head),
		Instrs: total, Sched: sched, CritPath: cp1, Rho: rho}
	r.IPC = regionIPC(p, total, sched, perClass, cp1, rho)
	return r
}

// chains partitions the reachable blocks into superblock-like chains:
// from every block that no other block falls through to, follow the
// preferred successor (fall-through, else a single direct target) until a
// visited block or a dead end. Every reachable block lands in exactly one
// chain.
func (c *CFG) chains() [][]int {
	prefSucc := make([]int, len(c.Blocks))
	for bi := range c.Blocks {
		prefSucc[bi] = -1
		b := &c.Blocks[bi]
		for _, s := range b.Succs {
			if c.Blocks[s].Start == b.End { // fall-through
				prefSucc[bi] = s
				break
			}
		}
		if prefSucc[bi] == -1 && len(b.Succs) == 1 {
			prefSucc[bi] = b.Succs[0]
		}
	}
	isPref := make([]bool, len(c.Blocks))
	for bi, s := range prefSucc {
		if s >= 0 && c.Blocks[bi].Reachable {
			isPref[s] = true
		}
	}
	visited := make([]bool, len(c.Blocks))
	var out [][]int
	walk := func(start int) {
		var chain []int
		for bi := start; bi >= 0 && !visited[bi]; bi = prefSucc[bi] {
			visited[bi] = true
			chain = append(chain, bi)
		}
		if len(chain) > 0 {
			out = append(out, chain)
		}
	}
	for bi := range c.Blocks {
		if c.Blocks[bi].Reachable && !isPref[bi] {
			walk(bi)
		}
	}
	for bi := range c.Blocks { // cycles whose every member is someone's preference
		if c.Blocks[bi].Reachable && !visited[bi] {
			walk(bi)
		}
	}
	return out
}

// chainBound analyses one straight-line chain as a single trace window.
// mayRepeat marks chains the dynamic trace can re-enter (they sit on a
// direct-edge cycle or an indirect-branch target): those may overlap
// several instances inside one VLIW block, so they keep the unrolled
// bound with a conservative zero recurrence (re-entry can land mid-chain
// and skip the dependence-carrying prefix, so a measured recurrence
// would not be a sound divisor). A provably once-per-trace chain gets
// the tight single-instance bound instead.
func (c *CFG) chainBound(chain []int, p *BoundParams, mayRepeat bool) RegionBound {
	var seq []isa.Inst
	for _, bi := range chain {
		b := &c.Blocks[bi]
		for i := int(b.Start-c.TextBase) / 4; i < int(b.End-c.TextBase)/4; i++ {
			if c.Ok[i] {
				seq = append(seq, c.Insts[i])
			}
		}
	}
	var t depTracker
	total, sched, perClass := seqStats(seq, p, &t)
	head := c.Blocks[chain[0]].Start
	r := RegionBound{Kind: RegionChain, Start: head, Line: c.Prog.LineOf(head),
		Instrs: total, Sched: sched, CritPath: t.cp}
	if mayRepeat {
		r.IPC = regionIPC(p, total, sched, perClass, t.cp, 0)
		return r
	}
	cy := capacityCycles(p, sched, perClass)
	if t.cp > cy {
		cy = t.cp
	}
	if cy < 1 {
		cy = 1
	}
	if total > 0 {
		r.IPC = float64(total) / float64(cy)
	} else {
		r.IPC = 1
	}
	return r
}

// cyclic marks every reachable block that lies on a directed cycle of
// the direct successor edges (natural loops included, but also
// irreducible cycles dominators cannot see), via iterative Tarjan SCC:
// a block repeats iff its SCC is non-trivial or it has a self edge.
func (c *CFG) cyclic() []bool {
	n := len(c.Blocks)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	out := make([]bool, n)
	next := 0
	type frame struct{ v, succ int }
	for start := range c.Blocks {
		if index[start] != -1 || !c.Blocks[start].Reachable {
			continue
		}
		work := []frame{{start, 0}}
		for len(work) > 0 {
			f := &work[len(work)-1]
			v := f.v
			if f.succ == 0 {
				index[v] = next
				low[v] = next
				next++
				stack = append(stack, v)
				onStack[v] = true
			}
			advanced := false
			for f.succ < len(c.Blocks[v].Succs) {
				w := c.Blocks[v].Succs[f.succ]
				f.succ++
				if w == v {
					out[v] = true // self edge
					continue
				}
				if index[w] == -1 {
					work = append(work, frame{w, 0})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
			}
			if advanced {
				continue
			}
			if low[v] == index[v] {
				// v roots an SCC: pop its members; two or more means every
				// member lies on a cycle.
				top := len(stack)
				for stack[top-1] != v {
					top--
				}
				members := stack[top-1:]
				for _, w := range members {
					onStack[w] = false
				}
				if len(members) > 1 {
					for _, w := range members {
						out[w] = true
					}
				}
				stack = stack[:top-1]
			}
			work = work[:len(work)-1]
			if len(work) > 0 {
				u := work[len(work)-1].v
				if low[v] < low[u] {
					low[u] = low[v]
				}
			}
		}
	}
	return out
}

// ComputeBound derives the static ILP upper bound of the program under
// the machine model: the dependence-DAG critical-path analysis of every
// natural loop (with measured recurrence) and every superblock chain,
// combined as the maximum region bound. The derivation and its
// documented approximations (address-order iteration bodies, unrolled
// critical paths modelled as cp + (k-1)*rho, architectural window
// handling) are laid out in DESIGN.md §18; the experiments suite asserts
// the bound dominates the measured optimal and FCFS IPC on every
// workload x geometry point. c must come from Analyze, which derives the
// loops.
func ComputeBound(c *CFG, p BoundParams) *Bound {
	b := &Bound{Params: p}
	for li := range c.Loops {
		b.Regions = append(b.Regions, c.loopBound(&c.Loops[li], &p))
	}
	// A chain may repeat inside one trace window when it lies on a
	// directed cycle, or when it starts at an indirect-branch target (the
	// register-target jump that reaches it can execute again; its targets
	// are statically unknown, so re-entry cannot be ruled out).
	cyc := c.cyclic()
	indirectRoot := make(map[int]bool)
	for _, r := range c.Roots {
		if r != c.Entry {
			indirectRoot[r] = true
		}
	}
	for _, chain := range c.chains() {
		mayRepeat := false
		for _, bi := range chain {
			if cyc[bi] || indirectRoot[bi] {
				mayRepeat = true
				break
			}
		}
		b.Regions = append(b.Regions, c.chainBound(chain, &p, mayRepeat))
	}
	best := 1.0 // the Primary Processor alone sustains at most IPC 1
	for _, r := range b.Regions {
		if r.IPC > best {
			best = r.IPC
		}
	}
	b.IPC = best
	return b
}

// FormatIPC renders a bound value the way the experiment tables do.
func FormatIPC(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}
