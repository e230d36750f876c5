package vliw

import (
	"dtsvliw/internal/isa"
	"dtsvliw/internal/sched"
)

// Block lowering (DESIGN.md §11): when a finished block is saved into the
// VLIW Cache it is lowered once into a flat micro-op form, the software
// analogue of the paper's decoded-instruction cache line (§3.4, Table 1).
// Every operand is pre-resolved to a handle — an architectural register
// index or a flattened renaming-register number — so the engine's hot loop
// dispatches on a dense op code and never re-walks sched.Slot rename
// lists. Lowering is best-effort: Lower returns nil for any block it
// cannot represent and the engine falls back to the interpreted path for
// that block.

// Operand handles. A handle ≥ 0 is an architectural index into the file
// the operand position implies (integer registers are physical,
// window-resolved at lowering time from the slot's recorded CWP; the
// ICC/FCC/Y/CWP singletons use 0). A handle < 0 is ^flat, a flattened
// renaming-register index into the engine's epoch-stamped arena.
// hDiscard marks a write to physical register 0, which is dropped.
const hDiscard = int32(-1) << 30

// lbr is a pre-resolved conditional or indirect branch, evaluated against
// pre-LI state in tag order (paper §3.8).
type lbr struct {
	tag      uint8
	kind     uint8 // lbrICC, lbrFCC or lbrJmpl
	cond     uint8
	useImm   bool
	brTaken  bool   // recorded trace direction
	a, b     int32  // icc/fcc handle, or JMPL rs1/rs2 handles
	imm      uint32 // JMPL displacement
	addr     uint32 // branch's SPARC address
	target   uint32 // static taken target (conditional branches)
	brTarget uint32 // recorded trace target
	seq      uint64
}

const (
	lbrICC uint8 = iota
	lbrFCC
	lbrJmpl
)

// lcopy is one renaming register a lowered copy instruction commits.
type lcopy struct {
	flat int32
	kind isa.LocKind
	idx  uint16
}

// lop is one lowered slot. Operand meaning depends on op; the handle
// assignment mirrors isa.Exec's env-call order so the buffered effects
// are emitted identically to the interpreted path.
type lop struct {
	op     isa.Op
	isCopy bool
	tag    uint8
	lat    uint8 // LatOr1, for the multicycle due line

	useImm bool
	a, b   int32 // primary source handles
	c, e0  int32 // extra sources (icc/y, double-word pairs, store data)
	d0, d1 int32 // destination handles
	e1     int32 // extra destination (MULSCC's Y)
	imm    uint32
	addr   uint32 // slot's SPARC address (diagnostics, JMPL/CALL link)

	// Memory metadata (paper §3.10), copied from the slot.
	isMem      bool
	isStore    bool
	cross      bool
	memRenamed bool
	memSize    uint8
	order      uint16

	// renAll lists every rename target of the slot; a deferred exception
	// is stashed in all of them (paper §3.8). memRens lists the memory
	// renaming registers a split store's buffered write is routed to.
	// copies lists what a copy slot commits. All three are windows of
	// the block's handle and copy backings, held as offsets and lengths
	// (LoweredBlock.renAll/memRens/copiesOf) to keep ops compact.
	ren0, mem0, cp0     int32
	nRen, nMem, nCopies uint8
}

// lline is one lowered long instruction: its branches for phase-1
// resolution and every valid slot, in slot order, for phase-2 execution.
type lline struct {
	brs []lbr
	ops []lop
}

// LoweredBlock is the decode-once executable form of a scheduled block,
// stored alongside it in the VLIW Cache.
type LoweredBlock struct {
	b        *sched.Block
	lines    []lline
	renTotal int // flattened renaming registers across all classes

	// Storage sized once per lowering: every line's branches and ops, and
	// every op's rename handles and copies, are windows into these four
	// backings. A fresh lowering allocates each (and lines) once; a block
	// recycled through a LoweredPool reuses them and allocates nothing.
	brs     []lbr
	ops     []lop
	handles []int32
	copies  []lcopy
}

// Block returns the scheduled block this lowering was produced from.
func (lb *LoweredBlock) Block() *sched.Block { return lb.b }

func (lb *LoweredBlock) renAll(op *lop) []int32 {
	return lb.handles[op.ren0 : op.ren0+int32(op.nRen)]
}

func (lb *LoweredBlock) memRens(op *lop) []int32 {
	return lb.handles[op.mem0 : op.mem0+int32(op.nMem)]
}

func (lb *LoweredBlock) copiesOf(op *lop) []lcopy {
	return lb.copies[op.cp0 : op.cp0+int32(op.nCopies)]
}

// LoweredPool recycles lowered blocks whose VLIW Cache line was replaced
// or invalidated, the way the paper's cache line is fixed storage that a
// newly saved block overwrites (§3.4). Not safe for concurrent use.
type LoweredPool struct {
	free []*LoweredBlock
}

// Put returns a lowered block to the pool once nothing executes or
// observes it any more (nil is ignored).
func (p *LoweredPool) Put(lb *LoweredBlock) {
	if lb == nil {
		return
	}
	lb.b = nil
	p.free = append(p.free, lb)
}

// Lower is the package-level Lower reusing a pooled block's storage.
func (p *LoweredPool) Lower(b *sched.Block, nwin int) *LoweredBlock {
	var lb *LoweredBlock
	if n := len(p.free); n > 0 {
		lb = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		lb = &LoweredBlock{}
	}
	if !lb.lower(b, nwin) {
		p.Put(lb)
		return nil
	}
	return lb
}

// lowerer carries the per-block context of one lowering pass: the rename
// class bases and the handle and copy backings being filled.
type lowerer struct {
	b       *sched.Block
	nwin    int
	base    [sched.NumRenameClasses]int
	fail    bool
	handles []int32
	copies  []lcopy
}

func (lo *lowerer) flatOf(r sched.RenameReg) int32 {
	if int(r.Idx) >= int(lo.b.Renames[r.Class]) {
		lo.fail = true // unallocated register; interpreted path reports it
		return 0
	}
	return int32(lo.base[r.Class] + int(r.Idx))
}

func (lo *lowerer) renH(r sched.RenameReg) int32 { return ^lo.flatOf(r) }

// Lower translates block b into its flat micro-op form. It returns nil
// when the block contains a construct lowering does not represent (the
// engine then interprets the block); the scheduler never emits those for
// schedulable traces, so nil is a defensive fallback, not a normal path.
func Lower(b *sched.Block, nwin int) *LoweredBlock {
	lb := &LoweredBlock{}
	if !lb.lower(b, nwin) {
		return nil
	}
	return lb
}

// backing returns s emptied with capacity for at least n elements,
// reusing its storage when it is large enough.
func backing[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// window returns s[start:] with its capacity clamped, or nil when empty.
func window[T any](s []T, start int) []T {
	if len(s) == start {
		return nil
	}
	return s[start:len(s):len(s)]
}

// lower fills lb with the lowering of b, sizing every backing from one
// counting pass over the slot grid first. It reports false when the block
// is not representable.
func (lb *LoweredBlock) lower(b *sched.Block, nwin int) bool {
	lo := lowerer{b: b, nwin: nwin}
	tot := 0
	for c := 0; c < int(sched.NumRenameClasses); c++ {
		lo.base[c] = tot
		tot += int(b.Renames[c])
	}
	nBrs, nOps, nHandles, nCopies := 0, 0, 0, 0
	for li := 0; li < b.NumLIs; li++ {
		for _, s := range b.LIs[li] {
			if s == nil {
				continue
			}
			nOps++
			if s.IsCondOrIndirectBranch() {
				nBrs++
			}
			nHandles += len(s.Renames)
			for _, p := range s.Renames {
				if p.Loc.Kind == isa.LocMem {
					nHandles++
				}
			}
			if s.IsCopy {
				nCopies += len(s.Copies)
			}
		}
	}
	brs, ops := backing(lb.brs, nBrs), backing(lb.ops, nOps)
	lo.handles, lo.copies = backing(lb.handles, nHandles), backing(lb.copies, nCopies)
	lines := backing(lb.lines, b.NumLIs)
	for li := 0; li < b.NumLIs; li++ {
		b0, o0 := len(brs), len(ops)
		for _, s := range b.LIs[li] {
			if s == nil {
				continue
			}
			if s.IsCondOrIndirectBranch() {
				brs = append(brs, lo.lowerBranch(s))
			}
			op, ok := lo.lowerSlot(s)
			if !ok || lo.fail {
				return false
			}
			ops = append(ops, op)
		}
		lines = append(lines, lline{brs: window(brs, b0), ops: window(ops, o0)})
	}
	*lb = LoweredBlock{b: b, lines: lines, renTotal: tot,
		brs: brs, ops: ops, handles: lo.handles, copies: lo.copies}
	return true
}

// lowerBranch pre-resolves a conditional or indirect branch for phase-1
// evaluation. Branch operands read pre-LI state through source forwarding
// but never the multicycle bypass, exactly as resolveBranch does.
func (lo *lowerer) lowerBranch(s *sched.Slot) lbr {
	br := lbr{
		tag: s.Tag, cond: s.Inst.Cond, addr: s.Addr, seq: s.Seq,
		brTaken: s.BrTaken, brTarget: s.BrTarget,
	}
	switch s.Inst.Op {
	case isa.OpBICC:
		br.kind = lbrICC
		br.a = lo.rlh(s, isa.LocICC)
		br.target = s.Inst.BranchTarget(s.Addr)
	case isa.OpFBFCC:
		br.kind = lbrFCC
		br.a = lo.rlh(s, isa.LocFCC)
		br.target = s.Inst.BranchTarget(s.Addr)
	default: // JMPL
		br.kind = lbrJmpl
		br.a = lo.rh(s, s.Inst.Rs1)
		if s.Inst.UseImm {
			br.useImm = true
			br.imm = uint32(s.Inst.Imm)
		} else {
			br.b = lo.rh(s, s.Inst.Rs2)
		}
	}
	return br
}

// rh resolves an integer source register (window-resolved, then source
// forwarding). Physical register 0 reads as architectural zero even when
// a rename pair nominally covers it, matching slotEnv.ReadReg.
func (lo *lowerer) rh(s *sched.Slot, r uint8) int32 {
	p := isa.PhysReg(s.CWP, r, lo.nwin)
	if p == 0 {
		return 0
	}
	if rr, ok := s.SrcRenameTarget(isa.IReg(p)); ok {
		return lo.renH(rr)
	}
	return int32(p)
}

// whPhys resolves an integer destination already in physical form.
func (lo *lowerer) whPhys(s *sched.Slot, p uint16) int32 {
	if p == 0 {
		return hDiscard
	}
	if rr, ok := s.RenameTarget(isa.IReg(p)); ok {
		return lo.renH(rr)
	}
	return int32(p)
}

func (lo *lowerer) wh(s *sched.Slot, r uint8) int32 {
	return lo.whPhys(s, isa.PhysReg(s.CWP, r, lo.nwin))
}

// rfh/wfh resolve floating-point source/destination registers.
func (lo *lowerer) rfh(s *sched.Slot, r uint8) int32 {
	if rr, ok := s.SrcRenameTarget(isa.FReg(uint16(r))); ok {
		return lo.renH(rr)
	}
	return int32(r)
}

func (lo *lowerer) wfh(s *sched.Slot, r uint8) int32 {
	if rr, ok := s.RenameTarget(isa.FReg(uint16(r))); ok {
		return lo.renH(rr)
	}
	return int32(r)
}

// rlh/wlh resolve the ICC/FCC/Y/CWP singleton locations (0 means the
// architectural register).
func (lo *lowerer) rlh(s *sched.Slot, k isa.LocKind) int32 {
	if rr, ok := s.SrcRenameTarget(isa.Loc{Kind: k}); ok {
		return lo.renH(rr)
	}
	return 0
}

func (lo *lowerer) wlh(s *sched.Slot, k isa.LocKind) int32 {
	if rr, ok := s.RenameTarget(isa.Loc{Kind: k}); ok {
		return lo.renH(rr)
	}
	return 0
}

// lowerSlot translates one slot. ok is false for constructs lowering does
// not represent (non-schedulable ops; they never reach blocks).
func (lo *lowerer) lowerSlot(s *sched.Slot) (lop, bool) {
	op := lop{
		tag: s.Tag, lat: uint8(s.LatOr1()), addr: s.Addr,
		isMem: s.IsMem, isStore: s.IsStore, cross: s.Cross,
		memRenamed: s.MemRenamed, memSize: s.MemSize, order: s.Order,
	}
	op.ren0 = int32(len(lo.handles))
	for _, p := range s.Renames {
		lo.handles = append(lo.handles, lo.flatOf(p.Reg))
	}
	op.mem0 = int32(len(lo.handles))
	for _, p := range s.Renames {
		if p.Loc.Kind == isa.LocMem {
			lo.handles = append(lo.handles, lo.flatOf(p.Reg))
		}
	}
	op.nRen, op.nMem = uint8(op.mem0-op.ren0), uint8(int32(len(lo.handles))-op.mem0)
	if s.IsCopy {
		op.isCopy = true
		op.cp0 = int32(len(lo.copies))
		for _, p := range s.Copies {
			lo.copies = append(lo.copies, lcopy{flat: lo.flatOf(p.Reg), kind: p.Loc.Kind, idx: p.Loc.Idx})
		}
		op.nCopies = uint8(int32(len(lo.copies)) - op.cp0)
		return op, true
	}

	in := &s.Inst
	op.op = in.Op
	// op2 of format-3 instructions: immediate or rs2.
	setOp2 := func() {
		if in.UseImm {
			op.useImm = true
			op.imm = uint32(in.Imm)
		} else {
			op.b = lo.rh(s, in.Rs2)
		}
	}

	switch in.Op {
	case isa.OpSETHI:
		op.d0 = lo.wh(s, in.Rd)
		op.imm = uint32(in.Imm) << 10

	case isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpANDN, isa.OpOR, isa.OpORN,
		isa.OpXOR, isa.OpXNOR, isa.OpSLL, isa.OpSRL, isa.OpSRA:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wh(s, in.Rd)

	case isa.OpADDCC, isa.OpSUBCC, isa.OpANDCC, isa.OpANDNCC, isa.OpORCC,
		isa.OpORNCC, isa.OpXORCC, isa.OpXNORCC:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wh(s, in.Rd)
		op.d1 = lo.wlh(s, isa.LocICC)

	case isa.OpADDX, isa.OpSUBX:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rlh(s, isa.LocICC)
		op.d0 = lo.wh(s, in.Rd)

	case isa.OpADDXCC, isa.OpSUBXCC:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rlh(s, isa.LocICC)
		op.d0 = lo.wh(s, in.Rd)
		op.d1 = lo.wlh(s, isa.LocICC)

	case isa.OpMULSCC:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rlh(s, isa.LocICC)
		op.e0 = lo.rlh(s, isa.LocY)
		op.d0 = lo.wh(s, in.Rd)
		op.d1 = lo.wlh(s, isa.LocICC)
		op.e1 = lo.wlh(s, isa.LocY)

	case isa.OpRDY:
		op.a = lo.rlh(s, isa.LocY)
		op.d0 = lo.wh(s, in.Rd)

	case isa.OpWRY:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wlh(s, isa.LocY)

	case isa.OpSAVE, isa.OpRESTORE:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		var ncwp uint8
		if in.Op == isa.OpSAVE {
			ncwp = isa.SaveCWP(s.CWP, lo.nwin)
		} else {
			ncwp = isa.RestoreCWP(s.CWP, lo.nwin)
		}
		op.c = int32(ncwp)
		op.d1 = lo.wlh(s, isa.LocCWP)
		// Rd resolves in the new window (isa.Exec writes after SetCWP).
		op.d0 = lo.whPhys(s, isa.PhysReg(ncwp, in.Rd, lo.nwin))

	case isa.OpCALL:
		// The link value is the call's own address (op.addr).
		op.d0 = lo.whPhys(s, isa.PhysReg(s.CWP, 15, lo.nwin))

	case isa.OpJMPL:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wh(s, in.Rd)

	case isa.OpBICC, isa.OpFBFCC:
		// Resolved in phase 1; no phase-2 effects (matches isa.Exec, which
		// only evaluates the condition).

	case isa.OpLD, isa.OpLDUB, isa.OpLDSB, isa.OpLDUH, isa.OpLDSH:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wh(s, in.Rd)

	case isa.OpLDD:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wh(s, in.Rd&^1)
		op.d1 = lo.wh(s, in.Rd|1)

	case isa.OpLDF:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wfh(s, in.Rd)

	case isa.OpLDDF:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.d0 = lo.wfh(s, in.Rd&^1)
		op.d1 = lo.wfh(s, in.Rd|1)

	case isa.OpST, isa.OpSTB, isa.OpSTH:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rh(s, in.Rd)

	case isa.OpSTD:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rh(s, in.Rd&^1)
		op.e0 = lo.rh(s, in.Rd|1)

	case isa.OpSTF:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rfh(s, in.Rd)

	case isa.OpSTDF:
		op.a = lo.rh(s, in.Rs1)
		setOp2()
		op.c = lo.rfh(s, in.Rd&^1)
		op.e0 = lo.rfh(s, in.Rd|1)

	case isa.OpFMOVS, isa.OpFNEGS, isa.OpFABSS, isa.OpFITOS, isa.OpFSTOI:
		op.a = lo.rfh(s, in.Rs2)
		op.d0 = lo.wfh(s, in.Rd)

	case isa.OpFITOD, isa.OpFSTOD:
		op.a = lo.rfh(s, in.Rs2)
		op.d0 = lo.wfh(s, in.Rd&^1)
		op.d1 = lo.wfh(s, in.Rd|1)

	case isa.OpFDTOI, isa.OpFDTOS:
		op.a = lo.rfh(s, in.Rs2&^1)
		op.b = lo.rfh(s, in.Rs2|1)
		op.d0 = lo.wfh(s, in.Rd)

	case isa.OpFADDS, isa.OpFSUBS, isa.OpFMULS, isa.OpFDIVS:
		op.a = lo.rfh(s, in.Rs1)
		op.b = lo.rfh(s, in.Rs2)
		op.d0 = lo.wfh(s, in.Rd)

	case isa.OpFADDD, isa.OpFSUBD, isa.OpFMULD, isa.OpFDIVD:
		op.a = lo.rfh(s, in.Rs1&^1)
		op.b = lo.rfh(s, in.Rs1|1)
		op.c = lo.rfh(s, in.Rs2&^1)
		op.e0 = lo.rfh(s, in.Rs2|1)
		op.d0 = lo.wfh(s, in.Rd&^1)
		op.d1 = lo.wfh(s, in.Rd|1)

	case isa.OpFCMPS:
		op.a = lo.rfh(s, in.Rs1)
		op.b = lo.rfh(s, in.Rs2)
		op.d0 = lo.wlh(s, isa.LocFCC)

	case isa.OpFCMPD:
		op.a = lo.rfh(s, in.Rs1&^1)
		op.b = lo.rfh(s, in.Rs1|1)
		op.c = lo.rfh(s, in.Rs2&^1)
		op.e0 = lo.rfh(s, in.Rs2|1)
		op.d0 = lo.wlh(s, isa.LocFCC)

	default:
		// Ticc, LDSTUB, SWAP, UNIMP: non-schedulable, never in blocks.
		return op, false
	}
	return op, true
}
