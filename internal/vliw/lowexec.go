package vliw

import (
	"fmt"
	"math"

	"dtsvliw/internal/isa"
)

// Lowered-block execution. Each long instruction runs in phases — branch
// resolution in tag order, slot execution into the scratch arenas,
// aliasing detection, commit — with every operand a pre-resolved handle
// and dispatch a dense switch on isa.Op, so the hot loop performs no
// rename-list walks, no interface calls and no allocation.

// Handle accessors. A handle ≥ 0 addresses the architectural file the
// operand position implies; < 0 is ^flat into the epoch-stamped rename
// arena. Reads never use the multicycle bypass (only copies do).

func (e *Engine) lrdReg(h int32) uint32 {
	if h >= 0 {
		return e.st.ReadReg(uint16(h))
	}
	return e.getRenFlat(^h).val
}

func (e *Engine) lrdF(h int32) uint32 {
	if h >= 0 {
		return e.st.ReadF(uint8(h))
	}
	return e.getRenFlat(^h).val
}

func (e *Engine) lrdICC(h int32) uint8 {
	if h >= 0 {
		return e.st.ICC()
	}
	return uint8(e.getRenFlat(^h).val)
}

func (e *Engine) lrdFCC(h int32) uint8 {
	if h >= 0 {
		return e.st.FCC()
	}
	return uint8(e.getRenFlat(^h).val)
}

func (e *Engine) lrdY(h int32) uint32 {
	if h >= 0 {
		return e.st.Y()
	}
	return e.getRenFlat(^h).val
}

// lrdD reads a double from an even/odd handle pair (even = most
// significant word, SPARC convention).
func (e *Engine) lrdD(hHi, hLo int32) float64 {
	hi := uint64(e.lrdF(hHi))
	lo := uint64(e.lrdF(hLo))
	return math.Float64frombits(hi<<32 | lo)
}

// lop2 returns the second ALU operand: the pre-decoded immediate or rs2.
func (e *Engine) lop2(op *lop) uint32 {
	if op.useImm {
		return op.imm
	}
	return e.lrdReg(op.b)
}

// Emit helpers buffer one effect into the scratch arenas, routed to the
// flat rename arena when the handle says so.

func (e *Engine) lemitReg(h int32, v uint32, due int) {
	if h == hDiscard {
		return
	}
	if h >= 0 {
		e.scWrites = append(e.scWrites, pendWrite{due: due,
			w: bufWrite{kind: isa.LocIReg, idx: uint16(h), val: v}})
		return
	}
	e.scLRens = append(e.scLRens, lpendRen{due: due, flat: ^h, v: renVal{val: v}})
}

func (e *Engine) lemitF(h int32, v uint32, due int) {
	if h >= 0 {
		e.scWrites = append(e.scWrites, pendWrite{due: due,
			w: bufWrite{kind: isa.LocFReg, idx: uint16(h), val: v}})
		return
	}
	e.scLRens = append(e.scLRens, lpendRen{due: due, flat: ^h, v: renVal{val: v}})
}

// lemitLoc buffers a write to one of the ICC/FCC/Y/CWP singletons.
func (e *Engine) lemitLoc(h int32, kind isa.LocKind, v uint32, due int) {
	if h >= 0 {
		e.scWrites = append(e.scWrites, pendWrite{due: due,
			w: bufWrite{kind: kind, val: v}})
		return
	}
	e.scLRens = append(e.scLRens, lpendRen{due: due, flat: ^h, v: renVal{val: v}})
}

func (e *Engine) lemitD(op *lop, v float64, due int) {
	bits := math.Float64bits(v)
	e.lemitF(op.d0, uint32(bits>>32), due)
	e.lemitF(op.d1, uint32(bits), due)
}

// ExecLI executes long instruction line of the current block. All operand
// reads observe the state before the long instruction; writes commit at
// its end, gated by branch tags. On an exception, the block has already
// been rolled back to its entry checkpoint when ExecLI returns.
//
// Result.MemAddrs and Result.Stores alias engine-owned scratch arenas and
// are valid only until the next ExecLI call.
func (e *Engine) ExecLI(line int) Result {
	var res Result
	e.ExecLIInto(line, &res)
	return res
}

// ExecLIInto is ExecLI writing its result into *res, which is reset
// first. A chained dispatch loop reuses one Result across an entire run
// of blocks instead of copying the struct out per long instruction.
func (e *Engine) ExecLIInto(line int, res *Result) {
	*res = Result{}
	lb := e.lb
	if lb == nil || line < 0 || line >= len(lb.lines) {
		res.Exception = true
		res.Err = fmt.Errorf("vliw: no long instruction %d", line)
		return
	}
	ll := &lb.lines[line]
	e.Stats.LIsExecuted++

	// Phase 1: resolve conditional and indirect branches in tag order
	// (their operands are pre-LI state, so resolution is order-free; the
	// tag order decides which deviation wins, paper §3.8).
	tagLimit := int(^uint(0) >> 1)
	var exitPC uint32
	var exitSeq uint64
	var exitBranch uint32
	exit := false
	for i := range ll.brs {
		br := &ll.brs[i]
		if int(br.tag) > tagLimit {
			continue
		}
		taken, target := e.resolveLoweredBranch(br)
		if taken == br.brTaken && (!taken || target == br.brTarget) {
			continue // followed the recorded trace
		}
		// Deviation: instructions tagged after this branch are annulled
		// and execution continues at the actual next PC.
		var next uint32
		if taken {
			next = target
		} else {
			next = br.addr + 4
		}
		if !exit || int(br.tag) < tagLimit {
			exit = true
			exitPC = next
			exitSeq = br.seq
			exitBranch = br.addr
			tagLimit = int(br.tag)
		}
	}

	// Phase 2: execute valid slots, buffering writes into the scratch
	// arenas. Each write carries the long-instruction index at which its
	// producer's latency lands.
	e.resetScratch()
	committed, annulled := 0, 0
	for i := range ll.ops {
		op := &ll.ops[i]
		if int(op.tag) > tagLimit {
			annulled++
			continue
		}
		committed++
		if op.isCopy {
			if err := e.execLoweredCopy(op, line); err != nil {
				e.Stats.Exceptions++
				if isAliasing(err) {
					e.Stats.Aliasing++
				}
				res.RecoveryCycles = e.recover()
				res.Exception = true
				res.Aliasing = isAliasing(err)
				res.Err = err
				return
			}
			e.Stats.CopiesExecuted++
			continue
		}
		due := line + int(op.lat) - 1
		if err := e.execLoweredOp(op, due); err != nil {
			if op.nRen > 0 {
				// Deferred exception: stash it in the renaming registers;
				// it surfaces only if a copy commits (paper §3.8).
				for _, f := range lb.renAll(op) {
					e.scLRens = append(e.scLRens, lpendRen{due: due, flat: f, v: renVal{exc: err}})
				}
				continue
			}
			e.Stats.Exceptions++
			res.RecoveryCycles = e.recover()
			res.Exception = true
			res.Err = err
			return
		}
	}

	// Phase 3: aliasing detection (paper §3.10) before anything commits.
	if err := e.checkAliasing(e.scMemOps); err != nil {
		e.Stats.Exceptions++
		e.Stats.Aliasing++
		res.RecoveryCycles = e.recover()
		res.Exception = true
		res.Aliasing = true
		res.Err = err
		return
	}

	if !e.commitLI(line, res) {
		return
	}

	e.Stats.OpsCommitted += uint64(committed)
	e.Stats.OpsAnnulled += uint64(annulled)
	if e.tel != nil {
		e.tel.LIExecuted(committed, annulled)
	}
	res.Committed = committed
	res.Annulled = annulled
	res.MemAddrs = e.scMemAddrs
	res.Stores = e.scStores
	if exit {
		e.Stats.TraceExits++
		res.TraceExit = true
		res.NextPC = exitPC
		res.ExitAdvance = exitSeq - lb.b.FirstSeq + 1
		res.ExitBranch = exitBranch
	}
	return
}

// resolveLoweredBranch evaluates a conditional or indirect branch against
// the pre-LI state (reading source-forwarded renaming registers where the
// Scheduler Unit rewrote the operands) and returns its actual direction
// and target.
func (e *Engine) resolveLoweredBranch(br *lbr) (taken bool, target uint32) {
	switch br.kind {
	case lbrICC:
		return isa.EvalICC(br.cond, e.lrdICC(br.a)), br.target
	case lbrFCC:
		return isa.EvalFCC(br.cond, e.lrdFCC(br.a)), br.target
	}
	t := e.lrdReg(br.a)
	if br.useImm {
		t += br.imm
	} else {
		t += e.lrdReg(br.b)
	}
	return true, t
}

// execLoweredCopy commits a copy instruction: each renaming register's
// value is written to its architectural location; memory renaming
// registers release their buffered stores. A deferred exception held in a
// renaming register surfaces here (paper §3.8). Results accumulate in the
// per-LI scratch arenas with a due line of the current long instruction
// (copies always complete in one cycle).
func (e *Engine) execLoweredCopy(op *lop, line int) error {
	cps := e.lb.copiesOf(op)
	for i := range cps {
		c := &cps[i]
		rv := e.getRenBypassFlat(c.flat)
		if rv.exc != nil {
			return rv.exc
		}
		switch c.kind {
		case isa.LocMem:
			e.scPend = append(e.scPend, rv.st[:rv.nst]...)
			e.scMemOps = append(e.scMemOps, opMem{
				addr: rv.memEA, size: op.memSize, order: op.order,
				cross: op.cross, isStore: true,
			})
		case isa.LocIReg:
			e.scWrites = append(e.scWrites, pendWrite{due: line,
				w: bufWrite{kind: isa.LocIReg, idx: c.idx, val: rv.val}})
		case isa.LocFReg:
			e.scWrites = append(e.scWrites, pendWrite{due: line,
				w: bufWrite{kind: isa.LocFReg, idx: c.idx, val: rv.val}})
		case isa.LocICC:
			e.scWrites = append(e.scWrites, pendWrite{due: line,
				w: bufWrite{kind: isa.LocICC, val: rv.val}})
		case isa.LocFCC:
			e.scWrites = append(e.scWrites, pendWrite{due: line,
				w: bufWrite{kind: isa.LocFCC, val: rv.val}})
		case isa.LocY:
			e.scWrites = append(e.scWrites, pendWrite{due: line,
				w: bufWrite{kind: isa.LocY, val: rv.val}})
		case isa.LocCWP:
			e.scWrites = append(e.scWrites, pendWrite{due: line,
				w: bufWrite{kind: isa.LocCWP, val: rv.val}})
		}
	}
	return nil
}

// execLoweredOp executes one lowered slot, buffering its effects with the
// given due line. Effect order within a slot matches the sequential
// interpreter's, so the buffered writes land as the Primary Processor's
// would.
func (e *Engine) execLoweredOp(op *lop, due int) error {
	switch op.op {
	case isa.OpSETHI:
		e.lemitReg(op.d0, op.imm, due) // imm holds the pre-shifted constant

	case isa.OpADD:
		e.lemitReg(op.d0, e.lrdReg(op.a)+e.lop2(op), due)
	case isa.OpADDCC:
		a, b := e.lrdReg(op.a), e.lop2(op)
		r := a + b
		e.lemitReg(op.d0, r, due)
		e.lemitLoc(op.d1, isa.LocICC, uint32(isa.AddICC(a, b, r, r < a)), due)

	case isa.OpADDX, isa.OpADDXCC:
		a, b := e.lrdReg(op.a), e.lop2(op)
		var c uint32
		if e.lrdICC(op.c)&isa.ICCC != 0 {
			c = 1
		}
		r := a + b + c
		e.lemitReg(op.d0, r, due)
		if op.op == isa.OpADDXCC {
			carry := uint64(a)+uint64(b)+uint64(c) > 0xFFFFFFFF
			e.lemitLoc(op.d1, isa.LocICC, uint32(isa.AddICC(a, b, r, carry)), due)
		}

	case isa.OpSUB:
		e.lemitReg(op.d0, e.lrdReg(op.a)-e.lop2(op), due)
	case isa.OpSUBCC:
		a, b := e.lrdReg(op.a), e.lop2(op)
		r := a - b
		e.lemitReg(op.d0, r, due)
		e.lemitLoc(op.d1, isa.LocICC, uint32(isa.SubICC(a, b, r, a < b)), due)

	case isa.OpSUBX, isa.OpSUBXCC:
		a, b := e.lrdReg(op.a), e.lop2(op)
		var c uint32
		if e.lrdICC(op.c)&isa.ICCC != 0 {
			c = 1
		}
		r := a - b - c
		e.lemitReg(op.d0, r, due)
		if op.op == isa.OpSUBXCC {
			borrow := uint64(a) < uint64(b)+uint64(c)
			e.lemitLoc(op.d1, isa.LocICC, uint32(isa.SubICC(a, b, r, borrow)), due)
		}

	case isa.OpAND:
		e.lemitReg(op.d0, e.lrdReg(op.a)&e.lop2(op), due)
	case isa.OpANDCC:
		r := e.lrdReg(op.a) & e.lop2(op)
		e.lemitReg(op.d0, r, due)
		e.lemitLoc(op.d1, isa.LocICC, uint32(isa.LogicICC(r)), due)
	case isa.OpANDN:
		e.lemitReg(op.d0, e.lrdReg(op.a)&^e.lop2(op), due)
	case isa.OpANDNCC:
		r := e.lrdReg(op.a) &^ e.lop2(op)
		e.lemitReg(op.d0, r, due)
		e.lemitLoc(op.d1, isa.LocICC, uint32(isa.LogicICC(r)), due)
	case isa.OpOR:
		e.lemitReg(op.d0, e.lrdReg(op.a)|e.lop2(op), due)
	case isa.OpORCC:
		r := e.lrdReg(op.a) | e.lop2(op)
		e.lemitReg(op.d0, r, due)
		e.lemitLoc(op.d1, isa.LocICC, uint32(isa.LogicICC(r)), due)
	case isa.OpORN:
		e.lemitReg(op.d0, e.lrdReg(op.a)|^e.lop2(op), due)
	case isa.OpORNCC:
		r := e.lrdReg(op.a) | ^e.lop2(op)
		e.lemitReg(op.d0, r, due)
		e.lemitLoc(op.d1, isa.LocICC, uint32(isa.LogicICC(r)), due)
	case isa.OpXOR:
		e.lemitReg(op.d0, e.lrdReg(op.a)^e.lop2(op), due)
	case isa.OpXORCC:
		r := e.lrdReg(op.a) ^ e.lop2(op)
		e.lemitReg(op.d0, r, due)
		e.lemitLoc(op.d1, isa.LocICC, uint32(isa.LogicICC(r)), due)
	case isa.OpXNOR:
		e.lemitReg(op.d0, e.lrdReg(op.a)^^e.lop2(op), due)
	case isa.OpXNORCC:
		r := e.lrdReg(op.a) ^ ^e.lop2(op)
		e.lemitReg(op.d0, r, due)
		e.lemitLoc(op.d1, isa.LocICC, uint32(isa.LogicICC(r)), due)

	case isa.OpSLL:
		e.lemitReg(op.d0, e.lrdReg(op.a)<<(e.lop2(op)&31), due)
	case isa.OpSRL:
		e.lemitReg(op.d0, e.lrdReg(op.a)>>(e.lop2(op)&31), due)
	case isa.OpSRA:
		e.lemitReg(op.d0, uint32(int32(e.lrdReg(op.a))>>(e.lop2(op)&31)), due)

	case isa.OpMULSCC:
		a := e.lrdReg(op.a)
		icc := e.lrdICC(op.c)
		y := e.lrdY(op.e0)
		nxv := (icc&isa.ICCN != 0) != (icc&isa.ICCV != 0)
		o1 := a >> 1
		if nxv {
			o1 |= 0x80000000
		}
		var o2 uint32
		if y&1 != 0 {
			o2 = e.lop2(op)
		}
		r := o1 + o2
		e.lemitLoc(op.e1, isa.LocY, y>>1|a<<31, due)
		e.lemitReg(op.d0, r, due)
		e.lemitLoc(op.d1, isa.LocICC, uint32(isa.AddICC(o1, o2, r, r < o1)), due)

	case isa.OpRDY:
		e.lemitReg(op.d0, e.lrdY(op.a), due)
	case isa.OpWRY:
		e.lemitLoc(op.d0, isa.LocY, e.lrdReg(op.a)^e.lop2(op), due)

	case isa.OpSAVE, isa.OpRESTORE:
		// op.c holds the statically known new window pointer; the
		// destination register was resolved in that window at lower time.
		v := e.lrdReg(op.a) + e.lop2(op)
		e.lemitLoc(op.d1, isa.LocCWP, uint32(op.c), due)
		e.lemitReg(op.d0, v, due)

	case isa.OpCALL:
		e.lemitReg(op.d0, op.addr, due)

	case isa.OpJMPL:
		t := e.lrdReg(op.a) + e.lop2(op)
		if t&3 != 0 {
			return &isa.AlignmentError{Addr: t, Size: 4}
		}
		e.lemitReg(op.d0, op.addr, due)

	case isa.OpBICC, isa.OpFBFCC:
		// Resolved in phase 1; no architectural effects.

	case isa.OpLD, isa.OpLDUB, isa.OpLDSB, isa.OpLDUH, isa.OpLDSH, isa.OpLDD,
		isa.OpST, isa.OpSTB, isa.OpSTH, isa.OpSTD,
		isa.OpLDF, isa.OpLDDF, isa.OpSTF, isa.OpSTDF:
		return e.execLoweredMem(op, due)

	case isa.OpFMOVS:
		e.lemitF(op.d0, e.lrdF(op.a), due)
	case isa.OpFNEGS:
		e.lemitF(op.d0, e.lrdF(op.a)^0x80000000, due)
	case isa.OpFABSS:
		e.lemitF(op.d0, e.lrdF(op.a)&^0x80000000, due)

	case isa.OpFITOS:
		e.lemitF(op.d0, math.Float32bits(float32(int32(e.lrdF(op.a)))), due)
	case isa.OpFSTOI:
		f := math.Float32frombits(e.lrdF(op.a))
		e.lemitF(op.d0, uint32(int32(f)), due)
	case isa.OpFITOD:
		e.lemitD(op, float64(int32(e.lrdF(op.a))), due)
	case isa.OpFDTOI:
		e.lemitF(op.d0, uint32(int32(e.lrdD(op.a, op.b))), due)
	case isa.OpFSTOD:
		e.lemitD(op, float64(math.Float32frombits(e.lrdF(op.a))), due)
	case isa.OpFDTOS:
		e.lemitF(op.d0, math.Float32bits(float32(e.lrdD(op.a, op.b))), due)

	case isa.OpFADDS, isa.OpFSUBS, isa.OpFMULS, isa.OpFDIVS:
		a := math.Float32frombits(e.lrdF(op.a))
		b := math.Float32frombits(e.lrdF(op.b))
		var r float32
		switch op.op {
		case isa.OpFADDS:
			r = a + b
		case isa.OpFSUBS:
			r = a - b
		case isa.OpFMULS:
			r = a * b
		default:
			r = a / b
		}
		e.lemitF(op.d0, math.Float32bits(r), due)

	case isa.OpFADDD, isa.OpFSUBD, isa.OpFMULD, isa.OpFDIVD:
		a := e.lrdD(op.a, op.b)
		b := e.lrdD(op.c, op.e0)
		var r float64
		switch op.op {
		case isa.OpFADDD:
			r = a + b
		case isa.OpFSUBD:
			r = a - b
		case isa.OpFMULD:
			r = a * b
		default:
			r = a / b
		}
		e.lemitD(op, r, due)

	case isa.OpFCMPS:
		a := math.Float32frombits(e.lrdF(op.a))
		b := math.Float32frombits(e.lrdF(op.b))
		e.lemitLoc(op.d0, isa.LocFCC, uint32(isa.CmpFCC(float64(a), float64(b))), due)
	case isa.OpFCMPD:
		e.lemitLoc(op.d0, isa.LocFCC,
			uint32(isa.CmpFCC(e.lrdD(op.a, op.b), e.lrdD(op.c, op.e0))), due)

	default:
		return fmt.Errorf("vliw: cannot execute lowered %v at %#08x", op.op, op.addr)
	}
	return nil
}

// execLoweredMem executes one lowered memory slot: effective-address
// computation, alignment check, then loads through loadMem (honouring the
// data-store-list overlay) or buffered micro-stores routed either to the
// pending-store arena or, for split stores, to the memory renaming
// register. On any error nothing has been emitted (as in the sequential
// interpreter, whose memory errors all precede the first write).
func (e *Engine) execLoweredMem(op *lop, due int) error {
	ea := e.lrdReg(op.a) + e.lop2(op)
	size := op.memSize
	var alignment uint32
	switch size {
	case 2:
		alignment = 1
	case 4:
		alignment = 3
	case 8:
		alignment = 7
	}
	if ea&alignment != 0 {
		return &isa.AlignmentError{Addr: ea, Size: size}
	}

	var sts [maxMicroStores]microStore
	var nst uint8
	switch op.op {
	case isa.OpLD:
		v, err := e.loadMem(ea, 4)
		if err != nil {
			return err
		}
		e.lemitReg(op.d0, v, due)
	case isa.OpLDUB:
		v, err := e.loadMem(ea, 1)
		if err != nil {
			return err
		}
		e.lemitReg(op.d0, v, due)
	case isa.OpLDSB:
		v, err := e.loadMem(ea, 1)
		if err != nil {
			return err
		}
		e.lemitReg(op.d0, uint32(int32(int8(v))), due)
	case isa.OpLDUH:
		v, err := e.loadMem(ea, 2)
		if err != nil {
			return err
		}
		e.lemitReg(op.d0, v, due)
	case isa.OpLDSH:
		v, err := e.loadMem(ea, 2)
		if err != nil {
			return err
		}
		e.lemitReg(op.d0, uint32(int32(int16(v))), due)
	case isa.OpLDD:
		v0, err := e.loadMem(ea, 4)
		if err != nil {
			return err
		}
		v1, err := e.loadMem(ea+4, 4)
		if err != nil {
			return err
		}
		e.lemitReg(op.d0, v0, due)
		e.lemitReg(op.d1, v1, due)
	case isa.OpLDF:
		v, err := e.loadMem(ea, 4)
		if err != nil {
			return err
		}
		e.lemitF(op.d0, v, due)
	case isa.OpLDDF:
		v0, err := e.loadMem(ea, 4)
		if err != nil {
			return err
		}
		v1, err := e.loadMem(ea+4, 4)
		if err != nil {
			return err
		}
		e.lemitF(op.d0, v0, due)
		e.lemitF(op.d1, v1, due)

	case isa.OpST:
		sts[0] = microStore{addr: ea, val: e.lrdReg(op.c), size: 4}
		nst = 1
	case isa.OpSTB:
		sts[0] = microStore{addr: ea, val: e.lrdReg(op.c), size: 1}
		nst = 1
	case isa.OpSTH:
		sts[0] = microStore{addr: ea, val: e.lrdReg(op.c), size: 2}
		nst = 1
	case isa.OpSTD:
		sts[0] = microStore{addr: ea, val: e.lrdReg(op.c), size: 4}
		sts[1] = microStore{addr: ea + 4, val: e.lrdReg(op.e0), size: 4}
		nst = 2
	case isa.OpSTF:
		sts[0] = microStore{addr: ea, val: e.lrdF(op.c), size: 4}
		nst = 1
	case isa.OpSTDF:
		sts[0] = microStore{addr: ea, val: e.lrdF(op.c), size: 4}
		sts[1] = microStore{addr: ea + 4, val: e.lrdF(op.e0), size: 4}
		nst = 2
	}

	if op.memRenamed {
		// Split store: the buffered write moves to the memory renaming
		// register; the access is charged when its memory copy commits.
		rv := renVal{st: sts, nst: nst, memEA: ea}
		for _, f := range e.lb.memRens(op) {
			e.scLRens = append(e.scLRens, lpendRen{due: due, flat: f, v: rv})
		}
		return nil
	}
	e.scPend = append(e.scPend, sts[:nst]...)
	e.scMemAddrs = append(e.scMemAddrs, ea)
	e.scMemOps = append(e.scMemOps, opMem{
		addr: ea, size: size, order: op.order,
		cross: op.cross, isStore: op.isStore,
	})
	return nil
}
