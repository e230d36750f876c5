package arch

import (
	"fmt"
	"math"

	"dtsvliw/internal/isa"
)

// The sequential interpreter proper: one SPARC V7 instruction executed
// directly against the concrete State. The flag helpers (isa.AddICC and
// friends) are shared with the VLIW Engine's lowered executor, which is
// otherwise a separate implementation on purpose — that independence is
// what the differential oracle checks.

// r reads architectural register r (0..31) in the current window.
// Physical register 0 reads as zero without a test: every path that sets
// the register file leaves it zero, and WriteReg discards writes to it.
func (s *State) r(r uint8) uint32 { return s.regs[isa.PhysReg(s.cwp, r, s.NWin)] }

// op2 reads the second operand of a format-3 instruction.
func (s *State) op2(in *isa.Inst) uint32 {
	if in.UseImm {
		return uint32(in.Imm)
	}
	return s.r(in.Rs2)
}

// exec executes in, located at addr, writing its control-flow and memory
// effects into *out and its architectural updates into s. On error out
// holds what was resolved before the failure.
func (s *State) exec(in *isa.Inst, addr uint32, out *isa.Outcome) error {
	*out = isa.Outcome{NextPC: addr + 4}
	switch in.Op {
	case isa.OpSETHI:
		s.SetReg(in.Rd, uint32(in.Imm)<<10)

	case isa.OpADD, isa.OpADDCC:
		a, b := s.r(in.Rs1), s.op2(in)
		r := a + b
		s.SetReg(in.Rd, r)
		if in.Op == isa.OpADDCC {
			s.SetICC(isa.AddICC(a, b, r, r < a))
		}

	case isa.OpADDX, isa.OpADDXCC:
		a, b := s.r(in.Rs1), s.op2(in)
		var c uint32
		if s.icc&isa.ICCC != 0 {
			c = 1
		}
		r := a + b + c
		s.SetReg(in.Rd, r)
		if in.Op == isa.OpADDXCC {
			carry := uint64(a)+uint64(b)+uint64(c) > 0xFFFFFFFF
			s.SetICC(isa.AddICC(a, b, r, carry))
		}

	case isa.OpSUB, isa.OpSUBCC:
		a, b := s.r(in.Rs1), s.op2(in)
		r := a - b
		s.SetReg(in.Rd, r)
		if in.Op == isa.OpSUBCC {
			s.SetICC(isa.SubICC(a, b, r, a < b))
		}

	case isa.OpSUBX, isa.OpSUBXCC:
		a, b := s.r(in.Rs1), s.op2(in)
		var c uint32
		if s.icc&isa.ICCC != 0 {
			c = 1
		}
		r := a - b - c
		s.SetReg(in.Rd, r)
		if in.Op == isa.OpSUBXCC {
			borrow := uint64(a) < uint64(b)+uint64(c)
			s.SetICC(isa.SubICC(a, b, r, borrow))
		}

	case isa.OpAND, isa.OpANDCC:
		r := s.r(in.Rs1) & s.op2(in)
		s.SetReg(in.Rd, r)
		if in.Op == isa.OpANDCC {
			s.SetICC(isa.LogicICC(r))
		}
	case isa.OpANDN, isa.OpANDNCC:
		r := s.r(in.Rs1) &^ s.op2(in)
		s.SetReg(in.Rd, r)
		if in.Op == isa.OpANDNCC {
			s.SetICC(isa.LogicICC(r))
		}
	case isa.OpOR, isa.OpORCC:
		r := s.r(in.Rs1) | s.op2(in)
		s.SetReg(in.Rd, r)
		if in.Op == isa.OpORCC {
			s.SetICC(isa.LogicICC(r))
		}
	case isa.OpORN, isa.OpORNCC:
		r := s.r(in.Rs1) | ^s.op2(in)
		s.SetReg(in.Rd, r)
		if in.Op == isa.OpORNCC {
			s.SetICC(isa.LogicICC(r))
		}
	case isa.OpXOR, isa.OpXORCC:
		r := s.r(in.Rs1) ^ s.op2(in)
		s.SetReg(in.Rd, r)
		if in.Op == isa.OpXORCC {
			s.SetICC(isa.LogicICC(r))
		}
	case isa.OpXNOR, isa.OpXNORCC:
		r := s.r(in.Rs1) ^ ^s.op2(in)
		s.SetReg(in.Rd, r)
		if in.Op == isa.OpXNORCC {
			s.SetICC(isa.LogicICC(r))
		}

	case isa.OpSLL:
		s.SetReg(in.Rd, s.r(in.Rs1)<<(s.op2(in)&31))
	case isa.OpSRL:
		s.SetReg(in.Rd, s.r(in.Rs1)>>(s.op2(in)&31))
	case isa.OpSRA:
		s.SetReg(in.Rd, uint32(int32(s.r(in.Rs1))>>(s.op2(in)&31)))

	case isa.OpMULSCC:
		// SPARC multiply step (the V7 substitute for integer multiply).
		a := s.r(in.Rs1)
		nxv := (s.icc&isa.ICCN != 0) != (s.icc&isa.ICCV != 0)
		o1 := a >> 1
		if nxv {
			o1 |= 0x80000000
		}
		var o2 uint32
		if s.y&1 != 0 {
			o2 = s.op2(in)
		}
		r := o1 + o2
		s.y = s.y>>1 | a<<31
		s.SetReg(in.Rd, r)
		s.SetICC(isa.AddICC(o1, o2, r, r < o1))

	case isa.OpRDY:
		s.SetReg(in.Rd, s.y)
	case isa.OpWRY:
		s.y = s.r(in.Rs1) ^ s.op2(in) // SPARC WRY xors rs1 with operand 2

	case isa.OpSAVE:
		v := s.r(in.Rs1) + s.op2(in)
		s.SetCWP(isa.SaveCWP(s.cwp, s.NWin))
		s.SetReg(in.Rd, v) // in the new window

	case isa.OpRESTORE:
		v := s.r(in.Rs1) + s.op2(in)
		s.SetCWP(isa.RestoreCWP(s.cwp, s.NWin))
		s.SetReg(in.Rd, v) // in the new window

	case isa.OpCALL:
		s.SetReg(15, addr)
		out.IsCTI = true
		out.Taken = true
		out.Target = in.BranchTarget(addr)
		out.NextPC = out.Target

	case isa.OpJMPL:
		t := s.r(in.Rs1) + s.op2(in)
		if t&3 != 0 {
			return &isa.AlignmentError{Addr: t, Size: 4}
		}
		s.SetReg(in.Rd, addr)
		out.IsCTI = true
		out.Taken = true
		out.Target = t
		out.NextPC = t

	case isa.OpBICC:
		out.IsCTI = in.Cond != isa.CondN
		out.Target = in.BranchTarget(addr)
		if isa.EvalICC(in.Cond, s.icc) {
			out.Taken = true
			out.NextPC = out.Target
		}

	case isa.OpFBFCC:
		out.IsCTI = in.Cond != isa.CondN
		out.Target = in.BranchTarget(addr)
		if isa.EvalFCC(in.Cond, s.fcc) {
			out.Taken = true
			out.NextPC = out.Target
		}

	case isa.OpTICC:
		if isa.EvalICC(in.Cond, s.icc) {
			out.Trap = true
			out.TrapNum = uint8((s.r(in.Rs1) + s.op2(in)) & 0x7F)
		}

	case isa.OpLD, isa.OpLDUB, isa.OpLDSB, isa.OpLDUH, isa.OpLDSH, isa.OpLDD,
		isa.OpST, isa.OpSTB, isa.OpSTH, isa.OpSTD, isa.OpLDSTUB, isa.OpSWAP,
		isa.OpLDF, isa.OpLDDF, isa.OpSTF, isa.OpSTDF:
		return s.execMem(in, out)

	case isa.OpFMOVS:
		s.WriteF(in.Rd, s.ReadF(in.Rs2))
	case isa.OpFNEGS:
		s.WriteF(in.Rd, s.ReadF(in.Rs2)^0x80000000)
	case isa.OpFABSS:
		s.WriteF(in.Rd, s.ReadF(in.Rs2)&^0x80000000)

	case isa.OpFITOS:
		s.WriteF(in.Rd, math.Float32bits(float32(int32(s.ReadF(in.Rs2)))))
	case isa.OpFSTOI:
		f := math.Float32frombits(s.ReadF(in.Rs2))
		s.WriteF(in.Rd, uint32(int32(f)))
	case isa.OpFITOD:
		s.writeD(in.Rd, float64(int32(s.ReadF(in.Rs2))))
	case isa.OpFDTOI:
		s.WriteF(in.Rd, uint32(int32(s.readD(in.Rs2))))
	case isa.OpFSTOD:
		s.writeD(in.Rd, float64(math.Float32frombits(s.ReadF(in.Rs2))))
	case isa.OpFDTOS:
		s.WriteF(in.Rd, math.Float32bits(float32(s.readD(in.Rs2))))

	case isa.OpFADDS, isa.OpFSUBS, isa.OpFMULS, isa.OpFDIVS:
		a := math.Float32frombits(s.ReadF(in.Rs1))
		b := math.Float32frombits(s.ReadF(in.Rs2))
		var r float32
		switch in.Op {
		case isa.OpFADDS:
			r = a + b
		case isa.OpFSUBS:
			r = a - b
		case isa.OpFMULS:
			r = a * b
		default:
			r = a / b
		}
		s.WriteF(in.Rd, math.Float32bits(r))

	case isa.OpFADDD, isa.OpFSUBD, isa.OpFMULD, isa.OpFDIVD:
		a, b := s.readD(in.Rs1), s.readD(in.Rs2)
		var r float64
		switch in.Op {
		case isa.OpFADDD:
			r = a + b
		case isa.OpFSUBD:
			r = a - b
		case isa.OpFMULD:
			r = a * b
		default:
			r = a / b
		}
		s.writeD(in.Rd, r)

	case isa.OpFCMPS:
		a := math.Float32frombits(s.ReadF(in.Rs1))
		b := math.Float32frombits(s.ReadF(in.Rs2))
		s.SetFCC(isa.CmpFCC(float64(a), float64(b)))
	case isa.OpFCMPD:
		s.SetFCC(isa.CmpFCC(s.readD(in.Rs1), s.readD(in.Rs2)))

	case isa.OpUNIMP:
		return fmt.Errorf("isa: unimplemented instruction at %#08x", addr)

	default:
		return fmt.Errorf("isa: cannot execute %v at %#08x", in.Op, addr)
	}
	return nil
}

// readD reads a double from the even/odd FP register pair (even register
// holds the most-significant word, big-endian SPARC convention).
func (s *State) readD(r uint8) float64 {
	hi := uint64(s.ReadF(r &^ 1))
	lo := uint64(s.ReadF(r | 1))
	return math.Float64frombits(hi<<32 | lo)
}

func (s *State) writeD(r uint8, v float64) {
	bits := math.Float64bits(v)
	s.WriteF(r&^1, uint32(bits>>32))
	s.WriteF(r|1, uint32(bits))
}

func (s *State) execMem(in *isa.Inst, out *isa.Outcome) error {
	ea := s.r(in.Rs1) + s.op2(in)
	out.EA = ea
	out.HasEA = true

	size := in.MemSize()
	if ea&(uint32(size)-1) != 0 {
		return &isa.AlignmentError{Addr: ea, Size: size}
	}

	switch in.Op {
	case isa.OpLD:
		v, err := s.Mem.Read(ea, 4)
		if err != nil {
			return err
		}
		s.SetReg(in.Rd, v)
	case isa.OpLDUB:
		v, err := s.Mem.Read(ea, 1)
		if err != nil {
			return err
		}
		s.SetReg(in.Rd, v)
	case isa.OpLDSB:
		v, err := s.Mem.Read(ea, 1)
		if err != nil {
			return err
		}
		s.SetReg(in.Rd, uint32(int32(int8(v))))
	case isa.OpLDUH:
		v, err := s.Mem.Read(ea, 2)
		if err != nil {
			return err
		}
		s.SetReg(in.Rd, v)
	case isa.OpLDSH:
		v, err := s.Mem.Read(ea, 2)
		if err != nil {
			return err
		}
		s.SetReg(in.Rd, uint32(int32(int16(v))))
	case isa.OpLDD:
		v0, err := s.Mem.Read(ea, 4)
		if err != nil {
			return err
		}
		v1, err := s.Mem.Read(ea+4, 4)
		if err != nil {
			return err
		}
		s.SetReg(in.Rd&^1, v0)
		s.SetReg(in.Rd|1, v1)
	case isa.OpST:
		return s.store(ea, s.r(in.Rd), 4)
	case isa.OpSTB:
		return s.store(ea, s.r(in.Rd), 1)
	case isa.OpSTH:
		return s.store(ea, s.r(in.Rd), 2)
	case isa.OpSTD:
		if err := s.store(ea, s.r(in.Rd&^1), 4); err != nil {
			return err
		}
		return s.store(ea+4, s.r(in.Rd|1), 4)
	case isa.OpLDSTUB:
		v, err := s.Mem.Read(ea, 1)
		if err != nil {
			return err
		}
		if err := s.store(ea, 0xFF, 1); err != nil {
			return err
		}
		s.SetReg(in.Rd, v)
	case isa.OpSWAP:
		v, err := s.Mem.Read(ea, 4)
		if err != nil {
			return err
		}
		if err := s.store(ea, s.r(in.Rd), 4); err != nil {
			return err
		}
		s.SetReg(in.Rd, v)
	case isa.OpLDF:
		v, err := s.Mem.Read(ea, 4)
		if err != nil {
			return err
		}
		s.WriteF(in.Rd, v)
	case isa.OpLDDF:
		v0, err := s.Mem.Read(ea, 4)
		if err != nil {
			return err
		}
		v1, err := s.Mem.Read(ea+4, 4)
		if err != nil {
			return err
		}
		s.WriteF(in.Rd&^1, v0)
		s.WriteF(in.Rd|1, v1)
	case isa.OpSTF:
		return s.store(ea, s.ReadF(in.Rd), 4)
	case isa.OpSTDF:
		if err := s.store(ea, s.ReadF(in.Rd&^1), 4); err != nil {
			return err
		}
		return s.store(ea+4, s.ReadF(in.Rd|1), 4)
	}
	return nil
}

// store writes size bytes at addr, journaling the write when LogStores is
// set.
func (s *State) store(addr uint32, v uint32, size uint8) error {
	if s.LogStores {
		s.StoreLog = append(s.StoreLog, StoreRec{Addr: addr, Size: size})
	}
	return s.Mem.Write(addr, v, size)
}
