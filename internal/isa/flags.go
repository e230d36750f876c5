package isa

import (
	"fmt"
	"math"
)

// Outcome reports the control-flow and memory effects of one executed
// instruction.
type Outcome struct {
	NextPC  uint32
	IsCTI   bool   // instruction transferred control (or could have)
	Taken   bool   // conditional branch resolved taken
	Target  uint32 // resolved target for CTIs
	EA      uint32 // effective address for memory instructions
	HasEA   bool
	Trap    bool  // Ticc trapped (or conditional trap taken)
	TrapNum uint8 // software trap number
}

// AlignmentError reports a misaligned memory access.
type AlignmentError struct {
	Addr uint32
	Size uint8
}

func (e *AlignmentError) Error() string {
	return fmt.Sprintf("isa: misaligned %d-byte access at %#08x", e.Size, e.Addr)
}

// AddICC computes the integer condition codes produced by an addition of
// a and b with result r. The sequential interpreter (internal/arch) and
// the VLIW Engine's lowered executor share this one definition of the
// flag semantics, as they share the other flag helpers below.
func AddICC(a, b, r uint32, carry bool) uint8 {
	var icc uint8
	if r&0x80000000 != 0 {
		icc |= ICCN
	}
	if r == 0 {
		icc |= ICCZ
	}
	if (a&0x80000000) == (b&0x80000000) && (a&0x80000000) != (r&0x80000000) {
		icc |= ICCV
	}
	if carry {
		icc |= ICCC
	}
	return icc
}

// SubICC computes the integer condition codes produced by a subtraction
// a-b with result r.
func SubICC(a, b, r uint32, borrow bool) uint8 {
	var icc uint8
	if r&0x80000000 != 0 {
		icc |= ICCN
	}
	if r == 0 {
		icc |= ICCZ
	}
	if (a&0x80000000) != (b&0x80000000) && (b&0x80000000) == (r&0x80000000) {
		icc |= ICCV
	}
	if borrow {
		icc |= ICCC
	}
	return icc
}

// LogicICC computes the integer condition codes produced by a logical
// operation with result r.
func LogicICC(r uint32) uint8 {
	var icc uint8
	if r&0x80000000 != 0 {
		icc |= ICCN
	}
	if r == 0 {
		icc |= ICCZ
	}
	return icc
}

// CmpFCC computes the floating-point condition code of comparing a to b.
func CmpFCC(a, b float64) uint8 {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return FCCU
	case a < b:
		return FCCL
	case a > b:
		return FCCG
	default:
		return FCCE
	}
}
