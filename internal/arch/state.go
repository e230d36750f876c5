// Package arch holds the architectural state of a SPARC V7 machine
// (register windows, condition codes, Y, FP registers, memory) and a
// sequential interpreter over it. The interpreter is the paper's "test
// machine": it defines correct sequential execution, provides the
// instruction counts used as IPC numerators, and is run in lockstep with
// the DTSVLIW for validation (paper §4, "test mode").
package arch

import (
	"fmt"
	"math/bits"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
)

// Software trap numbers recognised by the simulator's OS model. Traps are
// non-schedulable instructions: they always execute on the Primary
// Processor (paper §3.9).
const (
	TrapExit    = 0 // halt; exit code in %o0
	TrapPutChar = 1 // write byte %o0 to the output stream
	TrapPutUint = 2 // write %o0 as decimal to the output stream
)

// StoreRec records one memory write, for lockstep memory comparison.
type StoreRec struct {
	Addr uint32
	Size uint8
}

// State is the full architectural state of one SPARC V7 machine.
//
// The integer register file is unexported so that every write to it goes
// through this package, which marks the register in the dirty set (see
// CompareDirty). The closed write path is what makes the dirty-set
// checkpoint comparison exact.
type State struct {
	NWin int      //resetcheck:allow window-file geometry is fixed at construction
	regs []uint32 // 8 + NWin*16 physical integer registers; [0] is %g0
	// dirty has one bit per physical integer register, set by every write
	// since the last successful CompareDirty. NewState, Reset, Clone and
	// RestoreRegs set every bit. It shares one allocation with regs.
	dirty []uint32
	F     [32]uint32
	icc   uint8
	fcc   uint8
	y     uint32
	cwp   uint8
	PC    uint32

	Mem *mem.Memory //resetcheck:allow the program image is the caller's to reload (see Reset doc)

	Halted bool
	// LogStores enables journaling of memory writes into StoreLog for
	// lockstep memory comparison.
	LogStores bool
	ExitCode  uint32
	Output    []byte

	// Instret counts retired instructions (the sequential instruction
	// count the paper divides by cycles to obtain IPC).
	Instret uint64

	StoreLog []StoreRec

	dec *decodeCache //resetcheck:allow pure function of raw instruction bits; sharing it across runs is the point
}

// NewState builds a machine state with nwin register windows over m.
func NewState(nwin int, m *mem.Memory) *State {
	s := &State{NWin: nwin, Mem: m}
	s.allocRegs(isa.NumPhysRegs(nwin))
	return s
}

// allocRegs gives s a zeroed file of n integer registers, all marked
// dirty, and the dirty bitset in the same allocation.
func (s *State) allocRegs(n int) {
	buf := make([]uint32, n+(n+31)/32)
	s.regs, s.dirty = buf[:n:n], buf[n:]
	s.markAll()
}

// markAll marks every integer register dirty.
func (s *State) markAll() {
	for i := range s.dirty {
		s.dirty[i] = ^uint32(0)
	}
	if r := len(s.regs) % 32; r != 0 {
		s.dirty[len(s.dirty)-1] = 1<<r - 1
	}
}

// Reset returns the state to power-on over the same memory object:
// registers, condition codes, PC, halt/exit state, output stream, retired
// count and store journal are cleared. The memory contents and the
// decoded-instruction cache are left to the caller (reload the program,
// then call SetTextRange, which reuses the cache's storage). Reusing a
// reset state is observationally identical to building a fresh one.
func (s *State) Reset() {
	clear(s.regs)
	s.markAll()
	s.F = [32]uint32{}
	s.icc, s.fcc, s.y, s.cwp = 0, 0, 0, 0
	s.PC = 0
	s.Halted = false
	s.ExitCode = 0
	s.Output = s.Output[:0]
	s.Instret = 0
	s.LogStores = false
	s.StoreLog = s.StoreLog[:0]
}

// SetTextRange installs a decoded-instruction cache over [base, base+size).
// Nothing checks for self-modifying code: each word is decoded on first
// fetch and that decode wins, so a later store into the range is never
// re-decoded and the old instruction keeps executing. Installing a new
// range over a state whose previous cache has enough capacity reuses its
// storage.
func (s *State) SetTextRange(base, size uint32) {
	n := int(size / 4)
	if d := s.dec; d != nil && cap(d.insts) >= n {
		d.base = base
		d.insts = d.insts[:n]
		d.ok = d.ok[:n]
		for i := range d.ok {
			d.ok[i] = false
		}
		if len(d.extra) > 0 {
			clear(d.extra)
		}
		return
	}
	s.dec = &decodeCache{base: base, insts: make([]isa.Inst, n), ok: make([]bool, n)}
}

// TextRange returns the range the decode cache covers, as its base
// address and length in words (0, 0 before any SetTextRange).
func (s *State) TextRange() (base, words uint32) {
	if s.dec == nil {
		return 0, 0
	}
	return s.dec.base, uint32(len(s.dec.insts))
}

type decodeCache struct {
	base  uint32
	insts []isa.Inst
	ok    []bool
	// extra memoizes decodes outside [base, base+len*4): handwritten tests
	// and trampolines place code outside the declared text range, and the
	// Primary Processor's first-execution path would otherwise re-decode
	// those words on every visit.
	extra map[uint32]*isa.Inst
}

// FetchDecode fetches and decodes the instruction at addr.
func (s *State) FetchDecode(addr uint32) (isa.Inst, error) {
	in, err := s.fetch(addr)
	if err != nil {
		return isa.Inst{}, err
	}
	return *in, nil
}

// fetch is FetchDecode without the copy: it returns a pointer into the
// decode cache. With no cache installed every fetch decodes afresh, into
// a new Inst.
func (s *State) fetch(addr uint32) (*isa.Inst, error) {
	d := s.dec
	if d != nil && addr >= d.base && addr < d.base+uint32(len(d.insts))*4 {
		i := (addr - d.base) / 4
		if d.ok[i] {
			return &d.insts[i], nil
		}
		if err := s.decode(addr, &d.insts[i]); err != nil {
			return nil, err
		}
		d.ok[i] = true
		return &d.insts[i], nil
	}
	if d != nil {
		if in, hit := d.extra[addr]; hit {
			return in, nil
		}
	}
	in := new(isa.Inst)
	if err := s.decode(addr, in); err != nil {
		return nil, err
	}
	if d == nil {
		return in, nil
	}
	if d.extra == nil {
		d.extra = make(map[uint32]*isa.Inst)
	}
	d.extra[addr] = in
	return in, nil
}

// decode reads and decodes the word at addr into *in.
func (s *State) decode(addr uint32, in *isa.Inst) error {
	raw, err := s.Mem.ReadWord(addr)
	if err != nil {
		return err
	}
	if *in, err = isa.Decode(raw); err != nil {
		return fmt.Errorf("at %#08x: %w", addr, err)
	}
	return nil
}

// Register and condition-code accessors ------------------------------------

// ReadReg reads physical integer register idx (%g0 reads as zero).
func (s *State) ReadReg(idx uint16) uint32 {
	if idx == 0 {
		return 0
	}
	return s.regs[idx]
}

// WriteReg writes physical integer register idx (writes to %g0 are
// discarded) and marks it dirty.
func (s *State) WriteReg(idx uint16, v uint32) {
	if idx == 0 {
		return
	}
	s.regs[idx] = v
	s.dirty[idx>>5] |= 1 << (idx & 31)
}

// ReadF reads floating-point register idx.
func (s *State) ReadF(idx uint8) uint32 { return s.F[idx&31] }

// WriteF writes floating-point register idx.
func (s *State) WriteF(idx uint8, v uint32) { s.F[idx&31] = v }

// ICC returns the integer condition codes.
func (s *State) ICC() uint8 { return s.icc }

// SetICC sets the integer condition codes.
func (s *State) SetICC(v uint8) { s.icc = v & 15 }

// FCC returns the floating-point condition code.
func (s *State) FCC() uint8 { return s.fcc }

// SetFCC sets the floating-point condition code.
func (s *State) SetFCC(v uint8) { s.fcc = v & 3 }

// Y returns the Y register.
func (s *State) Y() uint32 { return s.y }

// SetY sets the Y register.
func (s *State) SetY(v uint32) { s.y = v }

// CWP returns the current window pointer.
func (s *State) CWP() uint8 { return s.cwp }

// SetCWP sets the current window pointer.
func (s *State) SetCWP(v uint8) { s.cwp = uint8(int(v) % s.NWin) }

// Reg reads architectural register r (0..31) in the current window.
func (s *State) Reg(r uint8) uint32 {
	return s.ReadReg(isa.PhysReg(s.cwp, r, s.NWin))
}

// SetReg writes architectural register r (0..31) in the current window.
func (s *State) SetReg(r uint8, v uint32) {
	s.WriteReg(isa.PhysReg(s.cwp, r, s.NWin), v)
}

// RegCheckpoint is a copy of the register state — integer file, FP file,
// icc, fcc, Y and CWP — that a State can later be rolled back to: the
// VLIW Engine's shadow registers (paper §3.11). Its storage is reused
// across SaveRegs calls.
type RegCheckpoint struct {
	regs     []uint32
	f        [32]uint32
	icc, fcc uint8
	y        uint32
	cwp      uint8
}

// SaveRegs copies the register state into cp.
func (s *State) SaveRegs(cp *RegCheckpoint) {
	cp.regs = append(cp.regs[:0], s.regs...)
	cp.f = s.F
	cp.icc, cp.fcc, cp.y, cp.cwp = s.icc, s.fcc, s.y, s.cwp
}

// RestoreRegs rolls the register state back to cp, taken by SaveRegs on
// a state of the same geometry. It marks every integer register dirty:
// registers cleared by a checkpoint comparison since SaveRegs may change
// back.
func (s *State) RestoreRegs(cp *RegCheckpoint) {
	copy(s.regs, cp.regs)
	s.F = cp.f
	s.icc, s.fcc, s.y, s.cwp = cp.icc, cp.fcc, cp.y, cp.cwp
	s.markAll()
}

// --------------------------------------------------------------------------

// HandleTrap performs the OS model's action for software trap num. It is
// shared by the reference machine and the DTSVLIW Primary Processor.
func (s *State) HandleTrap(num uint8) error {
	switch num {
	case TrapExit:
		s.Halted = true
		s.ExitCode = s.Reg(8) // %o0
		return nil
	case TrapPutChar:
		s.Output = append(s.Output, byte(s.Reg(8)))
		return nil
	case TrapPutUint:
		s.Output = append(s.Output, []byte(fmt.Sprintf("%d", s.Reg(8)))...)
		return nil
	}
	return fmt.Errorf("arch: unknown software trap %d at PC %#08x", num, s.PC)
}

// Step executes exactly one instruction sequentially, updating PC and
// Instret. It is the reference semantics for the whole simulator.
func (s *State) Step() error {
	var out isa.Outcome
	_, err := s.StepInto(&out)
	return err
}

// StepOutcome executes one instruction and additionally returns its
// decoded form and outcome, which the DTSVLIW Primary Processor forwards
// to the Scheduler Unit.
func (s *State) StepOutcome() (isa.Inst, isa.Outcome, error) {
	var out isa.Outcome
	in, err := s.StepInto(&out)
	if in == nil {
		return isa.Inst{}, out, err
	}
	return *in, out, err
}

// StepInto is StepOutcome without the copies: it executes straight from
// the decode cache, returns the instruction as a pointer into it (nil
// when halted or when the fetch failed) and writes the outcome into
// *out. The pointer is valid until the next SetTextRange.
func (s *State) StepInto(out *isa.Outcome) (*isa.Inst, error) {
	if s.Halted {
		return nil, nil
	}
	pc := s.PC
	in, err := s.fetch(pc)
	if err != nil {
		return nil, err
	}
	if err := s.exec(in, pc, out); err != nil {
		return in, fmt.Errorf("arch: %v executing %q at %#08x", err, in.Disasm(pc), pc)
	}
	s.Instret++
	if out.Trap {
		if err := s.HandleTrap(out.TrapNum); err != nil {
			return in, err
		}
		s.PC = pc + 4
		return in, nil
	}
	s.PC = out.NextPC
	return in, nil
}

// Run executes until the machine halts or maxInstrs retire. It returns an
// error if the limit is reached before halt.
func (s *State) Run(maxInstrs uint64) error {
	start := s.Instret
	for !s.Halted {
		if err := s.Step(); err != nil {
			return err
		}
		if s.Instret-start >= maxInstrs {
			return fmt.Errorf("arch: instruction limit %d reached at PC %#08x", maxInstrs, s.PC)
		}
	}
	return nil
}

// Clone deep-copies the state, including memory. The clone shares nothing
// with the original; it is how the lockstep test machine is created.
func (s *State) Clone() *State {
	c := *s
	c.allocRegs(len(s.regs))
	copy(c.regs, s.regs)
	c.Mem = s.Mem.Snapshot()
	c.Output = append([]byte(nil), s.Output...)
	c.StoreLog = nil
	// The decode cache is append-only between SetTextRange calls, so
	// sharing is safe as long as the clone does not outlive the next
	// SetTextRange on the original (pooled reuse never clones: TestMode
	// configurations bypass the machine pool).
	c.dec = s.dec
	return &c
}

// CompareRegisters reports the first architectural-register difference
// between two states (registers, icc, fcc, y, cwp). It does not compare
// memory; callers compare journaled store addresses separately.
func CompareRegisters(a, b *State) (string, bool) {
	if a.NWin != b.NWin {
		return fmt.Sprintf("nwin %d != %d", a.NWin, b.NWin), false
	}
	for i := range a.regs {
		if a.regs[i] != b.regs[i] {
			return regDiff(a, b, i), false
		}
	}
	return compareRest(a, b)
}

// CompareDirty is CompareRegisters over the registers either state wrote
// since the last successful CompareDirty of the two: it checks the union
// of both dirty sets, then F, icc, fcc, Y and CWP in full, and clears
// both sets only when everything matches. Its result, text included, is
// exactly CompareRegisters': unmarked registers are equal by induction
// (every write marks, and NewState, Reset, Clone and RestoreRegs mark
// all), so the lowest differing index in the union is the lowest
// differing index overall.
//
// A dirty set belongs to one lock-step pair. Comparing a state against a
// second partner clears bits the first pair still relies on, so each
// state may take part in CompareDirty calls with one partner only.
func CompareDirty(a, b *State) (string, bool) {
	if a.NWin != b.NWin {
		return fmt.Sprintf("nwin %d != %d", a.NWin, b.NWin), false
	}
	for w := range a.dirty {
		for m := a.dirty[w] | b.dirty[w]; m != 0; m &= m - 1 {
			i := w*32 + bits.TrailingZeros32(m)
			if a.regs[i] != b.regs[i] {
				return regDiff(a, b, i), false
			}
		}
	}
	if diff, ok := compareRest(a, b); !ok {
		return diff, false
	}
	for w := range a.dirty {
		a.dirty[w], b.dirty[w] = 0, 0
	}
	return "", true
}

func regDiff(a, b *State, i int) string {
	return fmt.Sprintf("phys r%d: %#x != %#x", i, a.regs[i], b.regs[i])
}

// compareRest compares the register state outside the integer file.
func compareRest(a, b *State) (string, bool) {
	if a.F != b.F {
		for i := range a.F {
			if a.F[i] != b.F[i] {
				return fmt.Sprintf("f%d: %#x != %#x", i, a.F[i], b.F[i]), false
			}
		}
	}
	if a.icc != b.icc {
		return fmt.Sprintf("icc: %#x != %#x", a.icc, b.icc), false
	}
	if a.fcc != b.fcc {
		return fmt.Sprintf("fcc: %#x != %#x", a.fcc, b.fcc), false
	}
	if a.y != b.y {
		return fmt.Sprintf("y: %#x != %#x", a.y, b.y), false
	}
	if a.cwp != b.cwp {
		return fmt.Sprintf("cwp: %d != %d", a.cwp, b.cwp), false
	}
	return "", true
}
