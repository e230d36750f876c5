package arch

import (
	"encoding/binary"
	"testing"

	"dtsvliw/internal/asm"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
)

// dirtyProg loops forever through window changes, flag updates, stores
// and loads, so StepOutcome exercises every kind of integer-file write.
const dirtyProg = `
	.text 0x1000
start:
	mov 3, %o0
loop:
	save %sp, -96, %sp
	add %i0, 1, %l0
	addcc %l0, %g1, %g2
	sub %g2, 3, %o1
	restore %o1, %l0, %o2
	subcc %o0, 1, %o0
	bg loop
	st %o2, [%sp+64]
	ld [%sp+64], %g3
	ldd [%sp+64], %g4
	b start
`

// dirtyPair builds two states running dirtyProg over separate memories.
func dirtyPair(t testing.TB, nwin int) (a, b *State, p *asm.Program) {
	t.Helper()
	p, err := asm.Assemble(dirtyProg)
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *State {
		m := mem.NewMemory()
		p.Load(m)
		m.Map(0x7F000, 0x1000)
		s := NewState(nwin, m)
		s.SetTextRange(p.TextBase, p.TextSize)
		restart(s, p)
		return s
	}
	return mk(), mk(), p
}

// restart points s at the program entry with a fresh stack pointer.
func restart(s *State, p *asm.Program) {
	s.PC = p.Entry
	s.SetReg(14, 0x7FF00)
}

// FuzzCompareDirty interleaves every write path into the integer file —
// WriteReg, SetReg, StepOutcome, Reset and the shadow checkpoint
// SaveRegs/RestoreRegs — on two states, one side or both at a time, and
// at random checkpoints demands that CompareDirty agrees with
// CompareRegisters on both the verdict and the text.
func FuzzCompareDirty(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 2, 6, 2, 2, 2, 6, 4, 1, 0, 0, 0, 0, 0, 6, 5, 2, 6})
	f.Add([]byte{3, 2, 6, 5, 3, 2, 2, 6, 5, 2, 6, 2, 1, 6})
	f.Add([]byte{0, 1, 40, 7, 0, 0, 0, 6, 0, 0, 40, 7, 0, 0, 0, 6, 7, 6})
	f.Fuzz(func(t *testing.T, ops []byte) {
		a, b, p := dirtyPair(t, 8)
		var cps [2]RegCheckpoint
		var saved [2]bool
		nphys := isa.NumPhysRegs(8)
		arg := func(n int) []byte {
			var buf [8]byte
			k := copy(buf[:n], ops)
			ops = ops[k:]
			return buf[:n]
		}
		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			// The low bits pick the action, the next two the side: a,
			// b, or both (which keeps the pair mostly equal, so
			// comparisons succeed and clear the dirty sets).
			var sides []*State
			switch (op >> 3) & 3 {
			case 0:
				sides = []*State{a}
			case 1:
				sides = []*State{b}
			default:
				sides = []*State{a, b}
			}
			switch op & 7 {
			case 0:
				x := arg(5)
				idx := uint16(int(x[0]) % nphys)
				v := binary.LittleEndian.Uint32(x[1:])
				for _, s := range sides {
					s.WriteReg(idx, v)
				}
			case 1:
				x := arg(5)
				v := binary.LittleEndian.Uint32(x[1:])
				for _, s := range sides {
					s.SetReg(x[0]&31, v)
				}
			case 2:
				for _, s := range sides {
					s.StepOutcome() // faults are part of the interleaving
				}
			case 3:
				for _, s := range sides {
					s.Reset()
					restart(s, p)
				}
			case 4:
				for _, s := range sides {
					i := sideOf(s, a)
					s.SaveRegs(&cps[i])
					saved[i] = true
				}
			case 5:
				for _, s := range sides {
					if i := sideOf(s, a); saved[i] {
						s.RestoreRegs(&cps[i])
					}
				}
			case 6:
				wantDiff, wantOK := CompareRegisters(a, b)
				gotDiff, gotOK := CompareDirty(a, b)
				if gotOK != wantOK || gotDiff != wantDiff {
					t.Fatalf("CompareDirty = %q, %v; CompareRegisters = %q, %v",
						gotDiff, gotOK, wantDiff, wantOK)
				}
			case 7:
				// Copy a's value of one register into b.
				idx := uint16(int(arg(1)[0]) % nphys)
				b.WriteReg(idx, a.ReadReg(idx))
			}
		}
		wantDiff, wantOK := CompareRegisters(a, b)
		if gotDiff, gotOK := CompareDirty(a, b); gotOK != wantOK || gotDiff != wantDiff {
			t.Fatalf("final: CompareDirty = %q, %v; CompareRegisters = %q, %v",
				gotDiff, gotOK, wantDiff, wantOK)
		}
	})
}

func sideOf(s, a *State) int {
	if s == a {
		return 0
	}
	return 1
}

// TestCompareDirtyClearsOnlyOnSuccess: a failed comparison keeps both
// dirty sets, so the difference is reported again at the next checkpoint
// even if neither side writes in between; a successful one clears them.
func TestCompareDirtyClearsOnlyOnSuccess(t *testing.T) {
	a, b, _ := dirtyPair(t, 8)
	if diff, ok := CompareDirty(a, b); !ok {
		t.Fatalf("fresh pair differs: %s", diff)
	}
	for _, s := range []*State{a, b} {
		for _, w := range s.dirty {
			if w != 0 {
				t.Fatal("successful CompareDirty left dirty bits set")
			}
		}
	}
	a.WriteReg(100, 7)
	want, _ := CompareRegisters(a, b)
	for i := 0; i < 2; i++ {
		if diff, ok := CompareDirty(a, b); ok || diff != want {
			t.Fatalf("checkpoint %d: CompareDirty = %q, %v; want %q", i, diff, ok, want)
		}
	}
}
