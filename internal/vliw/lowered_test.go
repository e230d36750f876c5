package vliw

import (
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/sched"
)

// richBlock builds a block exercising the lowered form's main features:
// plain ALU traffic, a renamed producer with source forwarding and its
// copy, a load, a store, and a conditional branch that follows its
// recorded direction.
func richBlock() *sched.Block {
	ren := sched.RenameReg{Class: sched.RenInt, Idx: 0}
	prod := slot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 5}, 0x1000, 0)
	prod.Renames = []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}
	cons := slot(isa.Inst{Op: isa.OpADD, Rd: 3, Rs1: 2, UseImm: true, Imm: 100}, 0x1004, 1)
	cons.SrcRenames = []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}
	br := slot(isa.Inst{Op: isa.OpBICC, Cond: isa.CondNE, Imm: 4}, 0x1008, 2)
	br.BrTaken = false // icc zero flag clear -> bne taken; we run with Z set
	ld := slot(isa.Inst{Op: isa.OpLD, Rd: 4, Rs1: 6, UseImm: true}, 0x100c, 3)
	ld.IsMem = true
	ld.MemSize = 4
	st := slot(isa.Inst{Op: isa.OpST, Rd: 3, Rs1: 6, UseImm: true, Imm: 8}, 0x1010, 4)
	st.IsMem = true
	st.IsStore = true
	st.MemSize = 4
	st.Order = 1
	cp := &sched.Slot{IsCopy: true, Addr: 0x1004, Seq: 1,
		Copies: []sched.RenamePair{{Loc: isa.IReg(2), Reg: ren}}}
	return block(0x1000,
		[]*sched.Slot{prod, br},
		[]*sched.Slot{cons, ld, cp},
		[]*sched.Slot{st})
}

// richState primes a state so richBlock runs exception-free end to end.
func richState() *arch.State {
	st := newState()
	st.SetReg(1, 10)
	st.SetReg(6, 0x40020)
	st.SetICC(isa.ICCZ) // bne not taken, matching the recorded direction
	st.Mem.Write(0x40020, 0xCAFE, 4)
	return st
}

// TestRichBlockExecutes runs richBlock end to end: the renamed producer's
// value reaches its source-forwarded consumer and, through the copy, the
// architectural register; the store commits the consumer's result and
// the load commits the primed word.
func TestRichBlockExecutes(t *testing.T) {
	b := richBlock()
	st := richState()
	e := New(st)
	begin(t, e, b)
	for li := 0; li < b.NumLIs; li++ {
		if res := e.ExecLI(li); res.Exception || res.TraceExit {
			t.Fatalf("LI %d: unexpected result %+v", li, res)
		}
	}
	if st.ReadReg(2) != 15 {
		t.Fatalf("copy committed %d, want 15", st.ReadReg(2))
	}
	if v, _ := st.Mem.Read(0x40028, 4); v != 115 {
		t.Fatalf("stored value %d, want 115", v)
	}
	if st.ReadReg(4) != 0xCAFE {
		t.Fatalf("load committed %#x", st.ReadReg(4))
	}
}

// TestLowerRejectsUnlowerable: a block that breaks a scheduler invariant
// has no lowered form. Lower must return nil (the machine then refuses the
// block at save time) rather than produce something executable.
func TestLowerRejectsUnlowerable(t *testing.T) {
	s := slot(isa.Inst{Op: isa.OpLDSTUB, Rd: 2, Rs1: 6, UseImm: true}, 0x1000, 0)
	s.IsMem = true
	s.MemSize = 1
	if lb := Lower(block(0x1000, []*sched.Slot{s}), 8); lb != nil {
		t.Fatal("LDSTUB (non-schedulable) block lowered")
	}

	prod := slot(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, UseImm: true, Imm: 5}, 0x1000, 0)
	prod.Renames = []sched.RenamePair{{Loc: isa.IReg(2), Reg: sched.RenameReg{Class: sched.RenInt, Idx: 8}}}
	if lb := Lower(block(0x1000, []*sched.Slot{prod}), 8); lb != nil {
		t.Fatal("block naming an unallocated renaming register lowered")
	}
	var pool LoweredPool
	if lb := pool.Lower(block(0x1000, []*sched.Slot{prod}), 8); lb != nil {
		t.Fatal("pooled lowering accepted an unallocated renaming register")
	}
}

// TestEngineHotLoopZeroAlloc is the engine twin of the scheduler feed
// guard: once warmed, re-entering and executing a lowered block must not
// allocate at all — the arenas, rename file and scratch buffers are all
// reused across blocks.
func TestEngineHotLoopZeroAlloc(t *testing.T) {
	b := richBlock()
	lb := Lower(b, 8)
	if lb == nil {
		t.Fatal("richBlock did not lower")
	}
	st := richState()
	e := New(st)
	runBlock := func() {
		// Re-prime the inputs the block consumed so every pass executes
		// the same path (register writes only: no allocation).
		st.SetReg(1, 10)
		st.SetReg(6, 0x40020)
		st.SetICC(isa.ICCZ)
		e.BeginLowered(lb)
		for li := 0; li < b.NumLIs; li++ {
			if res := e.ExecLI(li); res.Exception || res.TraceExit {
				t.Fatalf("LI %d: %+v", li, res)
			}
		}
	}
	runBlock() // warm the arenas
	if allocs := testing.AllocsPerRun(200, runBlock); allocs != 0 {
		t.Fatalf("warmed lowered hot loop allocates %.1f allocs/block, want 0", allocs)
	}
}

// TestPooledLowerMatchesFresh: lowering into a recycled LoweredBlock —
// whose backings still hold another block's lowering — yields exactly a
// fresh lowering, and once the pool is warm it allocates nothing.
func TestPooledLowerMatchesFresh(t *testing.T) {
	small := block(0x2000, []*sched.Slot{slot(isa.Inst{Op: isa.OpADD, Rd: 1, Rs1: 1, UseImm: true, Imm: 1}, 0x2000, 0)})
	var pool LoweredPool
	for i, b := range []*sched.Block{richBlock(), small, richBlock()} {
		lb := pool.Lower(b, 8)
		if lb == nil {
			t.Fatalf("block %d did not lower", i)
		}
		if err := CheckLowered(b, lb, 8); err != nil {
			t.Fatalf("block %d: pooled lowering differs from a fresh one: %v", i, err)
		}
		pool.Put(lb)
	}
	b := richBlock()
	if allocs := testing.AllocsPerRun(100, func() { pool.Put(pool.Lower(b, 8)) }); allocs != 0 {
		t.Fatalf("lowering into a pooled block allocates %.1f times, want 0", allocs)
	}
}
