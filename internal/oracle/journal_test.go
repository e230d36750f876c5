package oracle

import (
	"errors"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/mem"
)

// journalProgram never stores, so every journaled record at a checkpoint
// is one the test seeded.
const journalProgram = `
	.data 0x40000
buf:	.space 64
	.text 0x1000
start:
	mov 1, %o0
	add %o0, 2, %o1
	ta 0
`

// seededDiff runs journalProgram differentially after seed has written
// into the machine's and the reference's initial states and journaled
// the writes, and returns the divergence the first checkpoint reports.
func seededDiff(t *testing.T, seed func(mst, rst *arch.State)) *Divergence {
	t.Helper()
	p := asm.MustAssemble(journalProgram)
	cfg := normalizeDiffConfig(core.IdealConfig(8, 8))
	rst := arch.NewState(cfg.NWin, mem.NewMemory())
	loadProgram(rst, p)
	ref := RefOver(rst)
	mst := arch.NewState(cfg.NWin, mem.NewMemory())
	loadProgram(mst, p)
	mst.LogStores = true
	m, err := core.NewMachine(cfg, mst)
	if err != nil {
		t.Fatal(err)
	}
	seed(mst, rst)
	_, err = runDiffOn(m, ref)
	var d *Divergence
	if !errors.As(err, &d) {
		t.Fatalf("seeded journal mismatch not reported as a divergence: %v", err)
	}
	return d
}

// store writes v at addr into st and journals it the way a committed
// store would be.
func store(t *testing.T, st *arch.State, addr, v uint32) {
	t.Helper()
	if err := st.Mem.Write(addr, v, 4); err != nil {
		t.Fatal(err)
	}
	st.StoreLog = append(st.StoreLog, arch.StoreRec{Addr: addr, Size: 4})
}

// TestDiffJournalChecksBothLogs: a store mismatch journaled only by the
// machine and one journaled only by the reference both surface as a
// divergence naming the location, so the journal diff reads both logs.
func TestDiffJournalChecksBothLogs(t *testing.T) {
	for _, c := range []struct {
		side string
		seed func(mst, rst *arch.State)
		want string
	}{
		{"machine", func(mst, _ *arch.State) { store(t, mst, 0x40010, 0x1234) },
			"mem[0x00040010/4]: machine 0x1234, reference 0x0"},
		{"reference", func(_, rst *arch.State) { store(t, rst, 0x40010, 0x1234) },
			"mem[0x00040010/4]: machine 0x0, reference 0x1234"},
	} {
		if d := seededDiff(t, c.seed); d.Diff != c.want {
			t.Errorf("%s-side mismatch: diff %q, want %q", c.side, d.Diff, c.want)
		}
	}
}

// TestDiffJournalReadsDrainedRecords: the drained machine journal shares
// its backing with the machine, so diffJournal must read every drained
// record before anything appends to the journal again. The mismatch is
// the last of several machine records, after matching ones, with
// matching reference records queued behind them.
func TestDiffJournalReadsDrainedRecords(t *testing.T) {
	d := seededDiff(t, func(mst, rst *arch.State) {
		for a := uint32(0x40000); a < 0x40020; a += 4 {
			store(t, mst, a, a)
			store(t, rst, a, a)
		}
		store(t, mst, 0x40030, 7)
		store(t, rst, 0x40020, 0)
	})
	if want := "mem[0x00040030/4]: machine 0x7, reference 0x0"; d.Diff != want {
		t.Errorf("diff %q, want %q", d.Diff, want)
	}
}
