package oracle

import (
	"errors"
	"strings"
	"testing"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
	"dtsvliw/internal/progen"
)

// wrongRegisterRun runs src differentially and, at the first checkpoint
// from the k-th on where the machine changed a windowed register p since
// the previous checkpoint, rewrites that commit as one to the wrong
// physical register: p keeps its old value and the new value lands in
// p's counterpart one window over — below p when down is set and there
// is such a register, so the lowest differing register is then one only
// the machine wrote. Alongside the oracle's own lock-step
// check it runs the full arch.CompareRegisters at every checkpoint. It
// returns the run's error, the checkpoint description and ordinal of the
// corruption (ordinal 0 if the run ended first), and the first failing
// full comparison.
func wrongRegisterRun(t *testing.T, src string, k int, down bool) (err error, where string, at int, full string) {
	t.Helper()
	p := asm.MustAssemble(src)
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

	nphys := isa.NumPhysRegs(cfg.NWin)
	prev := make([]uint32, nphys)
	for i := range prev {
		prev[i] = mst.ReadReg(uint16(i))
	}
	n := 0
	check := lockstep(m, ref)
	m.CheckpointHook = func(advance uint64, pc uint32, w string) error {
		n++
		if n >= k && at == 0 {
			for r := nphys - 1; r >= 8; r-- {
				if v := mst.ReadReg(uint16(r)); v != prev[r] {
					q := r + 16
					if down && r >= 24 || q >= nphys {
						q = r - 16
					}
					mst.WriteReg(uint16(r), prev[r])
					mst.WriteReg(uint16(q), v)
					where, at = w, n
					break
				}
			}
		}
		err := check(advance, pc, w)
		if diff, ok := arch.CompareRegisters(mst, ref.St); !ok && full == "" {
			full = diff
			if err == nil {
				t.Errorf("checkpoint %d (%s): full comparison fails (%s) but the lock-step check passed", n, w, diff)
			}
		}
		for i := range prev {
			prev[i] = mst.ReadReg(uint16(i))
		}
		return err
	}
	_, err = runLocked(m, ref)
	return err, where, at, full
}

// TestWrongRegisterCommitDiverges: a commit to the wrong physical
// register, on a Primary Processor step or at a VLIW block boundary,
// surfaces as a *Divergence at the very checkpoint it happened before,
// with the text of the full register comparison — the dirty-set
// comparison the oracle uses loses nothing.
func TestWrongRegisterCommitDiverges(t *testing.T) {
	kinds := map[string]int{}
	for seed := int64(0); seed < 6; seed++ {
		src := progen.Generate(progen.ShapeParams(progen.ShapeMixed, seed))
		for _, k := range []int{1, 40, 150, 400, 700, 1000} {
			for _, down := range []bool{false, true} {
				err, where, at, full := wrongRegisterRun(t, src, k, down)
				if at == 0 {
					continue // the run has fewer checkpoints
				}
				var d *Divergence
				if !errors.As(err, &d) {
					t.Fatalf("seed %d, checkpoint %d (%s): corruption not reported as a divergence: %v",
						seed, at, where, err)
				}
				if d.Where != where || d.Diff != full {
					t.Fatalf("seed %d: divergence at %q: %q; corrupted at checkpoint %d %q, full comparison %q",
						seed, d.Where, d.Diff, at, where, full)
				}
				kind, _, _ := strings.Cut(where, " ")
				kinds[kind]++
			}
		}
	}
	t.Logf("corrupted checkpoints by kind: %v", kinds)
	if kinds["primary"] == 0 || kinds["block"]+kinds["trace"] == 0 {
		t.Fatalf("corruptions did not cover both engines: %v", kinds)
	}
}
