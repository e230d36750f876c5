package oracle

import (
	"bytes"
	"errors"
	"fmt"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
	"dtsvliw/internal/mem"
)

// maxDiffCycles bounds every differential run so shrunk candidates that
// loop forever cannot hang the oracle.
const maxDiffCycles = 50_000_000

// refSlack is the instruction budget granted to the reference when the
// machine faults and the oracle needs to know whether sequential
// execution would have finished cleanly.
const refSlack = 10_000_000

// Divergence reports that the DTSVLIW machine and the sequential
// reference interpreter disagreed. It is the oracle's positive finding:
// the equivalence invariant of the paper is violated.
type Divergence struct {
	Where   string // machine checkpoint at which the disagreement surfaced
	Diff    string // first architectural difference found
	Seq     uint64 // sequential instructions retired by the reference
	Context string // disassembled window of recent reference instructions
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("divergence at %s (seq %d): %s\nreference context:\n%s",
		d.Where, d.Seq, d.Diff, d.Context)
}

// Result summarises one clean differential run.
type Result struct {
	ExitCode uint32
	Output   []byte
	Instret  uint64 // sequential instructions retired by the reference
	Cycles   uint64 // DTSVLIW cycles
}

// RunDiff assembles source and executes it twice — once on the full
// DTSVLIW machine under cfg, once on the sequential reference
// interpreter — locked together at every commit checkpoint of the
// machine. At each checkpoint it compares PC, every architectural
// register (integer windows, FP, icc, fcc, Y, CWP), all journaled memory
// locations and the trap output stream; at halt it additionally diffs
// the whole memory image and the exit code.
//
// The comparison is fully independent of the machine's own lockstep
// TestMode, which RunDiff forces off. A *Divergence error means the
// machine is wrong; a *ProgramError means the program itself is faulty
// (it also misbehaves sequentially), which the conformance driver treats
// as a generator bug rather than a machine bug.
func RunDiff(source string, cfg core.Config) (*Result, error) {
	return programRunner(runDiffProgram).onSource(source, cfg)
}

// runDiffProgram is RunDiff on an already-assembled program: one assembly
// serves both machines, loaded into two independent memories.
func runDiffProgram(p *asm.Program, cfg core.Config) (*Result, error) {
	cfg = normalizeDiffConfig(cfg)
	refSt := arch.NewState(cfg.NWin, mem.NewMemory())
	loadProgram(refSt, p)
	ref := RefOver(refSt)

	st := arch.NewState(cfg.NWin, mem.NewMemory())
	loadProgram(st, p)
	st.LogStores = true
	m, err := core.NewMachine(cfg, st)
	if err != nil {
		return nil, &ProgramError{Stage: "machine", Err: err}
	}
	return runDiffOn(m, ref)
}

// programRunner is a differential runner over an assembled program (the
// plain, engines and pooled paths all have one).
type programRunner func(*asm.Program, core.Config) (*Result, error)

// onSource adapts a programRunner to assembly source: the public
// source-taking runners, and the shrinker, whose candidates are
// re-assembled one by one.
func (run programRunner) onSource(source string, cfg core.Config) (*Result, error) {
	p, err := asm.Assemble(source)
	if err != nil {
		return nil, &ProgramError{Stage: "assemble", Err: err}
	}
	return run(p, cfg)
}

// normalizeDiffConfig applies the differential runner's config policy:
// the machine's own TestMode is forced off (the oracle's comparison is
// independent of it), runs are cycle-bounded, and the window count gets
// the standard default.
func normalizeDiffConfig(cfg core.Config) core.Config {
	cfg.TestMode = false
	if cfg.MaxCycles == 0 || cfg.MaxCycles > maxDiffCycles {
		cfg.MaxCycles = maxDiffCycles
	}
	if cfg.NWin <= 0 {
		cfg.NWin = defaultWin
	}
	return cfg
}

// runDiffOn performs the lock-step differential comparison on a prepared
// machine and reference interpreter (same program loaded into both). It
// is the shared core of RunDiff and the pooled SweepContext.RunDiff.
func runDiffOn(m *core.Machine, ref *Ref) (*Result, error) {
	m.CheckpointHook = func(advance uint64, pc uint32, where string) error {
		for i := uint64(0); i < advance; i++ {
			if err := ref.Step(); err != nil {
				return &Divergence{Where: where, Diff: err.Error(),
					Seq: ref.Retired(), Context: ref.Context()}
			}
		}
		if ref.St.PC != pc {
			return &Divergence{Where: where,
				Diff: fmt.Sprintf("PC: machine %#08x, reference %#08x", pc, ref.St.PC),
				Seq:  ref.Retired(), Context: ref.Context()}
		}
		if diff, ok := arch.CompareRegisters(m.St, ref.St); !ok {
			return &Divergence{Where: where, Diff: diff,
				Seq: ref.Retired(), Context: ref.Context()}
		}
		if d := diffJournal(m, ref); d != "" {
			return &Divergence{Where: where, Diff: d,
				Seq: ref.Retired(), Context: ref.Context()}
		}
		if !bytes.Equal(m.St.Output, ref.St.Output) {
			return &Divergence{Where: where,
				Diff: fmt.Sprintf("output: machine %q, reference %q", m.St.Output, ref.St.Output),
				Seq:  ref.Retired(), Context: ref.Context()}
		}
		return nil
	}

	if err := m.Run(); err != nil {
		var d *Divergence
		if errors.As(err, &d) {
			return nil, d
		}
		// The machine faulted outside the comparison. If sequential
		// execution finishes cleanly the fault is the machine's own —
		// that is a divergence with teeth, not a broken program.
		if refErr := finishRef(ref); refErr != nil {
			return nil, &ProgramError{Stage: "reference", Err: refErr}
		}
		return nil, &Divergence{Where: "machine fault",
			Diff: fmt.Sprintf("machine error %q but the reference halted cleanly (exit %d)", err, ref.St.ExitCode),
			Seq:  ref.Retired(), Context: ref.Context()}
	}

	if d := finalDiff(m, ref); d != nil {
		return nil, d
	}
	return &Result{
		ExitCode: m.St.ExitCode,
		Output:   append([]byte(nil), m.St.Output...),
		Instret:  ref.Retired(),
		Cycles:   m.Stats.Cycles,
	}, nil
}

// diffJournal drains both machines' store journals and compares the
// current memory contents at every journaled location.
func diffJournal(m *core.Machine, ref *Ref) string {
	recs := append(m.DrainJournal(), ref.St.StoreLog...)
	ref.St.StoreLog = ref.St.StoreLog[:0]
	for _, rec := range recs {
		a, errA := m.St.Mem.Read(rec.Addr, rec.Size)
		b, errB := ref.St.Mem.Read(rec.Addr, rec.Size)
		if errA != nil || errB != nil {
			return fmt.Sprintf("mem[%#08x/%d]: machine read %v, reference read %v",
				rec.Addr, rec.Size, errA, errB)
		}
		if a != b {
			return fmt.Sprintf("mem[%#08x/%d]: machine %#x, reference %#x",
				rec.Addr, rec.Size, a, b)
		}
	}
	return ""
}

// finalDiff performs the full end-of-run comparison after a clean halt.
func finalDiff(m *core.Machine, ref *Ref) *Divergence {
	mk := func(diff string) *Divergence {
		return &Divergence{Where: "final state", Diff: diff,
			Seq: ref.Retired(), Context: ref.Context()}
	}
	if !ref.St.Halted {
		return mk(fmt.Sprintf("machine halted but reference is still at PC %#08x after %d instructions",
			ref.St.PC, ref.Retired()))
	}
	if m.St.ExitCode != ref.St.ExitCode {
		return mk(fmt.Sprintf("exit code: machine %d, reference %d", m.St.ExitCode, ref.St.ExitCode))
	}
	if diff, ok := arch.CompareRegisters(m.St, ref.St); !ok {
		return mk(diff)
	}
	if !bytes.Equal(m.St.Output, ref.St.Output) {
		return mk(fmt.Sprintf("output: machine %q, reference %q", m.St.Output, ref.St.Output))
	}
	if addr, differs := m.St.Mem.FirstDiff(ref.St.Mem); differs {
		a, _ := m.St.Mem.Read(addr, 1)
		b, _ := ref.St.Mem.Read(addr, 1)
		return mk(fmt.Sprintf("mem[%#08x]: machine %#02x, reference %#02x", addr, a, b))
	}
	return nil
}

// finishRef runs the reference to halt after a machine fault so the
// oracle can tell a machine bug from a broken program.
func finishRef(ref *Ref) error {
	for !ref.St.Halted {
		if ref.Retired() >= refSlack {
			return fmt.Errorf("reference exceeded %d instructions without halting", uint64(refSlack))
		}
		if err := ref.Step(); err != nil {
			return err
		}
	}
	return nil
}
