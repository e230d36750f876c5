package oracle

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/asm"
	"dtsvliw/internal/core"
)

// ckpt is one commit-checkpoint observation of a machine run: the hook's
// identification of the synchronisation point plus a fingerprint of the
// architectural state and journaled memory at that point.
type ckpt struct {
	where   string
	advance uint64
	pc      uint32
	fp      uint64
}

// RunDiffEngines assembles source and executes it twice on the full
// DTSVLIW machine under cfg — once with the interpreted VLIW Engine
// (re-executing sched.Slot structures) and once with the decode-once
// lowered block form (DESIGN.md §11) — locked together at every commit
// checkpoint. The interpreted run goes first and records, per
// checkpoint, the sequential advance, the PC and a fingerprint of all
// architectural registers, condition codes and journaled memory; the
// lowered run then replays the same program and must produce the
// identical checkpoint sequence. After both halt, exit code, output,
// registers, the whole memory image and the cycle count are compared:
// lowering must be timing-identical, not merely architecturally
// identical.
//
// A *Divergence means the lowered engine disagrees with the interpreted
// one; a *ProgramError means the program itself is faulty (both engines
// reject it identically).
func RunDiffEngines(source string, cfg core.Config) (*Result, error) {
	return programRunner(runDiffEnginesProgram).onSource(source, cfg)
}

// runDiffEnginesProgram is RunDiffEngines on an already-assembled program.
func runDiffEnginesProgram(p *asm.Program, cfg core.Config) (*Result, error) {
	return runDiffEngines(p, cfg, nil)
}

// runDiffEngines is the shared core of RunDiffEngines and the pooled
// SweepContext.RunDiffEngines: with a non-nil SweepContext the two
// machines execute on borrowed pooled contexts and the checkpoint trace
// reuses the context's buffer.
func runDiffEngines(p *asm.Program, cfg core.Config, sc *SweepContext) (*Result, error) {
	cfg = normalizeDiffConfig(cfg)

	// Both contexts stay borrowed until every comparison below is done:
	// the final check reads both machines' full states side by side.
	var ctxI, ctxL *core.MachineContext
	if sc != nil {
		defer func() {
			sc.pool.Put(ctxI)
			sc.pool.Put(ctxL)
		}()
	}

	var trace []ckpt
	if sc != nil {
		trace = sc.ckpts[:0]
	}
	var mi, ml *core.Machine
	var errI, errL error
	var consumed int
	ctxI, mi, trace, _, errI = engineRun(p, cfg, true, nil, trace, sc)
	if sc != nil {
		sc.ckpts = trace // keep the (possibly grown) buffer for reuse
	}
	if errI != nil {
		var pe *ProgramError
		if errors.As(errI, &pe) {
			return nil, pe
		}
	}
	ctxL, ml, _, consumed, errL = engineRun(p, cfg, false, trace, nil, sc)
	if errL != nil {
		var d *Divergence
		if errors.As(errL, &d) {
			return nil, d
		}
		var pe *ProgramError
		if errors.As(errL, &pe) {
			return nil, pe
		}
	}

	// Both runs must fail identically or both succeed.
	if (errI == nil) != (errL == nil) ||
		(errI != nil && errL != nil && errI.Error() != errL.Error()) {
		return nil, &Divergence{Where: "machine fault",
			Diff: fmt.Sprintf("interpreted engine: %v; lowered engine: %v", errI, errL),
			Seq:  ml.RefInstret()}
	}
	if errI != nil {
		// The program faults the same way on both engines: its own bug.
		return nil, &ProgramError{Stage: "machine", Err: errI}
	}

	if consumed != len(trace) {
		return nil, &Divergence{Where: "final state",
			Diff: fmt.Sprintf("checkpoint count: interpreted %d, lowered %d", len(trace), consumed),
			Seq:  ml.RefInstret()}
	}
	mk := func(diff string) *Divergence {
		return &Divergence{Where: "final state", Diff: diff, Seq: ml.RefInstret()}
	}
	if ml.St.ExitCode != mi.St.ExitCode {
		return nil, mk(fmt.Sprintf("exit code: lowered %d, interpreted %d", ml.St.ExitCode, mi.St.ExitCode))
	}
	if diff, ok := arch.CompareRegisters(ml.St, mi.St); !ok {
		return nil, mk(diff)
	}
	if !bytes.Equal(ml.St.Output, mi.St.Output) {
		return nil, mk(fmt.Sprintf("output: lowered %q, interpreted %q", ml.St.Output, mi.St.Output))
	}
	if addr, differs := ml.St.Mem.FirstDiff(mi.St.Mem); differs {
		a, _ := ml.St.Mem.Read(addr, 1)
		b, _ := mi.St.Mem.Read(addr, 1)
		return nil, mk(fmt.Sprintf("mem[%#08x]: lowered %#02x, interpreted %#02x", addr, a, b))
	}
	if ml.Stats.Cycles != mi.Stats.Cycles {
		return nil, mk(fmt.Sprintf("cycles: lowered %d, interpreted %d", ml.Stats.Cycles, mi.Stats.Cycles))
	}
	return &Result{
		ExitCode: ml.St.ExitCode,
		Output:   append([]byte(nil), ml.St.Output...),
		Instret:  ml.RefInstret(),
		Cycles:   ml.Stats.Cycles,
	}, nil
}

// engineRun executes the assembled program on one machine. With follow ==
// nil it records the checkpoint trace (into traceBuf's storage when
// provided); otherwise it verifies each checkpoint against the recorded
// trace and fails with a *Divergence on the first mismatch. consumed
// reports how many recorded checkpoints the run replayed. With a non-nil
// SweepContext the machine comes from its pool; the returned context is
// the caller's to Put once it is done with the machine's state.
func engineRun(p *asm.Program, cfg core.Config, interpreted bool, follow, traceBuf []ckpt, sc *SweepContext) (ctx *core.MachineContext, m *core.Machine, trace []ckpt, consumed int, err error) {
	cfg.InterpretedEngine = interpreted
	if sc != nil {
		ctx, err = sc.pool.Get(cfg)
	} else {
		ctx, err = core.NewMachineContext(cfg)
	}
	if err != nil {
		return nil, nil, nil, 0, &ProgramError{Stage: "machine", Err: err}
	}
	st := ctx.State()
	loadProgram(st, p)
	st.LogStores = true
	m, err = ctx.Prepare()
	if err != nil {
		return ctx, nil, nil, 0, &ProgramError{Stage: "machine", Err: err}
	}
	trace = traceBuf
	m.CheckpointHook = func(advance uint64, pc uint32, where string) error {
		fp := engineFingerprint(m)
		if follow == nil {
			trace = append(trace, ckpt{where: where, advance: advance, pc: pc, fp: fp})
			return nil
		}
		if consumed >= len(follow) {
			return &Divergence{Where: where,
				Diff: fmt.Sprintf("lowered engine reached checkpoint %d but the interpreted run had only %d", consumed+1, len(follow)),
				Seq:  m.RefInstret()}
		}
		exp := follow[consumed]
		consumed++
		if exp.where != where || exp.advance != advance || exp.pc != pc || exp.fp != fp {
			return &Divergence{Where: where,
				Diff: fmt.Sprintf("checkpoint %d: lowered (%s, advance %d, pc %#08x, state %#016x) != interpreted (%s, advance %d, pc %#08x, state %#016x)",
					consumed, where, advance, pc, fp, exp.where, exp.advance, exp.pc, exp.fp),
				Seq: m.RefInstret()}
		}
		return nil
	}
	err = m.Run()
	return ctx, m, trace, consumed, err
}

// engineFingerprint hashes the architectural registers, condition codes
// and the current values of every journaled memory location (draining the
// journal), so two runs agree at a checkpoint iff the fingerprints match.
func engineFingerprint(m *core.Machine) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w32 := func(v uint32) {
		buf[0], buf[1], buf[2], buf[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(buf[:4])
	}
	for _, r := range m.St.Regs {
		w32(r)
	}
	for _, f := range m.St.F {
		w32(f)
	}
	h.Write([]byte{m.St.ICC(), m.St.FCC(), m.St.CWP()})
	w32(m.St.Y())
	for _, rec := range m.DrainJournal() {
		w32(rec.Addr)
		h.Write([]byte{rec.Size})
		v, err := m.St.Mem.Read(rec.Addr, rec.Size)
		if err != nil {
			v = 0xdead
		}
		w32(v)
	}
	w32(uint32(len(m.St.Output)))
	return h.Sum64()
}
