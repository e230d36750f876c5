package oracle

import (
	"fmt"
	"strings"

	"dtsvliw/internal/arch"
	"dtsvliw/internal/isa"
)

// contextWindow is the number of recently retired reference instructions
// kept for divergence reports.
const contextWindow = 16

// Ref is the oracle's reference interpreter: a strictly sequential SPARC
// V7 machine over internal/arch state with no scheduling, no VLIW Cache
// and no speculation. It remembers the last few retired instructions so a
// divergence report can show the disassembled neighbourhood of the fault.
type Ref struct {
	St *arch.State

	ring [contextWindow]refStep
	n    uint64 // total retired since construction
}

// refStep keeps the decoded instruction, not its disassembly: rendering
// the text is deferred to Context, so the per-step cost on the hot path
// is a struct copy instead of a string format.
type refStep struct {
	pc uint32
	in isa.Inst
}

// NewRef builds a reference interpreter for source with nwin register
// windows (the standard layout of BuildState).
func NewRef(source string, nwin int) (*Ref, error) {
	st, err := BuildState(source, nwin)
	if err != nil {
		return nil, err
	}
	return RefOver(st), nil
}

// RefOver wraps an already prepared state (program loaded, PC and stack
// initialised) as a reference interpreter, enabling store journaling.
func RefOver(st *arch.State) *Ref {
	st.LogStores = true
	return &Ref{St: st}
}

// Rebind points the reference at a freshly prepared state and clears the
// context ring, so one Ref can serve many runs (the pooled sweep path).
func (r *Ref) Rebind(st *arch.State) {
	st.LogStores = true
	r.St = st
	r.ring = [contextWindow]refStep{}
	r.n = 0
}

// Step retires exactly one instruction sequentially and records it in the
// context ring. Stepping a halted machine is an error: the oracle calls
// Step only when the DTSVLIW claims to have committed an instruction, so
// "reference already halted" means the machines disagree about program
// length.
func (r *Ref) Step() error {
	if r.St.Halted {
		return fmt.Errorf("reference halted after %d instructions but the machine kept committing", r.n)
	}
	pc := r.St.PC
	var out isa.Outcome
	in, err := r.St.StepInto(&out)
	if err != nil {
		return err
	}
	r.ring[r.n%contextWindow] = refStep{pc: pc, in: *in}
	r.n++
	return nil
}

// Retired returns the number of instructions the reference has retired.
func (r *Ref) Retired() uint64 { return r.n }

// Context renders the disassembled window of recently retired reference
// instructions, most recent last. The final line is the instruction whose
// commit diverged (or the last one before the machines disagreed).
func (r *Ref) Context() string {
	if r.n == 0 {
		return "  (no instructions retired yet)"
	}
	var b strings.Builder
	count := r.n
	if count > contextWindow {
		count = contextWindow
	}
	for i := r.n - count; i < r.n; i++ {
		s := r.ring[i%contextWindow]
		marker := "  "
		if i == r.n-1 {
			marker = "=>"
		}
		fmt.Fprintf(&b, "%s [%6d] %#08x  %s\n", marker, i+1, s.pc, s.in.Disasm(s.pc))
	}
	return strings.TrimRight(b.String(), "\n")
}
