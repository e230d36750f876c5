package progcheck

import (
	"fmt"
	"strings"

	"dtsvliw/internal/asm"
)

// Options configures a progcheck run. The defaults mirror the repository
// loaders: 8 register windows and the [0x7E000, 0x80000) stack the
// workload harness maps.
type Options struct {
	NWin    int    // register windows (0 = 8)
	StackLo uint32 // stack segment (0,0 = the workload loader's default)
	StackHi uint32
}

func (o *Options) fill() {
	if o.NWin <= 0 {
		o.NWin = 8
	}
	if o.StackLo == 0 && o.StackHi == 0 {
		o.StackLo, o.StackHi = 0x7E000, 0x80000
	}
}

// Result is the outcome of checking one program.
type Result struct {
	CFG   *CFG
	Diags []Diagnostic // sorted, waivers applied
}

// Unwaived returns the diagnostics not covered by a progcheck:allow
// comment, optionally restricted to hard kinds.
func (r *Result) Unwaived(hardOnly bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Waived || (hardOnly && !d.Kind.Hard()) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// Counts tallies the diagnostics per kind (waived ones included; the
// report distinguishes them line by line).
func (r *Result) Counts() map[Kind]int {
	m := make(map[Kind]int)
	for _, d := range r.Diags {
		m[d.Kind]++
	}
	return m
}

// Report renders the result as the deterministic text report committed as
// a golden file: one header line, then one line per diagnostic.
func (r *Result) Report(name string) string {
	var sb strings.Builder
	un := len(r.Unwaived(false))
	fmt.Fprintf(&sb, "%s: %d blocks, %d loops, %d diagnostics (%d unwaived)\n",
		name, len(r.CFG.Blocks), len(r.CFG.Loops), len(r.Diags), un)
	for i := range r.Diags {
		fmt.Fprintf(&sb, "  %s\n", r.Diags[i].String())
	}
	return sb.String()
}

// Analyze runs every pass over an already-assembled program. The source
// is consulted only for waiver comments; pass "" to apply no waivers.
func Analyze(p *asm.Program, source string, o Options) *Result {
	o.fill()
	c := BuildCFG(p)
	c.computeDominators()
	c.findLoops()
	ds := c.structural()
	ds = append(ds, c.uninitReads()...)
	ds = append(ds, c.windowDepth(o.NWin)...)
	ds = append(ds, c.memRange(o.StackLo, o.StackHi)...)
	applyWaivers(ds, source)
	sortDiags(ds)
	return &Result{CFG: c, Diags: ds}
}

// applyWaivers marks the diagnostics a progcheck:allow comment in source
// covers.
func applyWaivers(ds []Diagnostic, source string) {
	if len(ds) == 0 {
		return
	}
	w := parseWaivers(source)
	for i := range ds {
		if ds[i].Line > 0 && w.covers(ds[i].Line, ds[i].Kind) {
			ds[i].Waived = true
		}
	}
}

// Check assembles the source and runs every pass over it.
func Check(source string, o Options) (*Result, error) {
	p, err := asm.Assemble(source)
	if err != nil {
		return nil, fmt.Errorf("progcheck: assemble: %w", err)
	}
	return Analyze(p, source, o), nil
}

// Certify assembles the source and certifies it (CertifyProgram): the
// gate generated programs pass before the differential oracle or an
// experiment is allowed to execute them.
func Certify(source string) error {
	p, err := asm.Assemble(source)
	if err != nil {
		return fmt.Errorf("progcheck: assemble: %w", err)
	}
	return CertifyProgram(p, source)
}

// CertifyProgram fails on any unwaived hard diagnostic of an
// already-assembled program; source supplies the waiver comments.
// Advisory diagnostics never fail certification (generated code trips
// them benignly), and the structural pass is the only one that emits the
// hard kinds, so certification builds the CFG and runs that pass alone:
// it fails exactly when Check(source).Unwaived(true) is non-empty, listing
// those diagnostics.
func CertifyProgram(p *asm.Program, source string) error {
	var hard []Diagnostic
	for _, d := range BuildCFG(p).structural() {
		if d.Kind.Hard() {
			hard = append(hard, d)
		}
	}
	if len(hard) == 0 {
		return nil
	}
	applyWaivers(hard, source)
	sortDiags(hard)
	var msgs []string
	for i := range hard {
		if !hard[i].Waived {
			msgs = append(msgs, hard[i].String())
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("progcheck: %d hard diagnostic(s):\n%s",
		len(msgs), strings.Join(msgs, "\n"))
}
