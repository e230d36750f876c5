// Package blockcheck statically verifies the legality of scheduled VLIW
// blocks: translation validation in the spirit of SMT-based schedule
// verification, specialised to the DTSVLIW Scheduler Unit. Given a saved
// block together with the sequential instruction trace it was scheduled
// from (Block.Trace, recorded under sched.Config.RecordTrace), Verify
// proves — without executing the block — that the schedule preserves the
// source program's dependences, that renaming/splitting is internally
// consistent, that branch tags make every speculative operation
// squashable, that resource and geometry constraints hold, and that the
// lowered micro-op form agrees with the slot grid. See DESIGN.md §13 for
// the legality conditions and their derivation from the paper's rules.
package blockcheck

import (
	"fmt"
	"strings"

	"dtsvliw/internal/isa"
)

// Kind classifies a legality violation. Every kind corresponds to one
// statically checkable legality condition; meta-tests assert that each
// seeded scheduler fault is flagged with its expected kind.
type Kind uint8

// Violation kinds.
const (
	// KindTrace: the recorded trace span and the block disagree — missing
	// or duplicated sequence numbers, a scheduled slot whose instruction,
	// address, window pointer or recorded runtime outcome differs from the
	// trace, or a schedulable trace instruction absent from the grid.
	KindTrace Kind = iota
	// KindFootprint: a slot's recorded dependency footprint (reads/writes
	// after renaming) does not match the footprint reconstructed from the
	// trace and the slot's renaming metadata.
	KindFootprint
	// KindRAW: a consumer is scheduled at or above its producer's long
	// instruction (true dependence broken).
	KindRAW
	// KindLatency: a consumer sits inside a multicycle producer's latency
	// shadow (the result has not landed when the consumer issues).
	KindLatency
	// KindWAR: a younger writer's result lands before an older reader
	// issues (anti dependence broken).
	KindWAR
	// KindWAW: two writes to one location land in the wrong order, or
	// share a long instruction (output dependence broken).
	KindWAW
	// KindRenameNoProducer: a copy instruction commits a renaming register
	// no producer slot writes.
	KindRenameNoProducer
	// KindRenameNoCopy: a renamed output has no copy instruction
	// committing it to its architectural location — the value leaks past
	// block exit in a renaming register.
	KindRenameNoCopy
	// KindRenameDup: a renaming register has more than one producer or
	// more than one committing copy.
	KindRenameDup
	// KindSrcRename: a source operand reads a renaming register that does
	// not hold the newest value of the architectural location at that
	// point of the source order.
	KindSrcRename
	// KindCopyOrder: a copy instruction does not sit strictly below its
	// producer (the engine's rename bypass only covers pending writes from
	// earlier long instructions).
	KindCopyOrder
	// KindTag: a slot's branch tag differs from the number of conditional/
	// indirect branches preceding it (in source order) within its long
	// instruction.
	KindTag
	// KindSpeculation: an operation hoisted above a source-order-earlier
	// branch is not squashable — it commits an architectural effect
	// directly instead of writing renaming registers only.
	KindSpeculation
	// KindResource: a slot violates a functional-unit constraint, carries
	// a latency the configuration does not assign, or names a renaming
	// register outside the block's allocation.
	KindResource
	// KindGeometry: the block's shape is inconsistent — line count, row
	// width, next-block-address line or valid-op count.
	KindGeometry
	// KindMemOrder: load/store order fields or cross bits are inconsistent
	// with the trace's memory-access order, so the engine's dynamic
	// aliasing detection could miss a reordered pair.
	KindMemOrder
	// KindLowered: the block has no lowered micro-op form, or the form
	// stored alongside it does not decode to the same semantic
	// operations as the slot grid.
	KindLowered

	numKinds
)

var kindNames = [numKinds]string{
	"trace", "footprint", "raw", "latency", "war", "waw",
	"rename-no-producer", "rename-no-copy", "rename-dup", "src-rename",
	"copy-order", "tag", "speculation", "resource", "geometry",
	"mem-order", "lowered",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Violation is one machine-readable legality failure, locating the
// offending slot by cycle (long-instruction index) and slot column.
type Violation struct {
	Kind  Kind
	Cycle int    // long-instruction index, -1 when not slot-specific
	Slot  int    // slot column, -1 when not slot-specific
	Addr  uint32 // SPARC address of the offending instruction (0 if none)
	Seq   uint64 // sequence number of the offending instruction (0 if none)
	Tag   uint8  // branch tag of the offending slot (0 if none)
	// Locs lists the architectural or renaming locations involved (the
	// overlapping footprint entries of a dependence violation, the renamed
	// location of a rename-linkage violation).
	Locs   []isa.Loc
	Detail string
}

func (v Violation) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "[%v]", v.Kind)
	if v.Cycle >= 0 {
		fmt.Fprintf(&sb, " li=%d", v.Cycle)
		if v.Slot >= 0 {
			fmt.Fprintf(&sb, " slot=%d", v.Slot)
		}
	}
	if v.Addr != 0 || v.Seq != 0 {
		fmt.Fprintf(&sb, " addr=%#08x seq=%d", v.Addr, v.Seq)
	}
	if len(v.Locs) > 0 {
		sb.WriteString(" locs=")
		for i, l := range v.Locs {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.String())
		}
	}
	if v.Detail != "" {
		fmt.Fprintf(&sb, ": %s", v.Detail)
	}
	return sb.String()
}

// Report is the result of verifying one block.
type Report struct {
	BlockTag   uint32
	EntryCWP   uint8
	NumLIs     int
	Violations []Violation
}

// Ok reports whether the block verified clean.
func (r *Report) Ok() bool { return len(r.Violations) == 0 }

// Has reports whether the report contains a violation of kind k.
func (r *Report) Has(k Kind) bool {
	for _, v := range r.Violations {
		if v.Kind == k {
			return true
		}
	}
	return false
}

// Kinds returns the distinct violation kinds present, in kind order.
func (r *Report) Kinds() []Kind {
	var present [numKinds]bool
	for _, v := range r.Violations {
		present[v.Kind] = true
	}
	var out []Kind
	for k, p := range present {
		if p {
			out = append(out, Kind(k))
		}
	}
	return out
}

// String renders the report for human consumption (the dtsvliw-blockcheck
// CLI output format).
func (r *Report) String() string {
	var sb strings.Builder
	status := "OK"
	if !r.Ok() {
		status = fmt.Sprintf("%d violation(s)", len(r.Violations))
	}
	fmt.Fprintf(&sb, "block %#08x cwp=%d LIs=%d: %s\n",
		r.BlockTag, r.EntryCWP, r.NumLIs, status)
	for _, v := range r.Violations {
		fmt.Fprintf(&sb, "  %s\n", v.String())
	}
	return sb.String()
}

func (r *Report) add(v Violation) {
	r.Violations = append(r.Violations, v)
}

// Error converts a failing report into an error (nil when clean).
func (r *Report) Error() error {
	if r.Ok() {
		return nil
	}
	return &VerifyError{Report: r}
}

// VerifyError wraps a failing Report as an error.
type VerifyError struct{ Report *Report }

func (e *VerifyError) Error() string {
	return fmt.Sprintf("blockcheck: %s", strings.TrimSuffix(e.Report.String(), "\n"))
}
