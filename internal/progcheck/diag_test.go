package progcheck

import (
	"strings"
	"testing"
)

// kinds returns the multiset of diagnostic kinds in r, waived included.
func kinds(r *Result) map[Kind]int {
	out := map[Kind]int{}
	for _, d := range r.Diags {
		out[d.Kind]++
	}
	return out
}

// checkSrc runs Check and fails on assembler errors.
func checkSrc(t *testing.T, src string) *Result {
	t.Helper()
	r, err := Check(src, Options{})
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return r
}

// seededPrograms holds one seeded-bad program per diagnostic kind.
var seededPrograms = []struct {
	name  string
	src   string
	want  Kind
	extra []Kind // other kinds the same defect legitimately raises
}{
	{
		name: "undecodable",
		src: `
start:
	.word 0xffffffff
	ta 0
`,
		want: KindUndecodable,
		// The undecodable word ends the known control flow, so the
		// trap after it is (conservatively) unreachable too.
		extra: []Kind{KindUnreachable},
	},
	{
		name: "branch-out-of-text",
		src: `
start:
	b 0x9000
	nop
`,
		want: KindBranchOutOfText,
	},
	{
		name: "fall-off-end",
		src: `
start:
	mov 1, %o0
	add %o0, 1, %o0
`,
		want: KindFallOffEnd,
	},
	{
		name: "unreachable",
		src: `
start:
	ta 0
orphan:
	mov 1, %o0
	ta 0
`,
		want: KindUnreachable,
	},
	{
		name: "uninit-read",
		src: `
start:
	add %g1, 1, %o0
	ta 0
`,
		want: KindUninitRead,
	},
	{
		name: "window-depth",
		src: `
start:
loop:
	save %sp, -96, %sp
	b loop
	nop
`,
		want: KindWindowDepth,
	},
	{
		name: "window-underflow",
		src: `
start:
	restore
	ta 0
`,
		want: KindWindowUnderflow,
	},
	{
		name: "mem-range",
		src: `
start:
	set 0xF00000, %g1
	ld [%g1], %g2
	ta 0
`,
		want: KindMemRange,
	},
}

// Each seeded-bad program triggers exactly its own kind (plus any listed
// extras the defect drags along).
func TestDiagnosticKinds(t *testing.T) {
	for _, tc := range seededPrograms {
		t.Run(tc.name, func(t *testing.T) {
			r := checkSrc(t, tc.src)
			got := kinds(r)
			if got[tc.want] == 0 {
				t.Fatalf("no %s diagnostic; report:\n%s", tc.want, r.Report(tc.name))
			}
			allowed := map[Kind]bool{tc.want: true}
			for _, k := range tc.extra {
				allowed[k] = true
			}
			for k, n := range got {
				if !allowed[k] {
					t.Errorf("unexpected %s x%d; report:\n%s", k, n, r.Report(tc.name))
				}
			}
			if tc.want.Hard() != (tc.want <= KindFallOffEnd) {
				t.Errorf("Hard() classification drifted for %s", tc.want)
			}
		})
	}
}

func TestCleanProgramHasNoDiagnostics(t *testing.T) {
	r := checkSrc(t, `
start:
	mov 10, %l0
loop:
	subcc %l0, 1, %l0
	bg loop
	nop
	ta 0
`)
	if len(r.Diags) != 0 {
		t.Fatalf("clean program raised diagnostics:\n%s", r.Report("clean"))
	}
}

func TestWaiverSuppressesOwnAndNextLine(t *testing.T) {
	// The directive covers its own line and the line below; the same
	// defect two lines further down must stay unwaived.
	r := checkSrc(t, `
start:
	add %g1, 1, %o0 ! progcheck:allow uninit-read seeded for the waiver test
	nop
	add %g2, 1, %o0
	ta 0
`)
	var waived, open int
	for _, d := range r.Diags {
		if d.Kind != KindUninitRead {
			t.Fatalf("unexpected kind %s", d.Kind)
		}
		if d.Waived {
			waived++
		} else {
			open++
		}
	}
	if waived != 1 || open != 1 {
		t.Fatalf("waived=%d open=%d, want exactly the directive's line waived:\n%s",
			waived, open, r.Report("waiver"))
	}
	if got := len(r.Unwaived(false)); got != 1 {
		t.Errorf("Unwaived(false) = %d findings, want 1", got)
	}
}

func TestWaiverLineAbove(t *testing.T) {
	r := checkSrc(t, `
start:
	! progcheck:allow uninit-read directive on the line above the defect
	add %g1, 1, %o0
	ta 0
`)
	if got := len(r.Unwaived(false)); got != 0 {
		t.Fatalf("line-above waiver did not apply:\n%s", r.Report("above"))
	}
}

func TestWaiverWithoutKindListCoversAll(t *testing.T) {
	r := checkSrc(t, `
start:
	! progcheck:allow seeded: bare directive waives every kind here
	add %g1, 1, %o0
	ta 0
`)
	if got := len(r.Unwaived(false)); got != 0 {
		t.Fatalf("bare directive did not waive:\n%s", r.Report("bare"))
	}
}

func TestWaiverWrongKindDoesNotApply(t *testing.T) {
	r := checkSrc(t, `
start:
	add %g1, 1, %o0 ! progcheck:allow mem-range wrong kind on purpose
	ta 0
`)
	if got := len(r.Unwaived(false)); got != 1 {
		t.Fatalf("a mem-range waiver suppressed an uninit-read:\n%s", r.Report("wrong"))
	}
}

func TestCertifyRejectsHardAcceptsAdvisory(t *testing.T) {
	if err := Certify(`
start:
	.word 0xffffffff
	ta 0
`); err == nil {
		t.Error("Certify accepted an undecodable program")
	} else if !strings.Contains(err.Error(), "undecodable") {
		t.Errorf("Certify error does not name the kind: %v", err)
	}
	// Advisory-only defects (uninit-read) pass certification.
	if err := Certify(`
start:
	add %g1, 1, %o0
	ta 0
`); err != nil {
		t.Errorf("Certify rejected an advisory-only program: %v", err)
	}
}

func TestKindByNameRoundTrips(t *testing.T) {
	for _, k := range Kinds() {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Errorf("KindByName(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := KindByName("no-such-kind"); ok {
		t.Error("KindByName accepted an unknown name")
	}
}
