package progcheck

import (
	"fmt"
	"strings"
	"testing"

	"dtsvliw/internal/asm"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/workloads"
)

// certifyByCheck is certification defined from the full analysis: the
// program fails exactly when Check reports an unwaived hard diagnostic,
// with the error text certification has always produced.
func certifyByCheck(source string) error {
	r, err := Check(source, Options{})
	if err != nil {
		return err
	}
	hard := r.Unwaived(true)
	if len(hard) == 0 {
		return nil
	}
	msgs := make([]string, len(hard))
	for i := range hard {
		msgs[i] = hard[i].String()
	}
	return fmt.Errorf("progcheck: %d hard diagnostic(s):\n%s", len(hard), strings.Join(msgs, "\n"))
}

// assertSameCertification checks that CertifyProgram and Certify agree
// with certifyByCheck on source: the same verdict and the same error text.
func assertSameCertification(t *testing.T, name, source string) (failed bool) {
	t.Helper()
	p, err := asm.Assemble(source)
	if err != nil {
		t.Fatalf("%s: assemble: %v", name, err)
	}
	want := fmt.Sprint(certifyByCheck(source))
	if got := fmt.Sprint(CertifyProgram(p, source)); got != want {
		t.Errorf("%s: CertifyProgram = %s, full analysis = %s", name, got, want)
	}
	if got := fmt.Sprint(Certify(source)); got != want {
		t.Errorf("%s: Certify = %s, full analysis = %s", name, got, want)
	}
	return want != "<nil>"
}

// TestCertifyProgramMatchesCheck: certifying with the structural pass
// alone on the already-assembled program fails exactly when the full
// analysis reports an unwaived hard diagnostic, with identical text, over
// every progen shape, the eight workloads and the seeded-bad programs.
func TestCertifyProgramMatchesCheck(t *testing.T) {
	seeds := 500
	if testing.Short() {
		seeds = 50
	}
	for _, shape := range progen.Shapes() {
		for seed := int64(1); seed <= int64(seeds); seed++ {
			src := progen.Generate(progen.ShapeParams(shape, seed))
			if assertSameCertification(t, fmt.Sprintf("%s/%d", shape, seed), src) {
				t.Errorf("%s/%d: generated program failed certification", shape, seed)
			}
		}
	}
	for _, w := range workloads.All() {
		if assertSameCertification(t, w.Name, w.Source) {
			t.Errorf("%s: workload failed certification", w.Name)
		}
	}
	waivedClean := 0
	for _, tc := range seededPrograms {
		failed := assertSameCertification(t, tc.name, tc.src)
		if failed != tc.want.Hard() {
			t.Errorf("%s: certification failed=%v, want %v", tc.name, failed, tc.want.Hard())
		}
		// Waivers apply identically: a waiver covers a hard diagnostic
		// whose address maps to a source line (a .word in text maps to
		// none, so the undecodable defect stays uncertifiable).
		if tc.want.Hard() && !assertSameCertification(t, tc.name+"/waived", waiveAll(tc.src)) {
			waivedClean++
		}
	}
	if waivedClean == 0 {
		t.Error("no waived seeded-bad program certified: the waiver path went unexercised")
	}
}

// waiveAll appends a bare progcheck:allow comment to every instruction
// line of source.
func waiveAll(source string) string {
	lines := strings.Split(source, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, "\t") {
			lines[i] = l + " ! " + AllowDirective
		}
	}
	return strings.Join(lines, "\n")
}
