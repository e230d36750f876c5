package oracle

import (
	"fmt"
	"testing"

	"dtsvliw/internal/progcheck"
	"dtsvliw/internal/progen"
)

// TestCaseCertificationMatchesCertify: a sweep case certifies the program
// it assembled once, and reports exactly what progcheck.Certify reports
// for the source — the Failure.Err of an uncertifiable case is unchanged.
func TestCaseCertificationMatchesCertify(t *testing.T) {
	srcs := []string{
		"start:\n\t.word 0xffffffff\n\tta 0\n",      // undecodable
		"start:\n\tb 0x9000\n\tnop\n",               // branch out of text
		"start:\n\tmov 1, %o0\n\tadd %o0, 1, %o0\n", // falls off the end
		"start:\n\tbogus %o0\n",                     // does not assemble
		"start:\n\tadd %g1, 1, %o0\n\tta 0\n",       // advisory only: certifies
	}
	for _, shape := range progen.Shapes() {
		srcs = append(srcs, progen.Generate(progen.ShapeParams(shape, 3)))
	}
	for _, src := range srcs {
		p, err := assembleCertified(src)
		want := progcheck.Certify(src)
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Errorf("case certification = %v, progcheck.Certify = %v\n%s", err, want, src)
		}
		if err == nil && p == nil {
			t.Errorf("certified case returned no program:\n%s", src)
		}
	}
}
