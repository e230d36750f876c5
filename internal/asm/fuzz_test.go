package asm

import (
	"testing"

	"dtsvliw/internal/isa"
)

// FuzzAssembleSeeds are the fuzz seed inputs; the assembler golden
// (golden_test.go) pins their assembly too.
var FuzzAssembleSeeds = []string{
	"\t.text 0x1000\nstart:\n\tnop\n\tta 0\n",
	"\tadd %g1, %g2, %g3\n",
	"lbl:\tld [%l0+4], %o0\n\tba lbl\n",
	"\t.data\nx:\t.word 1,2,3\n\t.ascii \"hi\"\n",
	"\tset 0xDEADBEEF, %o0\n\tcmp %o0, 0\n",
	"\t.align 8\n\t.space 12\n",
	"\tfadds %f0, %f1, %f2\n\tfble start\n",
	"bad",
	"\t.word",
	"a:a:a:",
}

// FuzzAssemble: the assembler must reject or accept arbitrary input
// without panicking, and anything it accepts must decode cleanly.
func FuzzAssemble(f *testing.F) {
	for _, s := range FuzzAssembleSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		for _, sec := range p.Sections {
			if sec.Addr != p.TextBase {
				continue
			}
			for i := 0; i+4 <= len(sec.Bytes); i += 4 {
				raw := uint32(sec.Bytes[i])<<24 | uint32(sec.Bytes[i+1])<<16 |
					uint32(sec.Bytes[i+2])<<8 | uint32(sec.Bytes[i+3])
				if _, err := isa.Decode(raw); err != nil {
					t.Fatalf("assembler emitted undecodable word %#08x from %q", raw, src)
				}
			}
		}
	})
}
