package asm_test

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"dtsvliw/internal/asm"
	"dtsvliw/internal/progen"
	"dtsvliw/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/assemble_golden.json from the current assembler")

// assembleGoldenPath holds one entry per golden input: the exact error
// text of a rejected source, or one digest of everything an accepted
// source assembles to.
const assembleGoldenPath = "testdata/assemble_golden.json"

// goldenProgenSeeds is the number of progen seeds per shape in the corpus.
const goldenProgenSeeds = 200

// malformedSources reaches every error site of the assembler, in both
// passes, plus the lexing corners (case folding, tab-separated
// mnemonics, comments inside strings, labels re-placed by pass 2) whose
// accepted output must not drift either.
var malformedSources = map[string]string{
	// Directives.
	"dup-label":        "dup:\n\tnop\ndup:\n\tnop\n",
	"org-backwards":    "\t.text 0x1000\n\tnop\n\t.org 0x1000\n",
	"org-forward":      "\t.org 0x1100\n\tnop\n",
	"org-dot":          "\t.org . + 8\n\tnop\n",
	"align-not-pow2":   "\t.align 3\n",
	"align-zero":       "\t.align 0\n",
	"align-pad":        "\t.byte 1\n\t.align 4\n\tnop\n",
	"bad-string":       "\t.ascii hi\n",
	"bad-escape":       "\t.ascii \"\\q\"\n",
	"string-escapes":   "\t.data\ns:\t.asciz \"a\\tb\\n\"\n\t.ascii \"x;y!z#\"\n",
	"unknown-dir":      "\t.bogus 3\n",
	"text-undefined":   "\t.text nowhere\n\tnop\n",
	"text-late":        "\tnop\n\t.text 0x3000\n\tnop\n",
	"text-forward":     "\t.text base\n\tnop\nbase:\tnop\n",
	"data-rebase":      "\t.data 0x50000\n\t.data 0x60000\nv:\t.word v\n",
	"word-empty-expr":  "\t.data\n\t.word 1,,2\n",
	"word-list":        "\t.data\nt:\t.word t, t+4, .\n\t.half -1, 0x12345\n\t.byte 300, -2\n",
	"word-bare":        "\t.word\n",
	"space-forward":    "\t.space n\nn:\n\tnop\n",
	"skip-undefined":   "\t.skip nowhere\n",
	"ignored-dirs":     "\t.global start\n\t.type start, #function\nstart:\tnop\n\t.size start, 4\n",
	"unaligned-inst":   "\t.byte 1\n\tnop\n\tnop\n",
	"unaligned-base":   "\t.text 0x1001\n\tnop\n\tnop\n",
	"inst-in-data":     "\t.data\nfoo:\tnop\n\t.text\nstart:\tcall foo\n\tnop\n",
	"entry-main":       "\t.text 0x2000\n\tnop\nmain:\tnop\n",
	"entry-start-main": "\t.text 0x2000\nmain:\tnop\nstart:\tnop\n",
	"empty":            "",
	"no-newline":       "\tnop",
	"crlf":             "\tnop\r\n\tbadop\r\n",

	// Expressions.
	"empty-expr":      "\tmov , %o0\n",
	"undefined":       "\tba nowhere\n",
	"pass1-beats-2":   "\tba nowhere\n\tbadop\n",
	"pass2-order":     "\tba x\n\tba y\n",
	"hi-lo":           "\tsethi %hi(x), %g1\n\tor %g1, %lo(x), %g1\n\t.org 0x1ff00\nx:\tnop\n",
	"hi-lo-upper":     "\tsethi %HI(x), %g1\n\tor %g1, %Lo(x), %g1\nx:\tnop\n",
	"hi-dotted-i":     "\tsethi %hİ(x), %g1\n\tor %g1, %LO(x), %g1\nx:\tnop\n",
	"hi-empty":        "\tsethi %hi(), %g1\n",
	"lo-unbalanced":   "\tor %g1, %lo(x, %g1\n",
	"expr-arith":      "\tset x+8-4, %g1\n\tset -8, %g2\n\tset 0x100000000, %g3\nx:\tnop\n",
	"neg-symbol":      "\tset -x, %g1\nx:\n",
	"dot":             "\tba .\n\tnop\n",
	"huge-number":     "\tmov 99999999999999999999, %g1\n",
	"unsigned-number": "\tset 0xffffffffffffffff, %g1\n",
	"simm13-high":     "\tadd %g1, 99999, %g3\n",
	"simm13-low":      "\tadd %g1, -4097, %g3\n",
	"simm13-pass2":    "\tadd %g1, big, %g2\n\t.org 0x3000\nbig:\tnop\n",
	"mov-all-ones":    "\tmov 0xffffffff, %g1\n",

	// Memory operands.
	"mem-expected":  "\tld %g1, %g2\n",
	"mem-bad":       "\tld [%g1 %g2], %g3\n",
	"mem-symbolic":  "\tld [%g1*4], %g2\n",
	"mem-forms":     "\tld [%g1], %g2\n\tld [%g1+%g3], %g2\n\tld [%g1-8], %g2\n\tld [16], %g2\n\tst %g2, [%fp+-4]\n",
	"mem-absolute":  "\tld [99999], %g2\n",
	"load-eval-1st": "\tld [%g1+99999], %bogus\n",

	// Operand counts and registers, per mnemonic.
	"need":          "\tmov 1\n",
	"mov-dest":      "\tmov 1, 2\n",
	"set-dest":      "\tset 1, %q1\n",
	"cmp-reg":       "\tcmp 1, %g1\n",
	"tst-reg":       "\ttst 5\n",
	"clr-reg":       "\tclr %x0\n",
	"inc-reg":       "\tinc %g9\n",
	"inc-eval-1st":  "\tinc , %bogus\n",
	"inc-late-reg":  "\tinc 4, %bogus\n",
	"dec-count":     "\tdec 1, 2, 3\n",
	"inc-forms":     "\tinc %g1\n\tdec 3, %g2\n\tinc big, %g3\n\t.org 0x9000\nbig:\n",
	"inc-forms-ok":  "\tinc %g1\n\tdec 3, %g2\n\tinc 8, %g3\n",
	"neg-reg":       "\tneg 3\n",
	"not-reg":       "\tnot 3\n",
	"jmp-bad":       "\tjmp foo\n",
	"jmp-minus":     "\tjmp %g1-4\n",
	"jmp-forms":     "\tjmp %g1\n\tjmp %g1+8\n\tjmp %g1+%g2\n",
	"rd-not-y":      "\trd %psr, %g1\n",
	"rd-dest":       "\trd %y, 4\n",
	"wr-not-y":      "\twr %g1, 0, %psr\n",
	"wr-source":     "\twr 1, 0, %y\n",
	"wr-forms":      "\twr %g1, 3, %y\n\trd %Y, %g2\n",
	"call-undef":    "\tcall nowhere\n",
	"sethi-dest":    "\tsethi 1, %bogus\n",
	"sethi-1st":     "\tsethi %hi(), %bogus\n",
	"load-dest":     "\tld [%g1], %bogus\n",
	"store-source":  "\tst 4, [%g1]\n",
	"store-mem":     "\tst %g1, %g2\n",
	"ldf-dest":      "\tldf [%g1], %g1\n",
	"ldf-eval-1st":  "\tlddf [%g1+99999], %g1\n",
	"stf-source":    "\tstdf %g1, [%g1]\n",
	"fp3-bad":       "\tfadds %f1, %g2, %f3\n",
	"fp2-bad":       "\tfitos %f1, %f40\n",
	"fcmp-bad":      "\tfcmpd %f1, 2\n",
	"fp-forms":      "\tfmuld %f0, %f2, %f4\n\tfdtoi %f4, %f5\n\tfcmps %f1, %f2\n\tstf %f1, [%g1+4]\n",
	"alu-regs":      "\tadd 1, %g2, %g3\n",
	"alu-count":     "\tadd %g1, %g2\n",
	"jmpl-bad":      "\tjmpl foo, %g0\n",
	"jmpl-dest":     "\tjmpl %g1+8, foo\n",
	"jmpl-eval-1st": "\tjmpl %g1+99999, %bogus\n",
	"jmpl-forms":    "\tjmpl %g1, %o7\n\tjmpl %g1-4, %g0\n\tjmpl %g1+%g2, %g0\n\tjmpl %g1+8, %g0\n",
	"save-forms":    "\tsave\n\trestore\n\tsave %sp, -96, %sp\n\trestore %o0, 0, %o0\n",
	"unknown-inst":  "\tfoo %g1, %g2, %g3\n",
	"unknown-fb":    "\tfbx target\n",
	"branch-forms":  "x:\tb,a x\n\tfbule,a x\n\tbne x\n\tbz,a x\n\tfba x\n\tbn x\n",
	"trap-forms":    "\ttz 3\n\tta %g1\n\ttst %g1\n",
	"trap-sum":      "\ttne %g1+%g2\n",
	"trap-count":    "\tta\n",
	"upper-case":    "\tUNIMP\n\tADD %G1, %G2, %G3\n\tBA start\nstart:\n",
	"tab-separated": "\tadd\t%g1,\t%g2, %g3\n\tset\tFOO, %g1\n\tld\t[%g1], %g2\nfoo:\n",
	"labels":        "a: b: c:\n\tnop\nd:\te: nop ! x: y:\n",
	"label-space":   "my label: nop\n",
	"label-string":  "\t.ascii \"a:b\"\n",
	"comments":      "! c\n; c\n# c\n\tnop ; tail\n",
}

// goldenInputs collects every golden input by name.
func goldenInputs(t *testing.T) map[string]string {
	t.Helper()
	in := map[string]string{}
	for _, w := range workloads.All() {
		in["workload/"+w.Name] = w.Source
	}
	for _, shape := range progen.Shapes() {
		for seed := int64(0); seed < goldenProgenSeeds; seed++ {
			in[fmt.Sprintf("progen/%s/%d", shape, seed)] = progen.Generate(progen.ShapeParams(shape, seed))
		}
	}
	for i, s := range asm.FuzzAssembleSeeds {
		in[fmt.Sprintf("fuzzseed/%d", i)] = s
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzAssemble")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		in["fuzzcorpus/"+e.Name()] = corpusString(t, e.Name(), string(data))
	}
	for name, src := range malformedSources {
		in["malformed/"+name] = src
	}
	return in
}

// corpusString decodes a one-string `go test fuzz v1` corpus file.
func corpusString(t *testing.T, name, data string) string {
	t.Helper()
	_, body, ok := strings.Cut(data, "\n")
	body = strings.TrimSpace(body)
	if !ok || !strings.HasPrefix(body, "string(") || !strings.HasSuffix(body, ")") {
		t.Fatalf("%s: not a one-string fuzz corpus file", name)
	}
	s, err := strconv.Unquote(body[len("string(") : len(body)-1])
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return s
}

// assembleDigest renders the outcome of assembling src: the exact error
// text, or one sha256 over the sections, entry, text geometry, sorted
// symbol table and the source line of every text word.
func assembleDigest(src string) string {
	p, err := asm.Assemble(src)
	if err != nil {
		return "error: " + err.Error()
	}
	h := sha256.New()
	for _, s := range p.Sections {
		fmt.Fprintf(h, "section %#x %d\n", s.Addr, len(s.Bytes))
		h.Write(s.Bytes)
	}
	fmt.Fprintf(h, "entry %#x text %#x+%#x\n", p.Entry, p.TextBase, p.TextSize)
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols { //determinism:allow sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "sym %q %#x\n", n, p.Symbols[n])
	}
	for off := uint32(0); off < p.TextSize; off += 4 {
		fmt.Fprintf(h, "%d\n", p.LineOf(p.TextBase+off))
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil))
}

// TestAssembleGolden pins the assembler's observable output — the image,
// symbols and line table of every accepted input, the exact error of
// every rejected one — over every workload, a progen corpus, the fuzz
// seeds and corpus, and a table reaching each error site. Run with
// -update to re-record (only legitimate for an intentional change to
// the dialect).
func TestAssembleGolden(t *testing.T) {
	got := map[string]string{}
	for name, src := range goldenInputs(t) { //determinism:allow results keyed by name
		got[name] = assembleDigest(src)
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ") // map keys marshal sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(assembleGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %d entries to %s", len(got), assembleGoldenPath)
		return
	}
	data, err := os.ReadFile(assembleGoldenPath)
	if err != nil {
		t.Fatalf("golden missing (run with -update to record): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("corpus size changed: golden has %d inputs, corpus has %d", len(want), len(got))
	}
	names := make([]string, 0, len(got))
	for n := range got { //determinism:allow sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if got[n] != want[n] {
			t.Errorf("%s: assembly changed\n  got  %s\n  want %s", n, got[n], want[n])
		}
	}
}
