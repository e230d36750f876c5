// Package asm implements a two-pass assembler for the SPARC V7 subset in
// package isa, plus the program image the simulators load. It stands in
// for the paper's gcc toolchain: every workload in internal/workloads is
// written in this assembly dialect.
//
// Dialect summary:
//
//	! comment                     (also ; and # start comments)
//	.text [addr]   .data [addr]   .org addr
//	.word e, e ...  .half ...  .byte ...  .ascii "s"  .asciz "s"
//	.space n       .align n
//	label:
//	add %r1, %r2, %r3      add %o0, -4, %o1
//	ld [%l0+4], %o2        st %o2, [%l0+%l1]
//	sethi %hi(sym), %g1    or %g1, %lo(sym), %g1
//	ba loop   bne,a done   call func   jmpl %o7+8, %g0
//	save %sp, -96, %sp     restore
//	ta 0
//
// Pseudo-instructions: nop, mov, set, cmp, tst, clr, ret, retl, inc, dec,
// neg, not, b (alias of ba), jmp.
package asm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dtsvliw/internal/isa"
	"dtsvliw/internal/mem"
)

// Section is a contiguous byte range of the assembled image.
type Section struct {
	Addr  uint32
	Bytes []byte
}

// Program is an assembled image ready to load.
type Program struct {
	Sections []Section
	Entry    uint32
	Symbols  map[string]uint32
	TextBase uint32
	TextSize uint32
	// lines holds, per text word, the 1-based source line of the
	// instruction assembled there (0 for data and padding); see LineOf.
	lines []int32
}

// LineOf returns the source line the instruction at addr was assembled
// from, or 0 if addr is not a text word holding an emitted instruction
// (data, padding, other sections). Pseudo-instructions that expand to
// several words (set) map every word to the same line. Static checkers
// (internal/progcheck) use it to report diagnostics against the
// assembly source and to honour line-scoped waiver comments.
func (p *Program) LineOf(addr uint32) int {
	off := addr - p.TextBase
	if off%4 != 0 || off/4 >= uint32(len(p.lines)) {
		return 0
	}
	return int(p.lines[off/4])
}

// Load copies the program into memory and returns nothing; pages are
// mapped as needed.
func (p *Program) Load(m *mem.Memory) {
	for _, s := range p.Sections {
		m.LoadBytes(s.Addr, s.Bytes)
	}
}

// Error is an assembly error with source position.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// The assembler lexes each source line exactly once, on pass 1, into a
// stmt record; both passes then execute the records. Executing evaluates
// the expression operands against the symbol table, lays out the image
// and encodes instructions, so a forward reference reads 0 on pass 1
// (which only has to get every size and label right) and resolves on
// pass 2, which fills the image. Errors come in two-pass order: every
// line's lexing and pass-1 evaluation, in source order, before any
// pass-2 evaluation.
type assembler struct {
	symbols    map[string]uint32
	text, data secState
	cur        *secState
	pass       int

	stmts    []stmt
	labelBuf []string // label names, in source order
	exprBuf  []string // expression operands and .ascii payloads, likewise
	// ops is the operand-split scratch buffer, reused across lines.
	ops []string
	// late is a structural error in an operand that follows the current
	// line's expression operand (e.g. a bad load destination after the
	// address). The dialect reports operand errors left to right, so
	// exec reports it only once the expression has evaluated cleanly.
	// Lexing sets it, so it only ever fails pass 1, on the line just
	// lexed.
	late error
	// lines records, on pass 2, the source line of each text word.
	lines []int32
}

type secState struct {
	base, pc uint32
	size     int    // bytes laid out this pass
	bytes    []byte // the image, filled on pass 2 only
}

// stmtKind is what a source line carries once its labels are stripped.
type stmtKind uint8

const (
	stmtNone   stmtKind = iota // labels only, or an ignored directive
	stmtInst                   // one instruction: in, completed by imm
	stmtSet                    // set: sethi+or into in.Rd
	stmtText                   // .text [expr]
	stmtData                   // .data [expr]
	stmtOrg                    // .org expr
	stmtAlign                  // .align expr
	stmtSpace                  // .space/.skip expr
	stmtValues                 // .word/.half/.byte expr, ... (width in size)
	stmtASCII                  // .ascii payload
	stmtASCIZ                  // .asciz payload
)

// immMode says how an instruction's expression operand completes it.
type immMode uint8

const (
	immSimm13 immMode = iota // range-checked simm13 second operand
	immRaw                   // Imm = value (inc/dec amount)
	immDisp                  // Imm = word displacement from pc
	immSethi                 // Imm = value's low 22 bits
)

// stmt is one lexed source line. Instructions carry at most one
// expression operand; .word-style lists carry several. A record's
// labels and expressions are the labelBuf and exprBuf entries after the
// previous record's and up to its own labEnd and exprEnd.
type stmt struct {
	line            int32
	kind            stmtKind
	imm             immMode
	size            uint8    // stmtValues width in bytes
	in              isa.Inst // instruction template, registers resolved
	labEnd, exprEnd int32
}

// Assemble assembles source into a Program. The default text origin is
// 0x1000 and the default data origin is 0x40000; both can be overridden
// with .text/.data arguments. Entry defaults to the "start" or "main"
// symbol, else the text base.
func Assemble(source string) (*Program, error) {
	nLines := strings.Count(source, "\n") + 1
	nLabels := strings.Count(source, ":") // every label ends in one
	a := &assembler{
		symbols:  make(map[string]uint32, nLabels),
		text:     secState{base: 0x1000, pc: 0x1000},
		data:     secState{base: 0x40000, pc: 0x40000},
		stmts:    make([]stmt, 0, nLines),
		labelBuf: make([]string, 0, nLabels),
		exprBuf:  make([]string, 0, nLines),
		ops:      make([]string, 0, 4),
	}

	// Pass 1: lex every line once and lay it out.
	a.pass = 1
	a.cur = &a.text
	rest := source
	for lineNo := 1; ; lineNo++ {
		line, tail, more := strings.Cut(rest, "\n")
		l, e := len(a.labelBuf), len(a.exprBuf)
		s, ok, err := a.lex(lineNo, line)
		if err != nil {
			return nil, err
		}
		if ok {
			a.stmts = append(a.stmts, s)
			if err := a.exec(&s, a.labelBuf[l:], a.exprBuf[e:]); err != nil {
				return nil, err
			}
		}
		if !more {
			break
		}
		rest = tail
	}

	// Pass 2: re-execute the records into images sized by pass 1.
	a.pass = 2
	a.lines = make([]int32, 0, (a.text.size+3)/4)
	for _, sec := range []*secState{&a.text, &a.data} {
		sec.pc = sec.base
		sec.bytes = make([]byte, 0, sec.size)
		sec.size = 0
	}
	a.cur = &a.text
	l, e := int32(0), int32(0)
	for i := range a.stmts {
		s := &a.stmts[i]
		if err := a.exec(s, a.labelBuf[l:s.labEnd], a.exprBuf[e:s.exprEnd]); err != nil {
			return nil, err
		}
		l, e = s.labEnd, s.exprEnd
	}

	p := &Program{Symbols: a.symbols, lines: a.lines, Sections: make([]Section, 0, 2)}
	for _, s := range []*secState{&a.text, &a.data} {
		if len(s.bytes) > 0 {
			p.Sections = append(p.Sections, Section{Addr: s.base, Bytes: s.bytes[:len(s.bytes):len(s.bytes)]})
		}
	}
	p.TextBase = a.text.base
	p.TextSize = uint32(len(a.text.bytes))
	p.Entry = a.text.base
	if v, ok := a.symbols["start"]; ok {
		p.Entry = v
	} else if v, ok := a.symbols["main"]; ok {
		p.Entry = v
	}
	return p, nil
}

func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == '"' {
			inStr = !inStr
		}
		if !inStr && (c == '!' || c == ';' || c == '#') {
			return line[:i]
		}
	}
	return line
}

func (a *assembler) errf(line int, format string, args ...interface{}) error {
	return &Error{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// lex parses one source line into a statement record (ok is false for a
// blank line). It reports the errors that do not depend on any operand's
// value; exec reports the rest.
func (a *assembler) lex(lineNo int, raw string) (s stmt, ok bool, err error) {
	line := strings.TrimSpace(stripComment(raw))
	if line == "" {
		return s, false, nil
	}
	s.line = int32(lineNo)
	a.late = nil
	lab0 := len(a.labelBuf)
	// Labels (possibly several) at line start.
	for line != "" {
		i := strings.IndexByte(line, ':')
		if i < 0 {
			break
		}
		head := strings.TrimSpace(line[:i])
		if head == "" || strings.ContainsAny(head, " \t\"[],") {
			break
		}
		if _, dup := a.symbols[head]; dup || slices.Contains(a.labelBuf[lab0:], head) {
			return s, false, a.errf(lineNo, "duplicate label %q", head)
		}
		a.labelBuf = append(a.labelBuf, head)
		line = strings.TrimSpace(line[i+1:])
	}
	s.labEnd = int32(len(a.labelBuf))
	if line != "" {
		head, tail, _ := strings.Cut(line, " ")
		mn := strings.ToLower(strings.TrimSpace(head))
		rest := strings.TrimSpace(tail)
		// Tab-separated mnemonics.
		if i := strings.IndexByte(mn, '\t'); i >= 0 {
			rest = strings.TrimSpace(mn[i+1:] + " " + rest)
			mn = mn[:i]
		}
		if strings.HasPrefix(mn, ".") {
			err = a.lexDirective(&s, lineNo, mn, rest)
		} else {
			err = a.lexInstruction(&s, lineNo, mn, rest)
		}
	}
	s.exprEnd = int32(len(a.exprBuf))
	return s, true, err
}

// operand records e as the statement's next expression operand.
func (a *assembler) operand(e string) { a.exprBuf = append(a.exprBuf, e) }

func (a *assembler) lexDirective(s *stmt, lineNo int, mn, rest string) error {
	switch mn {
	case ".text", ".data":
		s.kind = stmtText
		if mn == ".data" {
			s.kind = stmtData
		}
		if rest != "" {
			a.operand(rest)
		}
		return nil
	case ".org":
		s.kind = stmtOrg
		a.operand(rest)
		return nil
	case ".align":
		s.kind = stmtAlign
		a.operand(rest)
		return nil
	case ".space", ".skip":
		s.kind = stmtSpace
		a.operand(rest)
		return nil
	case ".word", ".half", ".byte":
		s.kind = stmtValues
		s.size = 4
		if mn == ".half" {
			s.size = 2
		} else if mn == ".byte" {
			s.size = 1
		}
		a.exprBuf = append(a.exprBuf, a.splitOps(rest)...)
		return nil
	case ".ascii", ".asciz":
		str, err := strconv.Unquote(rest)
		if err != nil {
			return a.errf(lineNo, "bad string %s", rest)
		}
		s.kind = stmtASCII
		if mn == ".asciz" {
			s.kind = stmtASCIZ
		}
		a.operand(str)
		return nil
	case ".global", ".globl", ".type", ".size":
		return nil // accepted, ignored
	}
	return a.errf(lineNo, "unknown directive %s", mn)
}

// exec executes one statement record on the current pass: defines its
// labels, evaluates its expression operands, and lays out (pass 2:
// writes) its bytes.
func (a *assembler) exec(s *stmt, labels, exprs []string) error {
	for _, l := range labels {
		a.symbols[l] = a.cur.pc
	}
	line := int(s.line)
	switch s.kind {
	case stmtInst:
		in := s.in
		if len(exprs) > 0 {
			v, err := a.eval(line, exprs[0])
			if err != nil {
				return err
			}
			switch s.imm {
			case immSimm13:
				iv := int32(v)
				if iv < -4096 || iv > 4095 {
					return a.errf(line, "immediate %d out of simm13 range", iv)
				}
				in.UseImm = true
				in.Imm = iv
			case immRaw:
				in.Imm = int32(v)
			case immDisp:
				in.Imm = int32(v-a.cur.pc) / 4
			case immSethi:
				in.Imm = int32(v & 0x3FFFFF)
			}
		}
		if a.late != nil {
			return a.late
		}
		return a.emit(line, in)
	case stmtSet:
		v, err := a.eval(line, exprs[0])
		if err != nil {
			return err
		}
		rd := s.in.Rd
		if err := a.emit(line, isa.Inst{Op: isa.OpSETHI, Rd: rd, Imm: int32(v >> 10)}); err != nil {
			return err
		}
		return a.emit(line, isa.Inst{Op: isa.OpOR, Rs1: rd, Rd: rd, UseImm: true, Imm: int32(v & 0x3FF)})
	case stmtText, stmtData:
		sec := &a.text
		if s.kind == stmtData {
			sec = &a.data
		}
		if len(exprs) > 0 {
			v, err := a.eval(line, exprs[0])
			if err != nil {
				return err
			}
			if sec.size == 0 {
				sec.base, sec.pc = v, v
			}
		}
		a.cur = sec
	case stmtOrg:
		v, err := a.eval(line, exprs[0])
		if err != nil {
			return err
		}
		if v < a.cur.pc {
			return a.errf(line, ".org %#x before current pc %#x", v, a.cur.pc)
		}
		a.emitZeros(v - a.cur.pc)
	case stmtAlign:
		n, err := a.eval(line, exprs[0])
		if err != nil {
			return err
		}
		if n == 0 || n&(n-1) != 0 {
			return a.errf(line, ".align %d not a power of two", n)
		}
		a.emitZeros((n - a.cur.pc%n) % n)
	case stmtSpace:
		n, err := a.eval(line, exprs[0])
		if err != nil {
			return err
		}
		a.emitZeros(n)
	case stmtValues:
		for _, e := range exprs {
			v, err := a.eval(line, e)
			if err != nil {
				return err
			}
			var b [4]byte
			for i := uint8(0); i < s.size; i++ {
				b[i] = byte(v >> (8 * uint32(s.size-1-i)))
			}
			a.emitBytes(b[:s.size])
		}
	case stmtASCII, stmtASCIZ:
		a.emitString(exprs[0])
		if s.kind == stmtASCIZ {
			a.emitString("\x00")
		}
	}
	return nil
}

// emitBytes lays out b at the current pc, writing it on pass 2.
func (a *assembler) emitBytes(b []byte) {
	if a.pass == 2 {
		a.cur.bytes = append(a.cur.bytes, b...)
	}
	a.cur.pc += uint32(len(b))
	a.cur.size += len(b)
}

// emitString is emitBytes for string data.
func (a *assembler) emitString(b string) {
	if a.pass == 2 {
		a.cur.bytes = append(a.cur.bytes, b...)
	}
	a.cur.pc += uint32(len(b))
	a.cur.size += len(b)
}

// emitZeros lays out n zero bytes at the current pc, writing them on
// pass 2.
func (a *assembler) emitZeros(n uint32) {
	if a.pass == 2 {
		old := len(a.cur.bytes)
		a.cur.bytes = slices.Grow(a.cur.bytes, int(n))[:old+int(n)]
		clear(a.cur.bytes[old:])
	}
	a.cur.pc += n
	a.cur.size += int(n)
}

func (a *assembler) emit(lineNo int, in isa.Inst) error {
	w, err := isa.Encode(in)
	if err != nil {
		return a.errf(lineNo, "%v", err)
	}
	if a.pass == 2 && a.cur == &a.text {
		if off := a.cur.pc - a.cur.base; off%4 == 0 {
			i := int(off / 4)
			for len(a.lines) <= i {
				a.lines = append(a.lines, 0)
			}
			a.lines[i] = int32(lineNo)
		}
	}
	a.emitBytes([]byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)})
	return nil
}

// splitOperands splits on commas that are not inside brackets or quotes.
func splitOperands(s string) []string { return splitOperandsInto(s, nil) }

// splitOperandsInto is splitOperands appending into out's storage; the
// assembler passes its reusable scratch buffer.
func splitOperandsInto(s string, out []string) []string {
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ',':
			if depth == 0 && !inStr {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	last := strings.TrimSpace(s[start:])
	if last != "" || len(out) > 0 {
		out = append(out, last)
	}
	return out
}

// splitOps splits rest into a's scratch buffer. The returned slice is
// valid until the next splitOps call; lexing a line splits it once.
func (a *assembler) splitOps(rest string) []string {
	a.ops = splitOperandsInto(rest, a.ops[:0])
	return a.ops
}
