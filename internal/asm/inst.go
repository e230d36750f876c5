package asm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"dtsvliw/internal/isa"
)

// parseReg parses an integer register name: %g0-7, %o0-7, %l0-7, %i0-7,
// %r0-31, %sp, %fp.
func parseReg(s string) (uint8, bool) {
	s = strings.TrimSpace(s)
	if s == "" || s[0] != '%' {
		return 0, false // not a register; skip lowering the operand
	}
	s = strings.ToLower(s)
	switch s {
	case "%sp":
		return 14, true // %o6
	case "%fp":
		return 30, true // %i6
	}
	if len(s) < 3 || s[0] != '%' {
		return 0, false
	}
	n, err := strconv.Atoi(s[2:])
	if err != nil || n < 0 {
		return 0, false
	}
	switch s[1] {
	case 'g':
		if n < 8 {
			return uint8(n), true
		}
	case 'o':
		if n < 8 {
			return uint8(n + 8), true
		}
	case 'l':
		if n < 8 {
			return uint8(n + 16), true
		}
	case 'i':
		if n < 8 {
			return uint8(n + 24), true
		}
	case 'r':
		if n < 32 {
			return uint8(n), true
		}
	}
	return 0, false
}

func parseFReg(s string) (uint8, bool) {
	s = strings.TrimSpace(s)
	if s == "" || s[0] != '%' {
		return 0, false
	}
	s = strings.ToLower(s)
	if len(s) < 3 || !strings.HasPrefix(s, "%f") {
		return 0, false
	}
	n, err := strconv.Atoi(s[2:])
	if err != nil || n < 0 || n > 31 {
		return 0, false
	}
	return uint8(n), true
}

// eval evaluates a constant expression: sums/differences of numbers,
// labels, %hi(x) and %lo(x).
func (a *assembler) eval(lineNo int, expr string) (uint32, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, a.errf(lineNo, "empty expression")
	}
	var total uint32
	sign := uint32(1)
	i := 0
	expectTerm := true
	for i < len(expr) {
		c := expr[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case c == '+' && !expectTerm:
			sign = 1
			expectTerm = true
			i++
		case c == '-' && !expectTerm:
			sign = ^uint32(0) // -1
			expectTerm = true
			i++
		default:
			j := i
			if expr[j] == '-' || expr[j] == '+' {
				j++
			}
			for j < len(expr) && expr[j] != '+' && expr[j] != '-' && expr[j] != ' ' {
				j++
			}
			// Allow %hi( / %lo( containing parens.
			if hasLowerPrefix(expr[i:], "%hi(") || hasLowerPrefix(expr[i:], "%lo(") {
				depth := 0
				j = i
				for j < len(expr) {
					if expr[j] == '(' {
						depth++
					} else if expr[j] == ')' {
						depth--
						if depth == 0 {
							j++
							break
						}
					}
					j++
				}
			}
			v, err := a.term(lineNo, expr[i:j])
			if err != nil {
				return 0, err
			}
			total += sign * v
			sign = 1
			expectTerm = false
			i = j
		}
	}
	return total, nil
}

// hasLowerPrefix reports whether strings.ToLower(s) starts with the
// lower-case ASCII prefix p, building no lowered copy unless the first
// len(p) bytes of s are not all ASCII.
func hasLowerPrefix(s, p string) bool {
	for i := 0; i < len(p); i++ {
		if i == len(s) {
			return false
		}
		c := s[i]
		if c >= utf8.RuneSelf {
			return strings.HasPrefix(strings.ToLower(s), p)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != p[i] {
			return false
		}
	}
	return true
}

func (a *assembler) term(lineNo int, t string) (uint32, error) {
	t = strings.TrimSpace(t)
	switch {
	case hasLowerPrefix(t, "%hi(") && strings.HasSuffix(t, ")"):
		v, err := a.eval(lineNo, t[4:len(t)-1])
		if err != nil {
			return 0, err
		}
		return v >> 10, nil
	case hasLowerPrefix(t, "%lo(") && strings.HasSuffix(t, ")"):
		v, err := a.eval(lineNo, t[4:len(t)-1])
		if err != nil {
			return 0, err
		}
		return v & 0x3FF, nil
	case t == ".":
		return a.cur.pc, nil
	}
	// Only terms starting with a digit (after an optional sign) can be
	// numbers; guarding the parse keeps symbol references from paying a
	// strconv error allocation each (symbols dominate terms in generated
	// sources, and a failed ParseInt heap-allocates its *NumError).
	if num := strings.TrimLeft(t, "+-"); num != "" && num[0] >= '0' && num[0] <= '9' {
		if n, err := strconv.ParseInt(t, 0, 64); err == nil {
			return uint32(n), nil
		}
		if n, err := strconv.ParseUint(t, 0, 64); err == nil {
			return uint32(n), nil
		}
	}
	if v, ok := a.symbols[t]; ok {
		return v, nil
	}
	if a.pass == 1 {
		return 0, nil // forward reference; resolved in pass 2
	}
	return 0, a.errf(lineNo, "undefined symbol %q", t)
}

// regOrImm lexes operand 2 of a format-3 instruction into s: a register,
// or an expression exec evaluates as a range-checked simm13.
func (a *assembler) regOrImm(s *stmt, op string) {
	if r, ok := parseReg(op); ok {
		s.in.Rs2 = r
		return
	}
	s.imm = immSimm13
	a.operand(op)
}

// parseMem lexes a memory operand "[reg]", "[reg+imm]", "[reg-imm]",
// "[reg+reg]" or "[imm]" into s.
func (a *assembler) parseMem(s *stmt, lineNo int, op string) error {
	op = strings.TrimSpace(op)
	if !strings.HasPrefix(op, "[") || !strings.HasSuffix(op, "]") {
		return a.errf(lineNo, "expected memory operand, got %q", op)
	}
	body := strings.TrimSpace(op[1 : len(op)-1])
	// Try reg+reg / reg+imm / reg-imm.
	if r1, rest, ok := leadingReg(body); ok {
		s.in.Rs1 = r1
		rest = strings.TrimSpace(rest)
		if rest == "" {
			s.in.UseImm = true
			s.in.Imm = 0
			return nil
		}
		if rest[0] == '+' {
			a.regOrImm(s, rest[1:])
			return nil
		}
		if rest[0] == '-' {
			a.regOrImm(s, rest)
			return nil
		}
		return a.errf(lineNo, "bad memory operand %q", op)
	}
	// Absolute: [imm] with %g0 base.
	s.in.Rs1 = 0
	a.regOrImm(s, body)
	return nil
}

func leadingReg(s string) (uint8, string, bool) {
	s = strings.TrimSpace(s)
	end := len(s)
	for i := 0; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' || s[i] == ' ' {
			end = i
			break
		}
	}
	r, ok := parseReg(s[:end])
	if !ok {
		return 0, s, false
	}
	return r, s[end:], true
}

var aluOps = map[string]isa.Op{
	"add": isa.OpADD, "addcc": isa.OpADDCC, "addx": isa.OpADDX, "addxcc": isa.OpADDXCC,
	"sub": isa.OpSUB, "subcc": isa.OpSUBCC, "subx": isa.OpSUBX, "subxcc": isa.OpSUBXCC,
	"and": isa.OpAND, "andcc": isa.OpANDCC, "andn": isa.OpANDN, "andncc": isa.OpANDNCC,
	"or": isa.OpOR, "orcc": isa.OpORCC, "orn": isa.OpORN, "orncc": isa.OpORNCC,
	"xor": isa.OpXOR, "xorcc": isa.OpXORCC, "xnor": isa.OpXNOR, "xnorcc": isa.OpXNORCC,
	"sll": isa.OpSLL, "srl": isa.OpSRL, "sra": isa.OpSRA,
	"mulscc": isa.OpMULSCC, "save": isa.OpSAVE, "restore": isa.OpRESTORE,
	"jmpl": isa.OpJMPL,
}

var loadOps = map[string]isa.Op{
	"ld": isa.OpLD, "ldub": isa.OpLDUB, "ldsb": isa.OpLDSB,
	"lduh": isa.OpLDUH, "ldsh": isa.OpLDSH, "ldd": isa.OpLDD,
	"ldstub": isa.OpLDSTUB, "swap": isa.OpSWAP,
}

var storeOps = map[string]isa.Op{
	"st": isa.OpST, "stb": isa.OpSTB, "sth": isa.OpSTH, "std": isa.OpSTD,
}

var fpOps3 = map[string]isa.Op{
	"fadds": isa.OpFADDS, "faddd": isa.OpFADDD, "fsubs": isa.OpFSUBS, "fsubd": isa.OpFSUBD,
	"fmuls": isa.OpFMULS, "fmuld": isa.OpFMULD, "fdivs": isa.OpFDIVS, "fdivd": isa.OpFDIVD,
}

var fpOps2 = map[string]isa.Op{
	"fmovs": isa.OpFMOVS, "fnegs": isa.OpFNEGS, "fabss": isa.OpFABSS,
	"fitos": isa.OpFITOS, "fitod": isa.OpFITOD, "fstoi": isa.OpFSTOI,
	"fdtoi": isa.OpFDTOI, "fstod": isa.OpFSTOD, "fdtos": isa.OpFDTOS,
}

var branchConds = map[string]uint8{
	"n": isa.CondN, "e": isa.CondE, "z": isa.CondE, "le": isa.CondLE, "l": isa.CondL,
	"leu": isa.CondLEU, "cs": isa.CondCS, "lu": isa.CondCS, "neg": isa.CondNEG,
	"vs": isa.CondVS, "a": isa.CondA, "ne": isa.CondNE, "nz": isa.CondNE,
	"g": isa.CondG, "ge": isa.CondGE, "gu": isa.CondGU, "cc": isa.CondCC,
	"geu": isa.CondCC, "pos": isa.CondPOS, "vc": isa.CondVC,
}

var fbranchConds = map[string]uint8{
	"n": 0, "ne": 1, "lg": 2, "ul": 3, "l": 4, "ug": 5, "g": 6, "u": 7,
	"a": 8, "e": 9, "ue": 10, "ge": 11, "uge": 12, "le": 13, "ule": 14, "o": 15,
}

// lexInstruction lexes an instruction (or pseudo-instruction) into s,
// resolving its mnemonic and registers. Operand-count and register
// errors are reported here; the one operand expression is left for exec.
func (a *assembler) lexInstruction(s *stmt, lineNo int, mn, rest string) error {
	ops := a.splitOps(rest)
	nOps := len(ops)
	s.kind = stmtInst

	need := func(n int) error {
		if nOps != n {
			return a.errf(lineNo, "%s: want %d operands, got %d (%q)", mn, n, nOps, rest)
		}
		return nil
	}
	// expr records the instruction's expression operand and how it
	// completes the instruction.
	expr := func(e string, mode immMode) {
		s.imm = mode
		a.operand(e)
	}

	// Pseudo-instructions first.
	switch mn {
	case "nop":
		s.in = isa.Inst{Op: isa.OpSETHI, Rd: 0, Imm: 0}
		return nil
	case "mov":
		if err := need(2); err != nil {
			return err
		}
		rd, ok := parseReg(ops[1])
		if !ok {
			return a.errf(lineNo, "mov: bad destination %q", ops[1])
		}
		s.in = isa.Inst{Op: isa.OpOR, Rs1: 0, Rd: rd}
		a.regOrImm(s, ops[0])
		return nil
	case "set":
		if err := need(2); err != nil {
			return err
		}
		rd, ok := parseReg(ops[1])
		if !ok {
			return a.errf(lineNo, "set: bad destination %q", ops[1])
		}
		s.kind = stmtSet
		s.in.Rd = rd
		a.operand(ops[0])
		return nil
	case "cmp":
		if err := need(2); err != nil {
			return err
		}
		rs1, ok := parseReg(ops[0])
		if !ok {
			return a.errf(lineNo, "cmp: bad register %q", ops[0])
		}
		s.in = isa.Inst{Op: isa.OpSUBCC, Rs1: rs1, Rd: 0}
		a.regOrImm(s, ops[1])
		return nil
	case "tst":
		if err := need(1); err != nil {
			return err
		}
		rs1, ok := parseReg(ops[0])
		if !ok {
			return a.errf(lineNo, "tst: bad register %q", ops[0])
		}
		s.in = isa.Inst{Op: isa.OpORCC, Rs1: rs1, Rs2: 0, Rd: 0}
		return nil
	case "clr":
		if err := need(1); err != nil {
			return err
		}
		rd, ok := parseReg(ops[0])
		if !ok {
			return a.errf(lineNo, "clr: bad register %q", ops[0])
		}
		s.in = isa.Inst{Op: isa.OpOR, Rs1: 0, Rs2: 0, Rd: rd}
		return nil
	case "inc", "dec":
		op := isa.OpADD
		if mn == "dec" {
			op = isa.OpSUB
		}
		var rd uint8
		var ok bool
		switch nOps {
		case 1:
			rd, ok = parseReg(ops[0])
			if !ok {
				return a.errf(lineNo, "%s: bad register", mn)
			}
		case 2:
			expr(ops[0], immRaw)
			rd, ok = parseReg(ops[1])
			if !ok {
				a.late = a.errf(lineNo, "%s: bad register", mn)
			}
		default:
			return need(1)
		}
		s.in = isa.Inst{Op: op, Rs1: rd, Rd: rd, UseImm: true, Imm: 1}
		return nil
	case "neg":
		if err := need(1); err != nil {
			return err
		}
		rd, ok := parseReg(ops[0])
		if !ok {
			return a.errf(lineNo, "neg: bad register")
		}
		s.in = isa.Inst{Op: isa.OpSUB, Rs1: 0, Rs2: rd, Rd: rd}
		return nil
	case "not":
		if err := need(1); err != nil {
			return err
		}
		rd, ok := parseReg(ops[0])
		if !ok {
			return a.errf(lineNo, "not: bad register")
		}
		s.in = isa.Inst{Op: isa.OpXNOR, Rs1: rd, Rs2: 0, Rd: rd}
		return nil
	case "ret":
		s.in = isa.Inst{Op: isa.OpJMPL, Rs1: 31, UseImm: true, Imm: 8, Rd: 0}
		return nil
	case "retl":
		s.in = isa.Inst{Op: isa.OpJMPL, Rs1: 15, UseImm: true, Imm: 8, Rd: 0}
		return nil
	case "jmp":
		if err := need(1); err != nil {
			return err
		}
		s.in = isa.Inst{Op: isa.OpJMPL, Rd: 0}
		if r1, rest2, ok := leadingReg(ops[0]); ok {
			s.in.Rs1 = r1
			rest2 = strings.TrimSpace(rest2)
			if rest2 == "" {
				s.in.UseImm, s.in.Imm = true, 0
			} else if rest2[0] == '+' {
				a.regOrImm(s, rest2[1:])
			} else {
				return a.errf(lineNo, "jmp: bad operand %q", ops[0])
			}
			return nil
		}
		return a.errf(lineNo, "jmp: bad operand %q", ops[0])
	case "rd":
		if err := need(2); err != nil {
			return err
		}
		if strings.ToLower(strings.TrimSpace(ops[0])) != "%y" {
			return a.errf(lineNo, "rd: only %%y supported")
		}
		rd, ok := parseReg(ops[1])
		if !ok {
			return a.errf(lineNo, "rd: bad destination")
		}
		s.in = isa.Inst{Op: isa.OpRDY, Rd: rd}
		return nil
	case "wr":
		// wr rs1, reg_or_imm, %y
		if err := need(3); err != nil {
			return err
		}
		if strings.ToLower(strings.TrimSpace(ops[2])) != "%y" {
			return a.errf(lineNo, "wr: only %%y supported")
		}
		rs1, ok := parseReg(ops[0])
		if !ok {
			return a.errf(lineNo, "wr: bad source")
		}
		s.in = isa.Inst{Op: isa.OpWRY, Rs1: rs1}
		a.regOrImm(s, ops[1])
		return nil
	case "call":
		if err := need(1); err != nil {
			return err
		}
		s.in = isa.Inst{Op: isa.OpCALL}
		expr(ops[0], immDisp)
		return nil
	case "unimp":
		s.in = isa.Inst{Op: isa.OpUNIMP}
		return nil
	}

	// Conditional traps: ta, te, tne, ...
	if strings.HasPrefix(mn, "t") {
		if cond, ok := branchConds[mn[1:]]; ok && mn != "tst" {
			if err := need(1); err != nil {
				return err
			}
			s.in = isa.Inst{Op: isa.OpTICC, Cond: cond}
			a.regOrImm(s, ops[0])
			return nil
		}
	}

	// Branches: b<cond>[,a] and fb<cond>[,a]. "b" alone is ba.
	base := mn
	annul := false
	if strings.HasSuffix(base, ",a") {
		annul = true
		base = base[:len(base)-2]
	}
	if base == "b" {
		base = "ba"
	}
	if strings.HasPrefix(base, "fb") {
		if cond, ok := fbranchConds[base[2:]]; ok {
			if err := need(1); err != nil {
				return err
			}
			s.in = isa.Inst{Op: isa.OpFBFCC, Cond: cond, Annul: annul}
			expr(ops[0], immDisp)
			return nil
		}
	}
	if strings.HasPrefix(base, "b") {
		if cond, ok := branchConds[base[1:]]; ok {
			if err := need(1); err != nil {
				return err
			}
			s.in = isa.Inst{Op: isa.OpBICC, Cond: cond, Annul: annul}
			expr(ops[0], immDisp)
			return nil
		}
	}

	// sethi %hi(x), rd.
	if mn == "sethi" {
		if err := need(2); err != nil {
			return err
		}
		expr(ops[0], immSethi)
		rd, ok := parseReg(ops[1])
		if !ok {
			a.late = a.errf(lineNo, "sethi: bad destination %q", ops[1])
		}
		s.in = isa.Inst{Op: isa.OpSETHI, Rd: rd}
		return nil
	}

	// Loads.
	if op, ok := loadOps[mn]; ok {
		if err := need(2); err != nil {
			return err
		}
		s.in = isa.Inst{Op: op}
		if err := a.parseMem(s, lineNo, ops[0]); err != nil {
			return err
		}
		rd, ok := parseReg(ops[1])
		if !ok {
			a.late = a.errf(lineNo, "%s: bad destination %q", mn, ops[1])
		}
		s.in.Rd = rd
		return nil
	}
	// Stores.
	if op, ok := storeOps[mn]; ok {
		if err := need(2); err != nil {
			return err
		}
		rd, ok := parseReg(ops[0])
		if !ok {
			return a.errf(lineNo, "%s: bad source %q", mn, ops[0])
		}
		s.in = isa.Inst{Op: op, Rd: rd}
		return a.parseMem(s, lineNo, ops[1])
	}
	// FP memory.
	switch mn {
	case "ldf", "lddf":
		if err := need(2); err != nil {
			return err
		}
		op := isa.OpLDF
		if mn == "lddf" {
			op = isa.OpLDDF
		}
		s.in = isa.Inst{Op: op}
		if err := a.parseMem(s, lineNo, ops[0]); err != nil {
			return err
		}
		fr, ok := parseFReg(ops[1])
		if !ok {
			a.late = a.errf(lineNo, "%s: bad fp destination %q", mn, ops[1])
		}
		s.in.Rd = fr
		return nil
	case "stf", "stdf":
		if err := need(2); err != nil {
			return err
		}
		op := isa.OpSTF
		if mn == "stdf" {
			op = isa.OpSTDF
		}
		fr, ok := parseFReg(ops[0])
		if !ok {
			return a.errf(lineNo, "%s: bad fp source %q", mn, ops[0])
		}
		s.in = isa.Inst{Op: op, Rd: fr}
		return a.parseMem(s, lineNo, ops[1])
	}
	// FP three-operand.
	if op, ok := fpOps3[mn]; ok {
		if err := need(3); err != nil {
			return err
		}
		r1, ok1 := parseFReg(ops[0])
		r2, ok2 := parseFReg(ops[1])
		rd, ok3 := parseFReg(ops[2])
		if !ok1 || !ok2 || !ok3 {
			return a.errf(lineNo, "%s: bad fp operands", mn)
		}
		s.in = isa.Inst{Op: op, Rs1: r1, Rs2: r2, Rd: rd}
		return nil
	}
	// FP two-operand.
	if op, ok := fpOps2[mn]; ok {
		if err := need(2); err != nil {
			return err
		}
		r2, ok1 := parseFReg(ops[0])
		rd, ok2 := parseFReg(ops[1])
		if !ok1 || !ok2 {
			return a.errf(lineNo, "%s: bad fp operands", mn)
		}
		s.in = isa.Inst{Op: op, Rs2: r2, Rd: rd}
		return nil
	}
	// FP compare.
	if mn == "fcmps" || mn == "fcmpd" {
		if err := need(2); err != nil {
			return err
		}
		op := isa.OpFCMPS
		if mn == "fcmpd" {
			op = isa.OpFCMPD
		}
		r1, ok1 := parseFReg(ops[0])
		r2, ok2 := parseFReg(ops[1])
		if !ok1 || !ok2 {
			return a.errf(lineNo, "%s: bad fp operands", mn)
		}
		s.in = isa.Inst{Op: op, Rs1: r1, Rs2: r2}
		return nil
	}

	// Generic three-operand ALU (plus save/restore/jmpl).
	if op, ok := aluOps[mn]; ok {
		switch {
		case nOps == 0 && (mn == "restore" || mn == "save"):
			s.in = isa.Inst{Op: op, Rs1: 0, Rs2: 0, Rd: 0}
			return nil
		case nOps == 3:
			rs1, ok1 := parseReg(ops[0])
			rd, ok3 := parseReg(ops[2])
			if !ok1 || !ok3 {
				return a.errf(lineNo, "%s: bad register operands (%q)", mn, rest)
			}
			s.in = isa.Inst{Op: op, Rs1: rs1, Rd: rd}
			a.regOrImm(s, ops[1])
			return nil
		case nOps == 2 && mn == "jmpl":
			// jmpl %r+imm, rd
			s.in = isa.Inst{Op: isa.OpJMPL}
			r1, rest2, ok := leadingReg(ops[0])
			if !ok {
				return a.errf(lineNo, "jmpl: bad operand %q", ops[0])
			}
			s.in.Rs1 = r1
			rest2 = strings.TrimSpace(rest2)
			if rest2 == "" {
				s.in.UseImm, s.in.Imm = true, 0
			} else if rest2[0] == '+' {
				a.regOrImm(s, rest2[1:])
			} else {
				a.regOrImm(s, rest2)
			}
			rd, ok := parseReg(ops[1])
			if !ok {
				a.late = a.errf(lineNo, "jmpl: bad destination %q", ops[1])
			}
			s.in.Rd = rd
			return nil
		}
		return a.errf(lineNo, "%s: bad operand count %d", mn, nOps)
	}

	return a.errf(lineNo, "unknown instruction %q", mn)
}

// MustAssemble assembles source or panics; for tests and embedded
// workloads whose sources are compile-time constants.
func MustAssemble(source string) *Program {
	p, err := Assemble(source)
	if err != nil {
		panic(fmt.Sprintf("MustAssemble: %v", err))
	}
	return p
}
