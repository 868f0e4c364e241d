package host

import "fmt"

// String renders the instruction for debug listings.
func (in *Inst) String() string {
	d := in.Op.Desc()
	spec := ""
	if in.Spec {
		spec = ".s"
	}
	r := func(x uint8) string { return fmt.Sprintf("r%d", x) }
	f := func(x uint8) string { return fmt.Sprintf("f%d", x) }
	switch in.Op {
	case NOPH, CHKPT:
		return d.Name
	case COMMIT:
		return fmt.Sprintf("commit @%#x", in.Target)
	case LI:
		return fmt.Sprintf("li %s, %d", r(in.Rd), in.Imm)
	case FLI:
		return fmt.Sprintf("fli %s, %g", f(in.Rd), in.F64())
	case MOVH:
		return fmt.Sprintf("mov %s, %s", r(in.Rd), r(in.Ra))
	case FMOVH, FABSH, FNEGH, FSQRTH:
		return fmt.Sprintf("%s %s, %s", d.Name, f(in.Rd), f(in.Ra))
	case ADDI, ANDI, ORI, XORI, SHLI, SHRI, SARI:
		return fmt.Sprintf("%s %s, %s, %d", d.Name, r(in.Rd), r(in.Ra), in.Imm)
	case ADD, SUB, MUL, DIV, REM, AND, OR, XOR, SHL, SHR, SAR, SLT, SLTU, SEQ, SNE:
		return fmt.Sprintf("%s %s, %s, %s", d.Name, r(in.Rd), r(in.Ra), r(in.Rb))
	case LD, LDB:
		return fmt.Sprintf("%s%s %s, [%s%+d]", d.Name, spec, r(in.Rd), r(in.Ra), in.Imm)
	case ST, STB:
		return fmt.Sprintf("%s%s [%s%+d], %s", d.Name, spec, r(in.Ra), in.Imm, r(in.Rd))
	case FLDH:
		return fmt.Sprintf("fld%s %s, [%s%+d]", spec, f(in.Rd), r(in.Ra), in.Imm)
	case FSTH:
		return fmt.Sprintf("fst%s [%s%+d], %s", spec, r(in.Ra), in.Imm, f(in.Rd))
	case BEQZ:
		return fmt.Sprintf("beqz %s, %+d", r(in.Ra), in.Imm)
	case EXIT:
		return fmt.Sprintf("exit @%#x", in.Target)
	case CHAINED:
		return fmt.Sprintf("chained @%#x", in.Target)
	case EXITIND:
		return fmt.Sprintf("exitind %s", r(in.Ra))
	case ASSERTH:
		return fmt.Sprintf("assert %s (rollback @%#x)", r(in.Ra), in.Target)
	case FADDH, FSUBH, FMULH, FDIVH:
		return fmt.Sprintf("%s %s, %s, %s", d.Name, f(in.Rd), f(in.Ra), f(in.Rb))
	case FCVTI:
		return fmt.Sprintf("fcvti %s, %s", r(in.Rd), f(in.Ra))
	case FCVTF:
		return fmt.Sprintf("fcvtf %s, %s", f(in.Rd), r(in.Ra))
	case FSLT, FSEQ, FUNORD:
		return fmt.Sprintf("%s %s, %s, %s", d.Name, r(in.Rd), f(in.Ra), f(in.Rb))
	}
	return in.Op.String()
}
