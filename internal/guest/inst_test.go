package guest

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

// randInst builds a random valid instruction for roundtrip testing.
func randInst(r *rand.Rand) Inst {
	for {
		op := Op(1 + r.Intn(NumOps-1))
		d := op.Desc()
		if d.Name == "" {
			continue
		}
		in := Inst{Op: op}
		lim := uint8(NumGPR)
		if d.IsFP {
			lim = NumFPR
		}
		switch d.Form {
		case FormN:
		case FormR1:
			in.R1 = uint8(r.Intn(NumGPR))
		case FormR:
			in.R1 = uint8(r.Intn(int(lim)))
			in.R2 = uint8(r.Intn(int(lim)))
		case FormI:
			in.R1 = uint8(r.Intn(NumGPR))
			in.Imm = int32(r.Uint32())
		case FormM:
			in.R1 = uint8(r.Intn(int(lim)))
			in.R2 = uint8(r.Intn(NumGPR))
			in.Imm = int32(r.Uint32())
		case FormMX:
			in.R1 = uint8(r.Intn(NumGPR))
			in.R2 = uint8(r.Intn(NumGPR))
			in.R3 = uint8(r.Intn(NumGPR))
			in.Scale = uint8(r.Intn(4))
			in.Imm = int32(r.Uint32())
		case FormB, FormImm:
			in.Imm = int32(r.Uint32())
		case FormF64:
			in.R1 = uint8(r.Intn(NumFPR))
			in.F64 = math.Float64frombits(r.Uint64())
		}
		return in
	}
}

// TestEncodeDecodeRoundTrip is the encoder/decoder inverse property.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		in := randInst(r)
		buf := in.Encode(nil)
		if len(buf) != in.Len() {
			t.Fatalf("%v: encoded %d bytes, Len()=%d", &in, len(buf), in.Len())
		}
		got, n := Decode(buf)
		if n != len(buf) {
			t.Fatalf("%v: decode consumed %d of %d", &in, n, len(buf))
		}
		got.Size = 0
		want := in
		want.Size = 0
		if fEq(got.F64, want.F64) {
			got.F64, want.F64 = 0, 0
		}
		if got != want {
			t.Fatalf("roundtrip mismatch:\n in=%+v\nout=%+v", want, got)
		}
	}
}

// fEq compares float64 bit patterns (NaN-safe).
func fEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestDecodeGarbage checks the decoder never panics and rejects
// truncated or illegal input.
func TestDecodeGarbage(t *testing.T) {
	if in, n := Decode(nil); n != 0 || in.Op != BAD {
		t.Errorf("empty: got op %v n %d", in.Op, n)
	}
	if _, n := Decode([]byte{0}); n != 0 {
		t.Errorf("opcode 0 must be illegal")
	}
	if _, n := Decode([]byte{255}); n != 0 {
		t.Errorf("opcode 255 must be illegal")
	}
	// Truncated forms.
	full := (&Inst{Op: MOVri, R1: 2, Imm: -7}).Encode(nil)
	for cut := 1; cut < len(full); cut++ {
		if _, n := Decode(full[:cut]); n != 0 {
			t.Errorf("truncated to %d bytes decoded", cut)
		}
	}
	// Fuzz bytes.
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		buf := make([]byte, r.Intn(12))
		r.Read(buf)
		Decode(buf) // must not panic
	}
}

// FuzzDecodeEncodeRoundTrip is the decoder's inverse property from the
// bytes' side: Decode never panics, rejects with BAD and a zero count,
// and whatever it accepts is one whole instruction of its form's length,
// recorded in Size, that re-encodes to exactly the bytes it consumed.
func FuzzDecodeEncodeRoundTrip(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for range 64 {
		in := randInst(r)
		f.Add(in.Encode(nil))
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		in, n := Decode(code)
		if n == 0 {
			if in.Op != BAD {
				t.Fatalf("% x: rejected as %v", code, in.Op)
			}
			return
		}
		if n > len(code) || n != in.Len() || int(in.Size) != n {
			t.Fatalf("% x: consumed %d, Len %d, Size %d", code, n, in.Len(), in.Size)
		}
		if got := in.Encode(nil); !bytes.Equal(got, code[:n]) {
			t.Fatalf("%v: decoded from % x, encodes to % x", &in, code[:n], got)
		}
	})
}

// TestInstSize: the byte fields packed ahead of Imm and F64 leave an
// instruction 24 bytes; a decoded block is a slice of them.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(Inst{}); n != 24 {
		t.Errorf("Inst is %d bytes, want 24", n)
	}
}

// TestDecodeRejectsBadRegisters checks operand range validation.
func TestDecodeRejectsBadRegisters(t *testing.T) {
	// FormR with register 9 (> EDI) for an integer op.
	buf := []byte{byte(ADDrr), 0x9F}
	if _, n := Decode(buf); n != 0 {
		t.Errorf("register 15 accepted for addrr")
	}
	// FormR1 with register 12.
	buf = []byte{byte(INC), 12}
	if _, n := Decode(buf); n != 0 {
		t.Errorf("register 12 accepted for inc")
	}
	// FormMX with scale 4 is unencodable (2 bits), so nothing to test
	// beyond index range:
	buf = []byte{byte(LOADX), 0x1F, 0x00, 0, 0, 0, 0}
	if _, n := Decode(buf); n != 0 {
		t.Errorf("base register 15 accepted for loadx")
	}
}

// TestFormLenTotals pins the encoding lengths.
func TestFormLenTotals(t *testing.T) {
	want := map[Form]int{
		FormN: 1, FormR1: 2, FormR: 2, FormI: 6, FormM: 6,
		FormMX: 7, FormB: 5, FormImm: 5, FormF64: 10,
	}
	for f, n := range want {
		if FormLen(f) != n {
			t.Errorf("FormLen(%d) = %d, want %d", f, FormLen(f), n)
		}
	}
}

// TestBranchTarget checks relative target arithmetic.
func TestBranchTarget(t *testing.T) {
	in := Inst{Op: JMP, Imm: -5} // jump to itself
	if got := in.Target(0x1000); got != 0x1000 {
		t.Errorf("self jump target %#x", got)
	}
	in = Inst{Op: JE, Imm: 100}
	if got := in.Target(0x2000); got != 0x2000+5+100 {
		t.Errorf("forward target %#x", got)
	}
}

// TestOpByName resolves every named opcode and rejects unknowns.
func TestOpByName(t *testing.T) {
	for op := Op(1); int(op) < NumOps; op++ {
		name := op.Desc().Name
		if name == "" {
			continue
		}
		got, ok := OpByName(name)
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v,%v", name, got, ok)
		}
	}
	if _, ok := OpByName("frobnicate"); ok {
		t.Errorf("unknown mnemonic resolved")
	}
}

// TestEndsBasicBlock pins the BB-terminator set.
func TestEndsBasicBlock(t *testing.T) {
	enders := []Op{JMP, JE, JNE, JL, JLE, JG, JGE, JB, JAE, JMPr, CALL, CALLr, RET, HALT, SYSCALL, MOVS, STOS}
	for _, op := range enders {
		if !op.EndsBasicBlock() {
			t.Errorf("%v should end a basic block", op)
		}
	}
	for _, op := range []Op{NOP, MOVri, ADDrr, LOAD, STORE, FADD, FSIN, PUSH, POP, IDIV} {
		if op.EndsBasicBlock() {
			t.Errorf("%v should not end a basic block", op)
		}
	}
}

// TestInstStringNoPanic exercises the disassembler on random
// instructions.
func TestInstStringNoPanic(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	err := quick.Check(func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInst(r)
		return (&in).String() != ""
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}
