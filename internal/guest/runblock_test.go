package guest

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"testing"
)

// faultMem is a sliceMem whose failAt-th access fails the way a strict
// memory's first touch of a page does (0 = never). Every Memory call is
// one access, so each byte a string instruction moves can be the one that
// faults, on the load side and on the store side.
type faultMem struct {
	sliceMem
	n, failAt int
}

func (m *faultMem) tick(a uint32) error {
	if m.n++; m.n == m.failAt {
		return fmt.Errorf("fault at %#x", a)
	}
	return nil
}

func (m *faultMem) Load8(a uint32) (uint8, error) {
	if err := m.tick(a); err != nil {
		return 0, err
	}
	return m.sliceMem.Load8(a)
}
func (m *faultMem) Store8(a uint32, v uint8) error {
	if err := m.tick(a); err != nil {
		return err
	}
	return m.sliceMem.Store8(a, v)
}
func (m *faultMem) Load32(a uint32) (uint32, error) {
	if err := m.tick(a); err != nil {
		return 0, err
	}
	return m.sliceMem.Load32(a)
}
func (m *faultMem) Store32(a uint32, v uint32) error {
	if err := m.tick(a); err != nil {
		return err
	}
	return m.sliceMem.Store32(a, v)
}
func (m *faultMem) Load64(a uint32) (uint64, error) {
	if err := m.tick(a); err != nil {
		return 0, err
	}
	return m.sliceMem.Load64(a)
}
func (m *faultMem) Store64(a uint32, v uint64) error {
	if err := m.tick(a); err != nil {
		return err
	}
	return m.sliceMem.Store64(a, v)
}

// sameCPU compares register state bit for bit (NaNs included).
func sameCPU(a, b *CPU) bool {
	for i := range a.F {
		if math.Float64bits(a.F[i]) != math.Float64bits(b.F[i]) {
			return false
		}
	}
	return a.R == b.R && a.EIP == b.EIP && a.Flags == b.Flags
}

func randCPU(r *rand.Rand) CPU {
	var c CPU
	for i := range c.R {
		c.R[i] = r.Uint32()
	}
	for i := range c.F {
		switch r.Intn(8) {
		case 0:
			c.F[i] = math.Float64frombits(r.Uint64()) // NaNs, infinities, denormals
		case 1:
			c.F[i] = math.Copysign(0, -1)
		default:
			c.F[i] = (r.Float64() - 0.5) * 1e6
		}
	}
	c.Flags = r.Uint32() & AllFlags
	c.EIP = 0x1000 + r.Uint32()%0x10000
	return c
}

// transfers reports whether op ends a RunBlock run when it retires.
func transfers(op Op) bool {
	return op.Desc().IsBranch || op == HALT || op == SYSCALL
}

// randBlock is a random body of up to 12 instructions that do not
// transfer control — string instructions included, their count bounded
// by a preceding AND — with, two times in three, one that does at the
// end. Most instructions carry their encoded Size as decoded ones do;
// some are left hand-built (Size 0).
func randBlock(r *rand.Rand, seen *[NumOps]bool) []Inst {
	var insts []Inst
	add := func(in Inst) {
		if r.Intn(4) != 0 {
			in.Size = uint8(in.Len())
		}
		seen[in.Op] = true
		insts = append(insts, in)
	}
	for n := r.Intn(12); n > 0; n-- {
		in := randInst(r)
		if transfers(in.Op) {
			continue
		}
		if in.Op == MOVS || in.Op == STOS {
			add(Inst{Op: ANDri, R1: ECX, Imm: 0x1f})
		}
		add(in)
	}
	if r.Intn(3) != 0 || len(insts) == 0 {
		for {
			if in := randInst(r); transfers(in.Op) {
				add(in)
				break
			}
		}
	}
	return insts
}

// oracleRun steps insts one at a time through stepOracle until one
// faults, transfers control or raises an event, as RunBlock defines its
// run.
func oracleRun(cpu *CPU, mem Memory, insts []Inst) (retired int, ev Event, err error) {
	for i := range insts {
		if ev, err = stepOracle(cpu, mem, &insts[i]); err != nil {
			return i, EvNone, err
		}
		if transfers(insts[i].Op) {
			return i + 1, ev, nil
		}
	}
	return len(insts), EvNone, nil
}

// TestRunBlockMatchesOracle drives RunBlock against the old Step on
// random blocks from random register, flag and memory-address state:
// every prefix of every block (so the state after every instruction),
// then the block with each of its memory accesses faulting in turn and
// re-executed from the fault.
func TestRunBlockMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	var seen [NumOps]bool
	for trial := 0; trial < 3000; trial++ {
		insts := randBlock(r, &seen)
		start := randCPU(r)
		start.R[ESP] &^= 3

		var clean CPU
		var cleanMem sliceMem
		accesses := 0
		for n := 0; n <= len(insts); n++ {
			got, want := start, start
			gm, wm := &faultMem{sliceMem: sliceMem{}}, sliceMem{}
			gn, gev, gerr := RunBlock(&got, gm, insts[:n])
			wn, wev, werr := oracleRun(&want, wm, insts[:n])
			if gerr != nil || werr != nil {
				t.Fatalf("trial %d: unexpected error: %v / %v", trial, gerr, werr)
			}
			if gn != wn || gev != wev || !sameCPU(&got, &want) || !maps.Equal(gm.sliceMem, wm) {
				t.Fatalf("trial %d, first %d of %v:\nretired %d ev %d %+v\noracle  %d ev %d %+v", trial, n, insts, gn, gev, got, wn, wev, want)
			}
			clean, cleanMem, accesses = got, gm.sliceMem, gm.n
		}

		for failAt := 1; failAt <= accesses; failAt++ {
			got, want := start, start
			gm, wm := &faultMem{sliceMem: sliceMem{}, failAt: failAt}, &faultMem{sliceMem: sliceMem{}, failAt: failAt}
			gn, _, gerr := RunBlock(&got, gm, insts)
			wn, _, werr := oracleRun(&want, wm, insts)
			if gerr == nil || werr == nil {
				t.Fatalf("trial %d: access %d did not fault: %v / %v", trial, failAt, gerr, werr)
			}
			if gn != wn || !sameCPU(&got, &want) || !maps.Equal(gm.sliceMem, wm.sliceMem) {
				t.Fatalf("trial %d, access %d of %v faulting:\nretired %d %+v\noracle  %d %+v", trial, failAt, insts, gn, got, wn, want)
			}
			// Precise: EIP is at the faulting instruction, and unless it
			// is a string instruction keeping its progress, nothing else
			// differs from the state the instructions before it left.
			before := start
			if _, _, err := RunBlock(&before, &faultMem{sliceMem: sliceMem{}}, insts[:gn]); err != nil {
				t.Fatal(err)
			}
			if op := insts[gn].Op; op == MOVS || op == STOS {
				before.R[ESI], before.R[EDI], before.R[ECX] = got.R[ESI], got.R[EDI], got.R[ECX]
			}
			if !sameCPU(&got, &before) {
				t.Fatalf("trial %d, access %d: %v faulted and left\n%+v, before it\n%+v", trial, failAt, &insts[gn], got, before)
			}
			// Restartable: with the page there, the rest of the block
			// ends where the run that never faulted did.
			n2, _, err := RunBlock(&got, gm, insts[gn:])
			if err != nil {
				t.Fatal(err)
			}
			if gn+n2 != len(insts) || !sameCPU(&got, &clean) || !maps.Equal(gm.sliceMem, cleanMem) {
				t.Fatalf("trial %d, access %d of %v faulting: restart ended at\n%+v, the clean run at\n%+v", trial, failAt, insts, got, clean)
			}
		}
	}
	for op := Op(1); op < numOps; op++ {
		if op.Desc().Name != "" && !seen[op] {
			t.Errorf("%v never generated", op)
		}
	}
}

// TestRunBlockOverlappingMovsRestarts is the string-instruction half of
// the precise-fault rule on the case that needs it: source and
// destination overlap, so bytes already moved must not be moved again.
func TestRunBlockOverlappingMovsRestarts(t *testing.T) {
	fill := func() sliceMem {
		m := sliceMem{}
		for i := uint32(0); i < 32; i++ {
			m[0x2000+i] = byte(0x40 + i)
		}
		return m
	}
	start := CPU{EIP: 0x1000}
	start.R[ESI], start.R[EDI], start.R[ECX] = 0x2008, 0x2007, 16
	insts := []Inst{{Op: MOVS}, {Op: HALT}}

	want, wm := start, fill()
	if _, _, err := RunBlock(&want, wm, insts); err != nil {
		t.Fatal(err)
	}
	for failAt := 1; failAt <= 32; failAt++ {
		got, gm := start, &faultMem{sliceMem: fill(), failAt: failAt}
		n, _, err := RunBlock(&got, gm, insts)
		if err == nil || n != 0 || got.EIP != start.EIP {
			t.Fatalf("access %d: retired %d, eip %#x, err %v", failAt, n, got.EIP, err)
		}
		if moved := uint32((failAt - 1) / 2); got.R[ECX] != 16-moved || got.R[ESI] != 0x2008+moved {
			t.Fatalf("access %d: ecx %d esi %#x after %d bytes", failAt, got.R[ECX], got.R[ESI], moved)
		}
		if n, ev, err := RunBlock(&got, gm, insts); err != nil || n != 2 || ev != EvHalt {
			t.Fatalf("access %d: restart retired %d, ev %d, err %v", failAt, n, ev, err)
		}
		if !sameCPU(&got, &want) || !maps.Equal(gm.sliceMem, wm) {
			t.Fatalf("access %d: restarted copy differs from the uninterrupted one", failAt)
		}
	}
}

// TestRunBlockIllegalInstruction: an undefined opcode is a fault like
// any other, reported at its own address.
func TestRunBlockIllegalInstruction(t *testing.T) {
	cpu := CPU{EIP: 0x1000}
	insts := []Inst{{Op: INC, R1: EAX, Size: 2}, {Op: BAD, Size: 1}, {Op: INC, R1: EAX, Size: 2}}
	n, ev, err := RunBlock(&cpu, sliceMem{}, insts)
	if err == nil || n != 1 || ev != EvNone || cpu.EIP != 0x1002 || cpu.R[EAX] != 1 {
		t.Fatalf("retired %d, ev %d, eip %#x, eax %d, err %v", n, ev, cpu.EIP, cpu.R[EAX], err)
	}
	if want := "guest: illegal instruction bad at 0x1002"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
}
