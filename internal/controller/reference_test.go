package controller

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/workload"
)

// The cache-free whole-run reference. Both emulators read guest code
// through the same front end (guestvm.DecodeCache), so a fault in it
// strikes both at once and validation, which holds one emulator to the
// other, cannot see it. The reference shares nothing with that front
// end: it decodes every instruction from memory at EIP, runs it with
// guest.Step, and services syscalls through guestvm.Env, over a plain
// map of pages.

// refMemory is the reference's guest memory: pages allocated zero-filled
// on first touch, nothing cached.
type refMemory map[uint32]*[guestvm.PageSize]byte

func (m refMemory) byteAt(addr uint32) *byte {
	p := m[addr/guestvm.PageSize]
	if p == nil {
		p = new([guestvm.PageSize]byte)
		m[addr/guestvm.PageSize] = p
	}
	return &p[addr%guestvm.PageSize]
}

func (m refMemory) load(addr uint32, n int) uint64 {
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(*m.byteAt(addr + uint32(i)))
	}
	return v
}

func (m refMemory) store(addr uint32, n int, v uint64) {
	for i := range n {
		*m.byteAt(addr + uint32(i)) = byte(v >> (8 * i))
	}
}

func (m refMemory) Load8(a uint32) (uint8, error)    { return uint8(m.load(a, 1)), nil }
func (m refMemory) Load32(a uint32) (uint32, error)  { return uint32(m.load(a, 4)), nil }
func (m refMemory) Load64(a uint32) (uint64, error)  { return m.load(a, 8), nil }
func (m refMemory) Store8(a uint32, v uint8) error   { m.store(a, 1, uint64(v)); return nil }
func (m refMemory) Store32(a uint32, v uint32) error { m.store(a, 4, uint64(v)); return nil }
func (m refMemory) Store64(a uint32, v uint64) error { m.store(a, 8, v); return nil }

// reference runs im to its end, at most 200 M instructions, and returns
// the outcome fields it can know: CPU, memory, output and exit code.
func reference(t *testing.T, im *guest.Image) outcome {
	t.Helper()
	mem := refMemory{}
	for _, s := range im.Segments {
		for i, b := range s.Data {
			*mem.byteAt(s.Addr + uint32(i)) = b
		}
	}
	cpu := guest.CPU{EIP: im.Entry}
	cpu.R[guest.ESP] = guestvm.StackTop
	env := guestvm.NewEnv()
	for n := 0; ; n++ {
		if n == 200_000_000 {
			t.Fatal("reference: the program does not end")
		}
		var raw [10]byte
		for i := range raw {
			raw[i], _ = mem.Load8(cpu.EIP + uint32(i))
		}
		in, size := guest.Decode(raw[:])
		if size == 0 {
			t.Fatalf("reference: undecodable instruction at %#x", cpu.EIP)
		}
		ev, err := guest.Step(&cpu, mem, &in)
		if err != nil {
			t.Fatalf("reference: %v", err)
		}
		if ev == guest.EvHalt {
			break
		}
		if ev == guest.EvSyscall {
			if err := env.Service(&cpu, mem); err != nil {
				t.Fatalf("reference: %v", err)
			}
			if env.Exited {
				break
			}
		}
	}
	out := outcome{CPU: cpu, Output: env.Output, ExitCode: env.ExitCode, Mem: map[uint32][guestvm.PageSize]byte{}}
	for pn, p := range mem {
		out.Mem[pn*guestvm.PageSize] = *p
	}
	return out
}

// memDigest hashes the pages that hold a non-zero byte, in address
// order: a page one memory allocated zero-filled and the other never
// touched reads the same.
func memDigest(pages map[uint32][guestvm.PageSize]byte) [sha256.Size]byte {
	h := sha256.New()
	var zero [guestvm.PageSize]byte
	for _, addr := range slices.Sorted(maps.Keys(pages)) {
		if p := pages[addr]; p != zero {
			h.Write(binary.LittleEndian.AppendUint32(nil, addr))
			h.Write(p[:])
		}
	}
	return [sha256.Size]byte(h.Sum(nil))
}

// TestMatchesCacheFreeReference holds every roster profile, at a small
// scale, and every cadence program to the reference: the final
// registers (authoritative and co-designed), a digest of the
// authoritative memory, the output and the exit code must all match.
func TestMatchesCacheFreeReference(t *testing.T) {
	programs := cadencePrograms(t)
	scale := 0.05
	if testing.Short() {
		scale = 0.02
	}
	for i, p := range workload.Suites() {
		im, err := p.Scale(scale).Generate()
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{fmt.Sprint(p.Name, "@", scale), im, DefaultConfig(), int64(2000 + i)})
	}
	for _, p := range programs {
		matchesReference(t, p.name, runAt(t, p.im, p.cfg, 0), reference(t, p.im))
	}
}

// FuzzMatchesCacheFreeReference holds a random program, run with the
// shadow publishing at an interval the input chooses (0 never
// publishes), to the reference the same way. Most random programs load
// FP constants with fldi, so the translated FLI's immediate is held end
// to end as well.
func FuzzMatchesCacheFreeReference(f *testing.F) {
	f.Add(uint64(0), uint16(0))
	f.Add(uint64(2), uint16(1))
	f.Add(uint64(13), uint16(1000))
	f.Fuzz(func(t *testing.T, seed uint64, interval uint16) {
		im, err := workload.RandomProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("random-%d at interval %d", seed, interval)
		matchesReference(t, name, runAt(t, im, randomConfig(), uint64(interval)), reference(t, im))
	})
}

// matchesReference compares a run with the reference: the final
// registers (authoritative and co-designed), a digest of the
// authoritative memory, the output and the exit code.
func matchesReference(t *testing.T, name string, got, want outcome) {
	t.Helper()
	for _, side := range []struct {
		name string
		cpu  *guest.CPU
	}{{"authoritative", &got.CPU}, {"co-designed", &got.CoDCPU}} {
		if !sameRegs(side.cpu, &want.CPU) {
			t.Errorf("%s: %s CPU\n got %+v\nwant %+v", name, side.name, *side.cpu, want.CPU)
		}
	}
	if memDigest(got.Mem) != memDigest(want.Mem) {
		t.Errorf("%s: memory digest differs", name)
	}
	if string(got.Output) != string(want.Output) || got.ExitCode != want.ExitCode {
		t.Errorf("%s: output %x exit %d, reference output %x exit %d",
			name, got.Output, got.ExitCode, want.Output, want.ExitCode)
	}
}

// sameRegs compares register state bit for bit (a NaN equals itself).
func sameRegs(a, b *guest.CPU) bool {
	for i := range a.F {
		if math.Float64bits(a.F[i]) != math.Float64bits(b.F[i]) {
			return false
		}
	}
	return a.R == b.R && a.EIP == b.EIP && a.Flags == b.Flags
}
