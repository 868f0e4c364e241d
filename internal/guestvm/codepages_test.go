package guestvm

import (
	"errors"
	"testing"

	"darco/internal/guest"
)

// codeModel is the executable specification of the immutability rule: a
// plain byte map, the set of mapped pages and the set of code pages.
type codeModel struct {
	strict bool
	bytes  map[uint32]byte
	mapped map[uint32]bool // by page number
	code   map[uint32]bool // by page number
}

// refusal is what a model access runs into: the error kind and its
// address, or nothing.
type refusal struct {
	kind string // "", "fault", "code"
	addr uint32
}

// touch maps the page of addr as a non-strict memory does, or reports
// the fault a strict one raises.
func (md *codeModel) touch(addr uint32) refusal {
	pn := addr >> PageShift
	if !md.mapped[pn] {
		if md.strict {
			return refusal{"fault", addr}
		}
		md.mapped[pn] = true
	}
	return refusal{}
}

func (md *codeModel) load8(addr uint32) (byte, refusal) {
	if r := md.touch(addr); r.kind != "" {
		return 0, r
	}
	return md.bytes[addr], refusal{}
}

// load reads width bytes, little-endian, failing at the first byte that
// faults.
func (md *codeModel) load(addr uint32, width int) (uint64, refusal) {
	var v uint64
	for i := range width {
		b, r := md.load8(addr + uint32(i))
		if r.kind != "" {
			return 0, r
		}
		v |= uint64(b) << (8 * i)
	}
	return v, refusal{}
}

// store is the store rule: a store within one page is refused whole by
// a code page, then by a fault; a straddling Store64 is two Store32, and
// a straddling Store32 is four Store8, so the bytes before the refusing
// page stay written.
func (md *codeModel) store(addr uint32, width int, v uint64) refusal {
	if int(addr&(PageSize-1)) <= PageSize-width {
		if md.code[addr>>PageShift] {
			return refusal{"code", addr}
		}
		if r := md.touch(addr); r.kind != "" {
			return r
		}
		for i := range width {
			md.bytes[addr+uint32(i)] = byte(v >> (8 * i))
		}
		return refusal{}
	}
	half := 1
	if width == 8 {
		half = 4
	}
	for i := 0; i < width; i += half {
		if r := md.store(addr+uint32(i), half, v>>(8*i)); r.kind != "" {
			return r
		}
	}
	return refusal{}
}

// decodeEnd is where the block at pc ends, decoded from the model's
// bytes by the block rule (see DecodeCache): after a terminator, after
// MaxBlockInsns instructions, or before an instruction that cannot be
// fetched.
func (md *codeModel) decodeEnd(pc uint32) uint32 {
	at := pc
	for range MaxBlockInsns {
		op, r := md.load8(at)
		if r.kind != "" {
			break
		}
		raw := []byte{op}
		for i := 1; i < guest.FormLen(guest.Op(op).Desc().Form) && r.kind == ""; i++ {
			var b byte
			b, r = md.load8(at + uint32(i))
			raw = append(raw, b)
		}
		in, n := guest.Decode(raw)
		if r.kind != "" || n == 0 {
			break
		}
		at += uint32(n)
		if in.Op.EndsBasicBlock() {
			break
		}
	}
	return at
}

// markCode makes code of the mapped pages holding [lo, hi).
func (md *codeModel) markCode(lo, hi uint32) {
	for a := lo; a != hi; a++ {
		if md.mapped[a>>PageShift] {
			md.code[a>>PageShift] = true
		}
	}
}

// refusalOf classifies a memory error the way the model states it.
func refusalOf(err error) refusal {
	var pf *PageFaultError
	var cw *CodeWriteError
	switch {
	case err == nil:
		return refusal{}
	case errors.As(err, &pf):
		return refusal{"fault", pf.Addr}
	case errors.As(err, &cw):
		return refusal{"code", cw.Addr}
	}
	return refusal{"other: " + err.Error(), 0}
}

// codePagesBase is the first of the four adjacent pages the fuzz target
// works over; the second and the third lie in different page groups.
const codePagesBase = 0x3FE000

// FuzzCodePagesRefuseStores drives a memory and a DecodeCache through
// the sequence the input spells out, over four adjacent pages, and holds
// them to codeModel. The first byte's low bit picks a strict memory.
// Each operation is an opcode byte, two address bytes (a page, and an
// offset either on a 16-byte grid or within 16 bytes of the page's end,
// so stores and blocks straddle) and, for stores and installs, value
// bytes. Decodes mark pages; loads never fail for code; a store fails
// exactly when the model says, with the same error and address; first
// installs map a page filled with one byte. After every operation the
// store is checked through StoreCheck too, and at the end every mapped
// page must hold the model's bytes.
func FuzzCodePagesRefuseStores(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		strict := in[0]&1 != 0
		mem := NewMemory(strict)
		md := &codeModel{strict: strict, bytes: map[uint32]byte{}, mapped: map[uint32]bool{}, code: map[uint32]bool{}}
		var dec DecodeCache
		next := func() byte {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return b
		}
		in = in[1:]
		for step := 0; len(in) > 0; step++ {
			op, a1, a2 := next(), next(), next()
			addr := codePagesBase + uint32(a1&3)*PageSize + uint32(a2)*16
			if a1&4 != 0 {
				addr = codePagesBase + uint32(a1&3+1)*PageSize - 1 - uint32(a2%16)
			}
			switch op % 8 {
			case 0: // decode
				b, _, _ := dec.Decode(mem, nil, addr)
				end := md.decodeEnd(addr)
				if b.PC != addr || b.End != end {
					t.Fatalf("step %d: block at %#x ends at %#x, model %#x", step, addr, b.End, end)
				}
				md.markCode(addr, end)
			case 1, 2, 3: // load
				width := []int{1, 4, 8}[op%8-1]
				var got uint64
				var err error
				switch width {
				case 1:
					var v uint8
					v, err = mem.Load8(addr)
					got = uint64(v)
				case 4:
					var v uint32
					v, err = mem.Load32(addr)
					got = uint64(v)
				case 8:
					got, err = mem.Load64(addr)
				}
				want, r := md.load(addr, width)
				if refusalOf(err) != r || got != want {
					t.Fatalf("step %d: Load%d(%#x) = %#x, %v; model %#x, %v", step, 8*width, addr, got, err, want, r)
				}
			case 4, 5, 6: // store
				width := []int{1, 4, 8}[op%8-4]
				var v uint64
				for i := range width {
					v |= uint64(next()) << (8 * i)
				}
				var err error
				switch width {
				case 1:
					err = mem.Store8(addr, uint8(v))
				case 4:
					err = mem.Store32(addr, uint32(v))
				case 8:
					err = mem.Store64(addr, v)
				}
				if r := md.store(addr, width, v); refusalOf(err) != r {
					t.Fatalf("step %d: Store%d(%#x) = %v; model %v", step, 8*width, addr, err, r)
				}
			case 7: // first install
				fill := next()
				if pn := addr >> PageShift; !md.mapped[pn] {
					var page [PageSize]byte
					for i := range page {
						page[i] = fill
					}
					mem.InstallPage(addr, &page)
					md.mapped[pn] = true
					for i := range uint32(PageSize) {
						md.bytes[pn<<PageShift+i] = fill
					}
				}
			}
			want := refusal{}
			if md.code[addr>>PageShift] {
				want = refusal{"code", addr}
			} else if md.strict && !md.mapped[addr>>PageShift] {
				want = refusal{"fault", addr}
			}
			md.touch(addr)
			if got := refusalOf(mem.StoreCheck(addr)); got != want {
				t.Fatalf("step %d: StoreCheck(%#x) = %v; model %v", step, addr, got, want)
			}
		}
		if got, want := mem.PageCount(), len(md.mapped); got != want {
			t.Fatalf("%d pages mapped, model %d", got, want)
		}
		for pn := range md.mapped {
			p, err := mem.Page(pn << PageShift)
			if err != nil {
				t.Fatalf("model page %#x: %v", pn<<PageShift, err)
			}
			for i, b := range p {
				if a := pn<<PageShift + uint32(i); b != md.bytes[a] {
					t.Fatalf("byte %#x: %#x, model %#x", a, b, md.bytes[a])
				}
			}
		}
	})
}
