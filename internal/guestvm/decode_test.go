package guestvm

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"darco/internal/guest"
	"darco/internal/workload"
)

// TestDecodeCache covers the block rule: a block ends with its
// terminator, or is cut at MaxBlockInsns, and both are cached; a fetch
// error leaves an uncached prefix and the error; and a block found in
// the map becomes the previous block's link.
func TestDecodeCache(t *testing.T) {
	var src strings.Builder
	src.WriteString(".org 0x1000\nstart:\n    movri eax, 1\n    jmp long\nlong:\n")
	for range MaxBlockInsns + 2 {
		src.WriteString("    nop\n")
	}
	src.WriteString("    halt\n")
	im, err := guest.Assemble(src.String())
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(true)
	var d DecodeCache
	// install maps the page at pc and loads the program's bytes on it,
	// before anything is decoded from it.
	install := func(pc uint32) {
		mem.InstallPage(pc, new([PageSize]byte))
		for _, s := range im.Segments {
			for i, b := range s.Data {
				if a := s.Addr + uint32(i); a>>PageShift == pc>>PageShift {
					if err := mem.Store8(a, b); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	install(0x1000) // the cut piece's page, 0x2000, is installed below

	a, hit, err := d.Decode(mem, nil, 0x1000)
	if err != nil || hit || len(a.Insts) != 2 || a.PC != 0x1000 || a.End != im.Labels["long"] || a.Term().Op != guest.JMP {
		t.Fatalf("first block: %+v hit=%v err=%v", a, hit, err)
	}
	if again, hit, _ := d.Decode(mem, nil, 0x1000); again != a || !hit {
		t.Errorf("second decode of 0x1000 was not the cached block")
	}

	// The nops run into the page not yet installed: the prefix comes
	// back with the fault, uncached.
	long := im.Labels["long"]
	p, hit, err := d.Decode(mem, a, long)
	var pf *PageFaultError
	if !errors.As(err, &pf) || pf.Addr != 0x2000 || hit || p.Term() != nil || p.End != 0x2000 || len(p.Insts) != int(0x2000-long) {
		t.Fatalf("partial block: %d insts to %#x, hit=%v, err=%v", len(p.Insts), p.End, hit, err)
	}
	install(0x2000)
	cut, hit, err := d.Decode(mem, a, long)
	if err != nil || hit || len(cut.Insts) != MaxBlockInsns || cut.Term() != nil || cut.End != long+MaxBlockInsns {
		t.Fatalf("cut block: %d insts to %#x, hit=%v, err=%v", len(cut.Insts), cut.End, hit, err)
	}
	rest, _, err := d.Decode(mem, cut, cut.End)
	if err != nil || len(rest.Insts) != 3 || rest.Term().Op != guest.HALT {
		t.Fatalf("rest of the cut block: %d insts, err=%v", len(rest.Insts), err)
	}

	// Links: a map hit links; the link is then what prev yields.
	if b, hit, _ := d.Decode(mem, a, long); b != cut || !hit || a.succ[0] != cut {
		t.Errorf("map hit did not link 0x1000 to %#x", long)
	}

	// An undecodable byte ends the block before it, uncached.
	install(0x3000)
	if err := mem.Store8(0x3000, byte(guest.NOP)); err != nil {
		t.Fatal(err)
	}
	u, hit, err := d.Decode(mem, nil, 0x3000)
	if !errors.As(err, new(UndecodableError)) || hit || len(u.Insts) != 1 {
		t.Errorf("undecodable: %d insts, hit=%v, err=%v", len(u.Insts), hit, err)
	}
}

// TestDecodeMarksCodePages pins the immutability rule: Decode makes code
// of the pages a block was decoded from, both pages of one that
// straddles a boundary and those of an uncached prefix too. A store to
// a code page fails with *CodeWriteError at the first byte on it,
// through the store MRU or not, and leaves the page as it was; a store
// elsewhere succeeds.
func TestDecodeMarksCodePages(t *testing.T) {
	mem := NewMemory(true)
	for pc := uint32(0x1000); pc < 0x5000; pc += PageSize {
		mem.InstallPage(pc, new([PageSize]byte))
	}
	// A movri (6 bytes) two bytes before 0x3000, then a halt.
	in := guest.Inst{Op: guest.MOVri, R1: uint8(guest.EAX), Imm: 7}
	code := append(in.Encode(nil), byte(guest.HALT))
	if err := mem.LoadImage(&guest.Image{Segments: []guest.Segment{{Addr: 0x3000 - 2, Data: code}}}); err != nil {
		t.Fatal(err)
	}
	var d DecodeCache
	if b, _, err := d.Decode(mem, nil, 0x3000-2); err != nil || b.End != 0x3000+uint32(len(code))-2 {
		t.Fatalf("straddling block: %+v, %v", b, err)
	}
	// Page 0x4000 holds one nop and then an undecodable zero byte. The
	// store leaves it the store MRU as it turns to code.
	if err := mem.Store8(0x4000, byte(guest.NOP)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Decode(mem, nil, 0x4000); !errors.As(err, new(UndecodableError)) {
		t.Fatalf("prefix block: %v", err)
	}

	before := mem.Clone()
	for _, c := range []struct {
		store func() error
		at    uint32 // 0: the store succeeds
	}{
		{func() error { return mem.Store8(0x4fff, 1) }, 0x4fff},
		{func() error { return mem.Store8(0x2000, 1) }, 0x2000},
		{func() error { return mem.Store32(0x2ffc, 1) }, 0x2ffc},
		{func() error { return mem.Store64(0x3ff8, 1) }, 0x3ff8},
		{func() error { return mem.StoreCheck(0x2abc) }, 0x2abc},
		{func() error { return mem.Store32(0x1ffe, 1) }, 0x2000}, // straddles in from 0x1000
		{func() error { return mem.Store64(0x1000, 1) }, 0},
		{func() error { return mem.Store8(0x1fff, 0) }, 0}, // undo the straddler's leading bytes
		{func() error { return mem.Store8(0x1ffe, 0) }, 0},
	} {
		err := c.store()
		var cw *CodeWriteError
		switch {
		case c.at == 0 && err != nil:
			t.Errorf("store to a data page: %v", err)
		case c.at != 0 && (!errors.As(err, &cw) || cw.Addr != c.at):
			t.Errorf("store to code at %#x: %v", c.at, err)
		}
	}
	if err := mem.Store64(0x1000, 0); err != nil {
		t.Fatal(err)
	}
	if ok, at := mem.Equal(before); !ok {
		t.Errorf("a refused store wrote %#x", at)
	}
	if _, err := mem.Load32(0x2ffe); err != nil {
		t.Errorf("loads from code: %v", err)
	}
}

// TestDecodeCacheShare holds two front ends over one CodeTable, each
// with its own memory. A block the other decoded is a miss the first
// time: it is decoded from this front end's memory, marking its pages,
// and the table's block comes back without an allocation. From then on
// it is a hit. A block whose bytes differ between the memories is
// decoded into a block of its own, which the table never holds, and an
// F64 immediate counts as the same only bit for bit.
func TestDecodeCacheShare(t *testing.T) {
	src := ".org 0x1000\nstart:\n    movri eax, 1\n    jmp next\nnext:\n    fldi f0, 0.0\n    halt\nlast:\n    inc eax\n    halt\n"
	im, err := guest.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	load := func(im *guest.Image) *Memory {
		mem := NewMemory(false)
		if err := mem.LoadImage(im); err != nil {
			t.Fatal(err)
		}
		return mem
	}
	// The second memory holds -0.0 where the first holds 0.0.
	negZero, err := guest.Assemble(strings.Replace(src, "fldi f0, 0.0", "fldi f0, -0.0", 1))
	if err != nil {
		t.Fatal(err)
	}
	memA, memB := load(im), load(negZero)
	var a, b DecodeCache
	b.Share(a.Table())

	start, next, last := im.Entry, im.Labels["next"], im.Labels["last"]
	x, hit, err := a.Decode(memA, nil, start)
	if err != nil || hit {
		t.Fatalf("first decode: hit=%v err=%v", hit, err)
	}
	if _, _, err := b.Decode(memB, nil, last); err != nil { // warms b's scratch
		t.Fatal(err)
	}
	y, hit, err := b.Decode(memB, nil, start)
	if err != nil || hit || y != x {
		t.Fatalf("other front end's first decode: same=%v hit=%v err=%v", y == x, hit, err)
	}
	// The take allocates nothing. A front end takes a block once, so it
	// is counted over fresh pairs of front ends: the runtime's count is
	// the process's, and one take measured alone now and then read
	// another goroutine's allocations.
	const runs = 100
	pairs := make([][2]DecodeCache, runs+1)
	for i := range pairs {
		p := &pairs[i]
		p[1].Share(p[0].Table())
		p[0].Decode(memA, nil, start)
		p[1].Decode(memB, nil, last)
	}
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		pairs[i][1].Decode(memB, nil, start)
		i++
	}); n != 0 {
		t.Errorf("taking the table's block allocated %v times", n)
	}
	if err := memB.Store8(start, 0); !errors.As(err, new(*CodeWriteError)) {
		t.Errorf("the decode did not mark the second memory's page: %v", err)
	}
	if y, hit, _ := b.Decode(memB, nil, start); y != x || !hit {
		t.Errorf("second decode: same=%v hit=%v", y == x, hit)
	}
	if b.Cached(next) != nil {
		t.Errorf("a block only the other front end decoded is cached")
	}

	p, _, _ := a.Decode(memA, nil, next)
	q, hit, err := b.Decode(memB, nil, next)
	if err != nil || hit || q == p || q.Insts[0].F64 != 0 || !math.Signbit(q.Insts[0].F64) {
		t.Fatalf("divergent block: same=%v hit=%v err=%v insts=%v", q == p, hit, err, q.Insts)
	}
	if b.Cached(next) != q || a.Cached(next) != p {
		t.Errorf("each front end does not keep its own block at %#x", next)
	}
	if q2, hit, _ := b.Decode(memB, nil, next); q2 != q || !hit {
		t.Errorf("the divergent block is not cached: same=%v hit=%v", q2 == q, hit)
	}
}

// TestDecodeCacheShareConcurrent decodes one program through two front
// ends on two goroutines at once, the way a session's TOL and trailing
// authoritative VM do; run under -race. Every block ends up one block,
// seen by both.
func TestDecodeCacheShareConcurrent(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := p.Scale(0.02).Generate()
	if err != nil {
		t.Fatal(err)
	}
	var a, b DecodeCache
	b.Share(a.Table())
	code := im.Segments[0]
	var wg sync.WaitGroup
	for _, d := range []*DecodeCache{&a, &b} {
		mem := NewMemory(false)
		if err := mem.LoadImage(im); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range code.Data {
				d.Decode(mem, nil, code.Addr+uint32(i))
			}
		}()
	}
	wg.Wait()
	n := 0
	for i := range code.Data {
		pc := code.Addr + uint32(i)
		if x := a.Cached(pc); x != b.Cached(pc) {
			t.Fatalf("block at %#x: two blocks", pc)
		} else if x != nil {
			n++
		}
	}
	if n == 0 {
		t.Fatal("nothing decoded")
	}
}

// TestCachedTakesNoLock looks up blocks while another goroutine holds
// the table's mutex, the way the TOL looks up blocks while the shadow
// inserts one: a block this front end decoded is a hit, one only the
// other decoded is not, and neither waits for the lock.
func TestCachedTakesNoLock(t *testing.T) {
	im, err := guest.Assemble(".org 0x1000\nstart:\n    movri eax, 1\n    jmp next\nnext:\n    halt\n")
	if err != nil {
		t.Fatal(err)
	}
	mem := NewMemory(false)
	if err := mem.LoadImage(im); err != nil {
		t.Fatal(err)
	}
	var a, b DecodeCache
	b.Share(a.Table())
	x, _, _ := a.Decode(mem, nil, im.Entry)
	a.Table().mu.Lock()
	defer a.Table().mu.Unlock()
	done := make(chan bool)
	go func() {
		done <- a.Cached(im.Entry) == x && b.Cached(im.Entry) == nil
	}()
	select {
	case ok := <-done:
		if !ok {
			t.Error("Cached under a held lock: wrong blocks")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Cached waits for the table's mutex")
	}
}
