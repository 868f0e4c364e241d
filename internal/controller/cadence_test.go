package controller

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/tol"
	"darco/internal/workload"
)

// outcome is everything a run leaves behind that is not wall time.
type outcome struct {
	Stats                                    tol.Stats
	Overhead                                 tol.Overhead
	Output                                   []byte
	ExitCode                                 int32
	Syncs                                    []SyncEvent
	Validations, PageTransfers, SyscallSyncs uint64
	CPU                                      guest.CPU
	InsnCount, BBCount                       uint64
	Mem                                      map[uint32][guestvm.PageSize]byte
}

// runAt runs im to completion with the shadow publishing every interval
// guest instructions; 0 never publishes, which is the serial catch-up the
// other cadences are held to.
func runAt(t *testing.T, im *guest.Image, cfg Config, interval uint64) outcome {
	t.Helper()
	var out outcome
	cfg.CheckInterval = interval
	cfg.OnSync = func(ev SyncEvent) { out.Syncs = append(out.Syncs, ev) }
	c, err := New(im, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0); err != nil {
		t.Fatalf("interval %d: %v", interval, err)
	}
	if c.targets != nil || c.lent {
		t.Fatalf("interval %d: the shadow outlived Run", interval)
	}
	out.Stats, out.Overhead = c.CoD.Stats, c.CoD.Overhead
	out.Output, out.ExitCode = c.Output(), c.X86.Env.ExitCode
	out.Validations, out.PageTransfers, out.SyscallSyncs = c.Validations, c.PageTransfers, c.SyscallSyncs
	out.CPU, out.InsnCount, out.BBCount = c.X86.CPU, c.X86.InsnCount, c.X86.BBCount
	out.Mem = make(map[uint32][guestvm.PageSize]byte)
	for _, addr := range c.X86.Mem.Pages() {
		page, err := c.X86.Mem.Page(addr)
		if err != nil {
			t.Fatal(err)
		}
		out.Mem[addr] = *page
	}
	return out
}

// cadences are the publish intervals every program runs at besides the
// serial one, plus one drawn from the program's own seed.
func cadences(seed int64) []uint64 {
	return []uint64{1, 7, 1000, 50_000, 1 + uint64(rand.New(rand.NewSource(seed)).Intn(5000))}
}

// program is one guest program the cadence properties run, with the
// configuration it runs under and the seed its drawn cadence comes from.
type program struct {
	name string
	im   *guest.Image
	cfg  Config
	seed int64
}

// randomConfig is the configuration random programs run under:
// aggressive promotion, so they reach superblocks.
func randomConfig() Config {
	cfg := DefaultConfig()
	cfg.TOL.BBThreshold = 2
	cfg.TOL.SBThreshold = 6
	cfg.MaxGuestInsns = 30_000_000
	return cfg
}

// cadencePrograms are the random programs and the scaled workloads the
// cadence properties hold (fewer and smaller under -short).
func cadencePrograms(t *testing.T) []program {
	t.Helper()
	var programs []program
	n, scale := uint64(60), 0.05
	if testing.Short() {
		n, scale = 15, 0.02
	}
	for seed := uint64(0); seed < n; seed++ {
		im, err := workload.RandomProgram(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		programs = append(programs, program{fmt.Sprint("random-", seed), im, randomConfig(), int64(seed)})
	}
	for i, name := range []string{"429.mcf", "433.milc", "continuous"} {
		p, _ := workload.ByName(name)
		im, err := p.Scale(scale).Generate()
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{name, im, DefaultConfig(), int64(1000 + i)})
	}
	return programs
}

// TestCadenceIndependence is the shadow's correctness property: where
// the authoritative run is cut, and on which goroutine each piece
// executes, changes nothing a run leaves behind — the co-designed
// statistics, every synchronization in order, the output, and the
// authoritative component's final registers, counts and memory.
func TestCadenceIndependence(t *testing.T) {
	for _, p := range cadencePrograms(t) {
		want := runAt(t, p.im, p.cfg, 0)
		for _, interval := range cadences(p.seed) {
			got := runAt(t, p.im, p.cfg, interval)
			if reflect.DeepEqual(got, want) {
				continue
			}
			// Name what moved; the memories are too large to print.
			gm, wm := got.Mem, want.Mem
			got.Mem, want.Mem = nil, nil
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s at interval %d:\n got %+v\nwant %+v", p.name, interval, got, want)
			} else if !reflect.DeepEqual(gm, wm) {
				t.Errorf("%s at interval %d: authoritative memory differs", p.name, interval)
			}
		}
	}
}

// TestShadowErrorSurfacesAsCatchUpError pokes undecodable bytes into the
// authoritative image ahead of the program counter, on a page the
// co-designed component already holds a good copy of: only the
// authoritative run can fail, on whichever goroutine reaches the bytes,
// and the run must end in the serial catch-up's error at every cadence.
func TestShadowErrorSurfacesAsCatchUpError(t *testing.T) {
	im, err := guest.Assemble(`
.org 0x1000
start:
    movri ecx, 0
loop:
    inc ecx
    cmpri ecx, 40000
    jl loop
tail:
    movri eax, 1
    movri ebx, 0
    syscall
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	var want string
	for _, interval := range append([]uint64{0}, cadences(1)...) {
		cfg := DefaultConfig()
		cfg.CheckInterval = interval
		c, err := New(im, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Far enough for the code page to have been transferred.
		if err := c.Run(100); err != nil {
			t.Fatal(err)
		}
		if err := c.X86.Mem.WriteBytes(im.Labels["tail"], make([]byte, 4)); err != nil {
			t.Fatal(err)
		}
		err = c.Run(0)
		if err == nil {
			t.Fatalf("interval %d: the tampered image ran to completion", interval)
		}
		if c.targets != nil || c.lent {
			t.Fatalf("interval %d: the shadow outlived a failed Run", interval)
		}
		if interval == 0 {
			want = err.Error()
			if want != fmt.Sprintf("guestvm: undecodable instruction at %#x", im.Labels["tail"]) {
				t.Fatalf("serial run failed with %q", want)
			}
		} else if err.Error() != want {
			t.Errorf("interval %d: error %q, want %q", interval, err, want)
		}
	}
}

// TestHaltedAloneIsAMismatch gives the co-designed component a code page
// that halts where the authoritative program carries on: the final
// synchronization must report the divergence, not validate past it.
func TestHaltedAloneIsAMismatch(t *testing.T) {
	im, err := guest.Assemble(smokeProgram)
	if err != nil {
		t.Fatal(err)
	}
	halt, err := guest.Assemble(".org 0x1000\nstart:\n    halt\n")
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(im, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	page, err := c.X86.Mem.Page(im.Entry)
	if err != nil {
		t.Fatal(err)
	}
	forged := *page
	copy(forged[im.Entry&(guestvm.PageSize-1):], halt.Segments[0].Data)
	c.CoD.InstallPage(im.Entry&^(guestvm.PageSize-1), &forged)
	err = c.Run(0)
	mm, ok := err.(*MismatchError)
	if !ok || mm.What != "eip" {
		t.Fatalf("want an eip mismatch, got %v", err)
	}
	if c.Validations != 0 {
		t.Errorf("the final synchronization validated (%d) before noticing", c.Validations)
	}
}
