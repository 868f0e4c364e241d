package controller

import (
	"strings"
	"testing"

	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/workload"
)

// TestSessionSharesDecodedBlocks runs every roster profile and then
// looks up every pc of the image on both sides: a block both components
// decoded is one *guestvm.Block, taken from the table the controller
// gave them both. (Not every block one decoded the other did: a block
// that runs into a page the TOL has not been sent yet is a partial
// block there, not cached, and the TOL resumes mid-block once the page
// arrives.)
func TestSessionSharesDecodedBlocks(t *testing.T) {
	scale := 0.05
	if testing.Short() {
		scale = 0.02
	}
	for _, p := range workload.Suites() {
		t.Run(p.Name, func(t *testing.T) {
			im, err := p.Scale(scale).Generate()
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(im, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Run(0); err != nil {
				t.Fatal(err)
			}
			both := 0
			for _, s := range im.Segments {
				for i := range s.Data {
					pc := s.Addr + uint32(i)
					a, b := c.X86.Decoded(pc), c.CoD.Decoded(pc)
					if a != nil && b != nil {
						both++
						if a != b {
							t.Fatalf("block at %#x: the VM's and the TOL's are two blocks", pc)
						}
					}
				}
			}
			if both == 0 {
				t.Error("no block decoded by both")
			}
		})
	}
}

// TestDivergentCodeIsNotShared gives the co-designed component a code
// page whose loop multiplies by 5 where the authoritative one's
// multiplies by 3. Each side decodes its own bytes, so the blocks that
// cover the planted byte are two, the rest are shared, and the run
// fails validation with the mismatch it has without a shared table.
func TestDivergentCodeIsNotShared(t *testing.T) {
	im, err := guest.Assemble(smokeProgram)
	if err != nil {
		t.Fatal(err)
	}
	planted, err := guest.Assemble(strings.Replace(smokeProgram, "imulri eax, 3", "imulri eax, 5", 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(im, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := im.Entry &^ (guestvm.PageSize - 1)
	var page [guestvm.PageSize]byte
	copy(page[im.Segments[0].Addr-base:], planted.Segments[0].Data)
	if err := c.CoD.InstallPage(base, &page); err != nil {
		t.Fatal(err)
	}

	const want = "state mismatch after 1042 BBs: register: edx: x86 0x820, co-designed 0x1bb8"
	if err := c.Run(0); err == nil || err.Error() != want {
		t.Fatalf("got %v, want %s", err, want)
	}
	for _, pc := range []uint32{im.Entry, im.Labels["loop"]} {
		a, b := c.X86.Decoded(pc), c.CoD.Decoded(pc)
		if a == nil || b == nil || a == b {
			t.Errorf("block at %#x: VM %p, TOL %p; want two blocks", pc, a, b)
		}
	}
	if pc := im.Labels["chk"]; c.X86.Decoded(pc) == nil || c.X86.Decoded(pc) != c.CoD.Decoded(pc) {
		t.Errorf("block at %#x, clear of the planted byte, is not shared", pc)
	}
}
