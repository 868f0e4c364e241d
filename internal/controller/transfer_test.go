package controller

import (
	"fmt"
	"testing"

	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/workload"
)

// checkTransfers runs im to completion with the shadow publishing every
// interval guest instructions and holds every page transfer to the
// authoritative point: the page the co-designed component just
// installed must equal that page in a reference guestvm started from
// the same image and run to the event's basic-block count. It returns
// how many transfers it checked.
//
// transferPage copies the page from wherever X86 stands, short of the
// progress point; this is the property that makes that sound.
func checkTransfers(t *testing.T, name string, im *guest.Image, cfg Config, interval uint64) int {
	t.Helper()
	ref, err := guestvm.New(im)
	if err != nil {
		t.Fatal(err)
	}
	var c *Controller
	checked, failed := 0, false
	cfg.CheckInterval = interval
	cfg.OnSync = func(ev SyncEvent) {
		if ev.Kind != SyncPageTransfer || failed {
			return
		}
		checked++
		if err := sameAsReference(c.CoD.Mem, ref, ev); err != nil {
			t.Errorf("%s at interval %d: %v", name, interval, err)
			failed = true
		}
	}
	if c, err = New(im, cfg); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(0); err != nil {
		t.Fatalf("%s at interval %d: %v", name, interval, err)
	}
	return checked
}

// sameAsReference runs ref to the transfer's basic-block count and
// compares the transferred page there.
func sameAsReference(cod *guestvm.Memory, ref *guestvm.VM, ev SyncEvent) error {
	if ref.BBCount < ev.GuestBBs { // a zero limit would mean none
		if _, err := ref.Run(guestvm.RunLimits{BBCount: ev.GuestBBs}); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
	}
	if ref.BBCount != ev.GuestBBs {
		return fmt.Errorf("reference at %d BBs, transfer at %d", ref.BBCount, ev.GuestBBs)
	}
	got, err := cod.Page(ev.Addr)
	if err != nil {
		return err
	}
	want, err := ref.Mem.Page(ev.Addr)
	if err != nil {
		return err
	}
	if *got == *want {
		return nil
	}
	off := 0
	for got[off] == want[off] {
		off++
	}
	return fmt.Errorf("page transferred at %d BBs differs from the authoritative point at %#x: got %#02x, want %#02x",
		ev.GuestBBs, ev.Addr+uint32(off), got[off], want[off])
}

// TestTransferredPageIsAuthoritative runs the transfer check over the
// cadence programs at every cadence; under -short each program takes
// one of them in turn.
func TestTransferredPageIsAuthoritative(t *testing.T) {
	total := 0
	for i, p := range cadencePrograms(t) {
		intervals := append([]uint64{0}, cadences(p.seed)...)
		if testing.Short() {
			intervals = intervals[i%len(intervals) : i%len(intervals)+1]
		}
		for _, interval := range intervals {
			total += checkTransfers(t, p.name, p.im, p.cfg, interval)
		}
	}
	if total == 0 {
		t.Fatal("no page transfer was checked")
	}
}

// FuzzTransferredPageIsAuthoritative is the same check on a random
// program and a publish interval the input chooses (0 never publishes).
func FuzzTransferredPageIsAuthoritative(f *testing.F) {
	f.Add(uint64(0), uint16(0))
	f.Add(uint64(3), uint16(1))
	f.Add(uint64(7), uint16(1000))
	f.Fuzz(func(t *testing.T, seed uint64, interval uint16) {
		im, err := workload.RandomProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		checkTransfers(t, "random", im, randomConfig(), uint64(interval))
	})
}
