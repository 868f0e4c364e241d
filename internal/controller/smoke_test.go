package controller

import (
	"testing"

	"darco/internal/guest"
)

// smokeProgram exercises loops hot enough to reach SBM, memory traffic,
// calls, FP and flag-dependent control flow.
const smokeProgram = `
.org 0x1000
start:
    movri ebp, 0x100000      ; data base
    movri ecx, 0             ; i = 0
    movri ebx, 0             ; sum
loop:
    movrr eax, ecx
    imulri eax, 3
    addri eax, 7
    addrr ebx, eax           ; sum += 3i+7
    storex [ebp+ecx<<2+0], eax
    inc ecx
    cmpri ecx, 500
    jl loop

    ; checksum pass over the array
    movri esi, 0
    movri edx, 0
chk:
    loadx eax, [ebp+esi<<2+0]
    xorrr edx, eax
    inc esi
    cmpri esi, 500
    jl chk

    ; a call/ret pair
    movrr eax, edx
    call double
    movrr edx, eax

    ; some FP including software-emulated trig
    fldi f0, 0.5
    fldi f1, 0.0
    movri edi, 0
floop:
    fsin f2, f0
    fadd f1, f2
    fadd f0, f0
    fsqrt f3, f1
    inc edi
    cmpri edi, 40
    jl floop

    ; store fp result and exit
    fst [ebp+4096], f1
    movri eax, 1             ; SysExit
    movri ebx, 0
    syscall
    halt

double:
    addrr eax, eax
    ret
`

func TestSmokeEndToEnd(t *testing.T) {
	im, err := guest.Assemble(smokeProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	cfg := DefaultConfig()
	cfg.MaxGuestInsns = 10_000_000
	c, err := New(im, cfg)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	if err := c.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("final validate: %v", err)
	}
	st := &c.CoD.Stats
	t.Logf("guest insns: IM=%d BBM=%d SBM=%d", st.GuestInsnsIM, st.GuestInsnsBBM, st.GuestInsnsSBM)
	t.Logf("translations: BB=%d SB=%d rebuilds(assert=%d spec=%d)",
		st.BBTranslations, st.SBTranslations, st.AssertRebuilds, st.SpecRebuilds)
	if st.SBTranslations == 0 {
		t.Errorf("expected superblock promotions, got none")
	}
	if st.GuestInsnsSBM == 0 {
		t.Errorf("expected SBM retirement, got none")
	}
}
