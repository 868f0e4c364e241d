// Quickstart: assemble a small guest program, run it on the full
// co-designed stack through the Engine/Session API, and inspect what
// the TOL did with it — including the stream of translation events the
// Observer surfaces while the hot loop climbs the optimization modes.
package main

import (
	"context"
	"fmt"
	"log"

	darco "darco"
	"darco/internal/guest"
)

// A tiny guest program: sum the first 100000 integers, write the result
// through a system call, and exit. The hot loop is interpreted first,
// then promoted to a basic-block translation, and finally optimized into
// a superblock.
const program = `
.org 0x1000
.entry start
start:
    movri eax, 0          ; sum
    movri ecx, 1          ; i
loop:
    addrr eax, ecx
    inc ecx
    cmpri ecx, 100000
    jle loop

    movri ebp, 0x20000
    store [ebp+0], eax    ; stash the sum
    movri eax, 4          ; write(fd=1, buf, 4)
    movri ebx, 1
    movri ecx, 0x20000
    movri edx, 4
    syscall
    movri eax, 1          ; exit(0)
    movri ebx, 0
    syscall
    halt
`

func main() {
	im, err := guest.Assemble(program)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}

	// The engine is reusable configuration; the observer streams every
	// translation as the loop is promoted IM -> BBM -> SBM.
	eng, err := darco.NewEngine(
		darco.WithObserver(darco.ObserverFuncs{
			Translation: func(ev darco.TranslationEvent) {
				fmt.Printf("translated %-10s @%#x (%d guest -> %d host insns)\n",
					ev.Kind, ev.Entry, ev.GuestInsns, ev.HostInsns)
			},
		}),
	)
	if err != nil {
		log.Fatalf("engine: %v", err)
	}
	ses, err := eng.NewSession(im)
	if err != nil {
		log.Fatalf("session: %v", err)
	}
	res, err := ses.Run(context.Background())
	if err != nil {
		log.Fatalf("run: %v", err)
	}
	fmt.Println()

	sum := uint32(res.Output[0]) | uint32(res.Output[1])<<8 |
		uint32(res.Output[2])<<16 | uint32(res.Output[3])<<24
	fmt.Printf("guest computed sum(1..100000) = %d\n\n", sum)
	fmt.Print(res.Summary())
	fmt.Printf("\nThe final state was validated against the authoritative emulator\n")
	fmt.Printf("(%d full comparisons, %d page transfers).\n", res.Validations, res.PageTransfers)
}
