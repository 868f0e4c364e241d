package darco_test

import (
	"context"
	"fmt"
	"log"

	darco "darco"
	"darco/internal/guest"
	"darco/internal/workload"
)

// sumProgram is a tiny guest program: sum the integers 1..1000, write
// the 4-byte result through a syscall, exit. Everything it retires is
// deterministic, which keeps these examples' outputs honest under
// `go test`.
const sumProgram = `
.org 0x1000
.entry start
start:
    movri eax, 0
    movri ecx, 1
loop:
    addrr eax, ecx
    inc ecx
    cmpri ecx, 1000
    jle loop

    movri ebp, 0x20000
    store [ebp+0], eax
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

// ExampleNewEngine runs one guest program on the default functional
// stack: a zero-option engine, one session, one result.
func ExampleNewEngine() {
	im, err := guest.Assemble(sumProgram)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := darco.NewEngine()
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Run(context.Background(), im)
	if err != nil {
		log.Fatal(err)
	}
	sum := uint32(res.Output[0]) | uint32(res.Output[1])<<8 |
		uint32(res.Output[2])<<16 | uint32(res.Output[3])<<24
	fmt.Println("sum(1..1000) =", sum)
	fmt.Println("exit code:", res.ExitCode)
	fmt.Println("validated against the authoritative emulator:", res.Validations > 0)
	// Output:
	// sum(1..1000) = 500500
	// exit code: 0
	// validated against the authoritative emulator: true
}

// ExampleEngine_RunCampaign sweeps a configuration point across
// workloads on a worker pool. Per-scenario statistics are
// deterministic at any parallelism.
func ExampleEngine_RunCampaign() {
	p1, _ := workload.ByName("429.mcf")
	p2, _ := workload.ByName("458.sjeng")
	scenarios := []darco.Scenario{
		{Name: "429.mcf", Profile: p1, Scale: 0.05},
		{Name: "458.sjeng", Profile: p2, Scale: 0.05},
	}
	eng, err := darco.NewEngine()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := eng.RunCampaign(context.Background(), scenarios, darco.WithParallelism(2))
	if err != nil {
		log.Fatal(err)
	}
	for _, sr := range rep.Results {
		fmt.Printf("%s: %d guest insns, %d superblocks\n",
			sr.Scenario.Name, sr.Result.Stats.GuestInsns(), sr.Result.Stats.SBTranslations)
	}
	// Output:
	// 429.mcf: 285791 guest insns, 39 superblocks
	// 458.sjeng: 234915 guest insns, 17 superblocks
}

// ExampleSession_SubscribeRetires streams the instruction mix of a
// run's retired host instructions, batched and interleaved with
// synchronization markers in retire order. (Add darco.WithRetireEvents
// to also receive the instructions one by one in b.Events.)
func ExampleSession_SubscribeRetires() {
	im, err := guest.Assemble(sumProgram)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := darco.NewEngine()
	if err != nil {
		log.Fatal(err)
	}
	ses, err := eng.NewSession(im)
	if err != nil {
		log.Fatal(err)
	}
	var insns, branches, syncs uint64
	ses.SubscribeRetires(func(b darco.RetireBatch) {
		if b.Sync != nil {
			syncs++
			return
		}
		insns += b.Mix.Insns
		branches += b.Mix.Class[darco.RetireBranch]
	})
	res, err := ses.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("stream saw every app host instruction:", insns == res.HostAppInsns)
	fmt.Println("branches retired:", branches)
	fmt.Println("synchronization markers:", syncs)
	// Output:
	// stream saw every app host instruction: true
	// branches retired: 1463
	// synchronization markers: 7
}
