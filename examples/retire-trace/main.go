// Retire-trace: subscribe to a session's retire stream and watch the
// co-designed component's host instruction mix evolve as the TOL
// promotes the workload from interpretation to optimized superblocks.
//
// The stream delivers batches of retired host instructions interleaved
// — in retire order — with the synchronization events the controller
// mediates, on the session's own goroutine. Every batch carries its
// instruction mix (counted in the host VM's dispatch loop, nearly
// free); this example also asks for the instructions themselves
// (darco.WithRetireEvents, the same feed that drives the timing
// simulator) to rank the host opcodes the translated code retires.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	darco "darco"
	"darco/internal/workload"
)

func main() {
	p, ok := workload.ByName("429.mcf")
	if !ok {
		log.Fatal("workload missing")
	}
	im, err := p.Scale(0.1).Generate()
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

	// Aggregate the stream: the class mix and taken-transfer count from
	// each batch's Mix, an opcode ranking from its Events, and the
	// interleaved synchronization markers.
	var mix darco.RetireMix
	var events uint64
	var ops [256]uint64 // indexed by darco.RetireOp
	var syncLines []string
	ses.SubscribeRetires(func(b darco.RetireBatch) {
		if b.Sync != nil {
			if len(syncLines) < 8 {
				syncLines = append(syncLines, fmt.Sprintf("  seq %-4d %-13s @ %d guest insns",
					b.Seq, b.Sync.Kind, b.Sync.GuestInsns))
			}
			return
		}
		mix.Insns += b.Mix.Insns
		mix.Taken += b.Mix.Taken
		for c, n := range b.Mix.Class {
			mix.Class[c] += n
		}
		events += uint64(len(b.Events))
		for i := range b.Events {
			ops[b.Events[i].Op]++
		}
	}, darco.WithRetireEvents(), darco.WithRetireBatchSize(8192))

	res, err := ses.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("retire stream of %s: %d host instructions in the application stream\n\n", p.Name, mix.Insns)
	fmt.Println("instruction mix:")
	for c, n := range mix.Class {
		pct := 100 * float64(n) / float64(mix.Insns)
		fmt.Printf("  %-8s %7.2f%%  %s\n", darco.RetireClass(c), pct, strings.Repeat("#", int(pct/2)))
	}
	if branches := mix.Class[darco.RetireBranch]; branches > 0 {
		fmt.Printf("\nbranches: %d retired, %.1f%% taken\n", branches, 100*float64(mix.Taken)/float64(branches))
	}

	fmt.Println("\nhottest host opcodes:")
	ranked := make([]darco.RetireOp, len(ops))
	for op := range ranked {
		ranked[op] = darco.RetireOp(op)
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ops[ranked[i]] > ops[ranked[j]] })
	for _, op := range ranked[:6] {
		fmt.Printf("  %-8s %7.2f%%\n", op, 100*float64(ops[op])/float64(events))
	}

	fmt.Println("\nfirst synchronization markers in the stream:")
	for _, l := range syncLines {
		fmt.Println(l)
	}
	fmt.Printf("\nsession: %d guest insns, %d app host insns (mix and events each saw every one: %v)\n",
		res.Stats.GuestInsns(), res.HostAppInsns, mix.Insns == res.HostAppInsns && events == res.HostAppInsns)
}
