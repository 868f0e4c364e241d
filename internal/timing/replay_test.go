package timing_test

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"darco/internal/controller"
	"darco/internal/host"
	"darco/internal/hostvm"
	"darco/internal/timing"
	"darco/internal/tol"
	"darco/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite internal/timing/testdata goldens from this tree")

// retired is one retired instruction copied at emit, the fields
// Core.Consume reads: the TOL patches EXIT to CHAINED in place, so a
// recording that kept the *host.Inst would replay a different stream.
type retired struct {
	pc, target, addr uint32
	op               host.Op
	rd, ra, rb       uint8
	taken            bool
}

func (ev *retired) feed(sink func(hostvm.RetireEvent)) {
	in := host.Inst{Op: ev.op, Rd: ev.rd, Ra: ev.ra, Rb: ev.rb}
	sink(hostvm.RetireEvent{Inst: &in, PC: ev.pc, Taken: ev.taken, Target: ev.target, Addr: ev.addr})
}

// runTimed runs a workload with a default-configured timing core on
// the retire stream (and the TOL's overhead charged at the end, as a
// session does), keeping the first limit events.
func runTimed(tb testing.TB, bench string, scale float64, limit int) (*timing.Core, []retired) {
	tb.Helper()
	p, ok := workload.ByName(bench)
	if !ok {
		tb.Fatalf("unknown workload %s", bench)
	}
	im, err := workload.CachedImage(p.Scale(scale))
	if err != nil {
		tb.Fatal(err)
	}
	ctl, err := controller.New(im, controller.Config{TOL: tol.DefaultConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	core := timing.New(timing.DefaultConfig())
	events := make([]retired, 0, limit)
	ctl.CoD.VM.Retire = func(ev hostvm.RetireEvent) {
		if len(events) < limit {
			in := ev.Inst
			events = append(events, retired{pc: ev.PC, target: ev.Target, addr: ev.Addr,
				op: in.Op, rd: in.Rd, ra: in.Ra, rb: in.Rb, taken: ev.Taken})
		}
		core.Consume(ev)
	}
	if err := ctl.RunContext(context.Background(), 0); err != nil {
		tb.Fatal(err)
	}
	core.AddTOL(ctl.CoD.Overhead.Total())
	return core, events
}

// coreGolden is everything the simulator reports for one run: Stats
// plus every component counter the power model and the reports read.
type coreGolden struct {
	Stats timing.Stats
	timing.Activity
}

func snapshotCore(c *timing.Core) coreGolden { return coreGolden{c.Stats, c.Activity()} }

// TestCoreGolden pins the whole timing report — Stats and the
// per-component counters — for two full runs against values captured
// from the pre-table kernel (commit 5f432fe). `go test -update`
// rewrites them, which is only right when the modelled machine changes.
func TestCoreGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full timing-mode emulation runs")
	}
	for _, bench := range []string{"429.mcf", "433.milc"} {
		t.Run(bench, func(t *testing.T) {
			core, _ := runTimed(t, bench, 0.25, 0)
			got := snapshotCore(core)
			path := filepath.Join("testdata", "golden_"+bench+".json")
			if *updateGolden {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var want coreGolden
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("timing report diverges from %s:\n got %+v\nwant %+v", path, got, want)
			}
		})
	}
}

// BenchmarkCoreConsumeReplay is Consume's cost on a real stream: the
// first 2M retirements of 429.mcf, recorded once and replayed into a
// fresh core per iteration. BenchmarkCoreConsume's three instructions
// over 64 PCs never miss a cache or a predictor and read about half of
// this.
func BenchmarkCoreConsumeReplay(b *testing.B) {
	_, events := runTimed(b, "429.mcf", 0.25, 2_000_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		consume := timing.New(timing.DefaultConfig()).Consume
		for j := range events {
			events[j].feed(consume)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
}
