package telemetry_test

// The property behind the PMU-style windower: the windows it builds
// from the host VM's opcode histogram are the windows the retired
// instructions themselves add up to. A second subscriber of the same
// session asks for every instruction as an event and recomputes the
// windows one event at a time — the reference implementation — and the
// two must agree window for window, in every engine mode.

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	darco "darco"
	"darco/internal/guest"
	"darco/internal/workload"
	"darco/telemetry"
)

// eventWindower recomputes windows from per-instruction events: count
// each event into the open window, cut exactly at the interval, charge
// a sync marker to the window open at its position.
type eventWindower struct {
	interval uint64
	cur      telemetry.Window
	wins     []telemetry.Window

	// nopCuts counts windows whose last instruction and the one after
	// it are both synthetic NOPs (IBTC probe / profile counter cost):
	// cuts that fell inside a chargeSynthetic run.
	nopCuts    int
	lastWasNop bool
	justCut    bool
}

func syntheticNop(ev *darco.RetireEvent) bool { return ev.Op.String() == "nop" && ev.PC == 0 }

func (r *eventWindower) sink(b darco.RetireBatch) {
	if b.Sync != nil {
		r.cur.Syncs++
		return
	}
	for i := range b.Events {
		ev := &b.Events[i]
		if r.justCut && r.lastWasNop && syntheticNop(ev) {
			r.nopCuts++
		}
		r.justCut = false
		r.lastWasNop = syntheticNop(ev)
		r.cur.Insns++
		switch ev.Class {
		case darco.RetireSimple:
			r.cur.Simple++
		case darco.RetireComplex:
			r.cur.Complex++
		case darco.RetireMemory:
			r.cur.Memory++
		case darco.RetireBranch:
			r.cur.Branch++
		}
		if ev.Load {
			r.cur.Loads++
		}
		if ev.Store {
			r.cur.Stores++
		}
		if ev.Taken {
			r.cur.Taken++
		}
		if r.cur.Insns >= r.interval {
			r.cut()
			r.justCut = true
		}
	}
}

func (r *eventWindower) cut() {
	r.wins = append(r.wins, r.cur)
	r.cur = telemetry.Window{Index: r.cur.Index + 1, StartInsn: r.cur.StartInsn + r.cur.Insns}
}

func (r *eventWindower) flush() {
	if r.cur.Insns != 0 || r.cur.Syncs != 0 {
		r.cut()
	}
}

type engineMode struct {
	name string
	opts []darco.Option
}

var engineModes = []engineMode{
	{"functional", nil},
	{"timing", []darco.Option{darco.WithConfig(darco.TimingConfig())}},
}

func testImage(t *testing.T, profile string, scale float64) *guest.Image {
	t.Helper()
	p, ok := workload.ByName(profile)
	if !ok {
		t.Fatalf("%s missing from roster", profile)
	}
	im, err := workload.CachedImage(p.Scale(scale))
	if err != nil {
		t.Fatal(err)
	}
	return im
}

func newSession(t *testing.T, im *guest.Image, opts ...darco.Option) *darco.Session {
	t.Helper()
	eng, err := darco.NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(im)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// attachedWindows runs a fresh session over im with only an attached
// windower — the path a served job takes, where no per-instruction
// event exists anywhere.
func attachedWindows(t *testing.T, im *guest.Image, interval uint64, opts ...darco.Option) ([]telemetry.Window, *darco.Result) {
	t.Helper()
	sess := newSession(t, im, opts...)
	var wins []telemetry.Window
	wd := telemetry.NewWindower(interval, func(w telemetry.Window) { wins = append(wins, w) })
	wd.Attach(sess)
	res, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wd.Flush()
	return wins, res
}

func sumInsns(wins []telemetry.Window) (n uint64) {
	for i := range wins {
		n += wins[i].Insns
	}
	return n
}

// TestAttachedWindowsEqualEventRecount is the property test: one
// profile from each suite × four intervals × three engine modes.
func TestAttachedWindowsEqualEventRecount(t *testing.T) {
	intervals := []uint64{4096, 50_000, 1 << 16, 1 << 20}
	nopCuts := 0
	for _, profile := range []string{"429.mcf", "470.lbm", "ragdoll"} {
		for _, mode := range engineModes {
			if testing.Short() && mode.name != "functional" && profile != "429.mcf" {
				continue
			}
			// Around a million host instructions functionally, a third
			// of that with the timing simulator consuming each one
			// (Physicsbench profiles are short: three times the scale).
			scale := 0.1
			if mode.name != "functional" {
				scale = 0.03
			}
			if profile == "ragdoll" {
				scale *= 3
			}
			im := testImage(t, profile, scale)
			for _, interval := range intervals {
				t.Run(fmt.Sprintf("%s/%s/%d", profile, mode.name, interval), func(t *testing.T) {
					sess := newSession(t, im, mode.opts...)
					var wins []telemetry.Window
					wd := telemetry.NewWindower(interval, func(w telemetry.Window) { wins = append(wins, w) })
					wd.Attach(sess)
					ref := &eventWindower{interval: interval}
					sess.SubscribeRetires(ref.sink, darco.WithRetireEvents(), darco.WithRetireBatchSize(1000))
					res, err := sess.Run(context.Background())
					if err != nil {
						t.Fatal(err)
					}
					wd.Flush()
					ref.flush()
					nopCuts += ref.nopCuts

					if !reflect.DeepEqual(wins, ref.wins) {
						t.Fatalf("attached windows differ from the event recount (%d vs %d windows)\n got %v\nwant %v",
							len(wins), len(ref.wins), head(wins), head(ref.wins))
					}
					if got := sumInsns(wins); got != res.HostAppInsns {
						t.Errorf("windows cover %d insns, session retired %d", got, res.HostAppInsns)
					}
					for i, w := range wins[:len(wins)-1] {
						if w.Insns != interval {
							t.Fatalf("non-final window %d covers %d insns, want %d", i, w.Insns, interval)
						}
					}
					// The same scenario with the windower alone — no event
					// is ever built — must yield the same windows.
					solo, soloRes := attachedWindows(t, im, interval, mode.opts...)
					if !reflect.DeepEqual(solo, wins) {
						t.Errorf("windows of a windower-only session differ from those next to an events subscriber\n got %v\nwant %v",
							head(solo), head(wins))
					}
					if soloRes.Stats != res.Stats || soloRes.HostAppInsns != res.HostAppInsns {
						t.Errorf("the events subscriber changed the run's statistics")
					}
				})
			}
		}
	}
	if nopCuts == 0 {
		t.Error("no window cut fell inside a synthetic NOP run; the property test lost that case")
	}
}

func head(w []telemetry.Window) []telemetry.Window {
	if len(w) > 3 {
		return w[:3]
	}
	return w
}

// TestAttachBetweenSteps attaches mid-session: windows start at the
// attach point, count from zero there, and still equal the recount.
func TestAttachBetweenSteps(t *testing.T) {
	const interval = 4096
	sess := newSession(t, testImage(t, "429.mcf", 0.1))
	ctx := context.Background()
	first, err := sess.Step(ctx, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Done() {
		t.Fatal("workload too short for an incremental step")
	}
	var wins []telemetry.Window
	wd := telemetry.NewWindower(interval, func(w telemetry.Window) { wins = append(wins, w) })
	wd.Attach(sess)
	ref := &eventWindower{interval: interval}
	sess.SubscribeRetires(ref.sink, darco.WithRetireEvents())
	// Finish in small steps: every Step ends an excursion, which adds
	// deliveries but must not move a window boundary.
	var final *darco.Result
	for !sess.Done() {
		if final, err = sess.Step(ctx, 25_000); err != nil {
			t.Fatal(err)
		}
	}
	wd.Flush()
	ref.flush()
	if !reflect.DeepEqual(wins, ref.wins) {
		t.Fatalf("windows attached mid-session differ from the event recount\n got %v\nwant %v", head(wins), head(ref.wins))
	}
	if wins[0].StartInsn != 0 || wins[0].Insns != interval {
		t.Errorf("first window after a mid-session attach: %+v", wins[0])
	}
	if got, want := sumInsns(wins), final.HostAppInsns-first.HostAppInsns; got != want {
		t.Errorf("windows cover %d insns, session retired %d after the attach", got, want)
	}
}

// TestCoSubscriberLeavingFromItsSink: an events subscriber that
// unsubscribes from inside its own callback takes the per-instruction
// feed with it and leaves the windower's windows untouched.
func TestCoSubscriberLeavingFromItsSink(t *testing.T) {
	const interval = 50_000
	im := testImage(t, "429.mcf", 0.1)
	want, _ := attachedWindows(t, im, interval)

	sess := newSession(t, im)
	var wins []telemetry.Window
	wd := telemetry.NewWindower(interval, func(w telemetry.Window) { wins = append(wins, w) })
	wd.Attach(sess)
	var deliveries, events int
	var leave func()
	leave = sess.SubscribeRetires(func(b darco.RetireBatch) {
		deliveries++
		events += len(b.Events)
		if deliveries == 5 {
			leave()
		}
	}, darco.WithRetireEvents(), darco.WithRetireBatchSize(777))
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wd.Flush()
	if deliveries != 5 || events == 0 {
		t.Errorf("self-cancelled subscriber heard %d deliveries, %d events", deliveries, events)
	}
	if !reflect.DeepEqual(wins, want) {
		t.Errorf("windows changed when a co-subscriber left mid-run\n got %v\nwant %v", head(wins), head(want))
	}
}

// TestFinalSyncAloneInLastWindow sets the interval to the run's exact
// length: the first window closes on the last retired instruction, and
// the final validation sync — which always follows it — gets a window
// of its own with no instructions in it.
func TestFinalSyncAloneInLastWindow(t *testing.T) {
	im := testImage(t, "429.mcf", 0.05)
	_, res := attachedWindows(t, im, 0)
	total := res.HostAppInsns

	sess := newSession(t, im)
	var wins []telemetry.Window
	wd := telemetry.NewWindower(total, func(w telemetry.Window) { wins = append(wins, w) })
	wd.Attach(sess)
	ref := &eventWindower{interval: total}
	sess.SubscribeRetires(ref.sink, darco.WithRetireEvents())
	if _, err := sess.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	wd.Flush()
	ref.flush()
	if !reflect.DeepEqual(wins, ref.wins) {
		t.Fatalf("windows differ from the event recount\n got %v\nwant %v", wins, ref.wins)
	}
	if len(wins) != 2 || wins[0].Insns != total || wins[1].Insns != 0 || wins[1].Syncs == 0 || wins[1].StartInsn != total {
		t.Errorf("want one full window and a sync-only tail, got %+v", wins)
	}
}
