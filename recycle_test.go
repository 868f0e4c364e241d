package darco

import (
	"context"
	"fmt"
	"testing"

	"darco/internal/workload"
)

// A session that did not finish keeps its memory: the free lists get
// none of it. What a finished session hands on is held from outside the
// package (recycle_campaign_test.go).

// TestPanicBeforeReleaseKeepsMemory: a session whose run panics is not
// released, since the authoritative component's goroutine may not have
// been joined: its memories and code cache keep everything they hold,
// and the free lists get none of it.
func TestPanicBeforeReleaseKeepsMemory(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	obsv := &panicAfterTranslation{}
	sc := Scenario{Profile: p, Scale: 0.05, Options: []Option{WithObserver(obsv)}}
	var sess *Session
	cc := &campaignConfig{onSession: []func(int, *Scenario, *Session){
		func(_ int, _ *Scenario, s *Session) { sess = s },
	}}
	eng, err := NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != errPlanted {
				t.Fatalf("recovered %v, want the planted panic", r)
			}
		}()
		eng.runScenario(context.Background(), 0, sc, cc)
	}()
	if sess == nil {
		t.Fatal("the session hook never ran")
	}
	ctl := sess.ctl
	if ctl.X86.Mem.PageCount() == 0 || ctl.CoD.Mem.PageCount() == 0 {
		t.Errorf("memories were emptied: x86 %d pages, co-designed %d", ctl.X86.Mem.PageCount(), ctl.CoD.Mem.PageCount())
	}
	if ctl.CoD.Cache.Len() == 0 || ctl.CoD.Cache.Used() == 0 {
		t.Errorf("code cache was emptied: %d blocks, %d insns", ctl.CoD.Cache.Len(), ctl.CoD.Cache.Used())
	}
	im, err := workload.CachedImage(p.Scale(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if ctl.CoD.Decoded(im.Entry) == nil {
		t.Error("the table of decoded blocks was emptied")
	}
	if ctl.CoD.BBFreqSnapshot()[im.Entry] == 0 {
		t.Error("the co-designed profile was emptied")
	}
}

var errPlanted = fmt.Errorf("planted observer panic")

// panicAfterTranslation panics at the first synchronization after the
// session's first translation.
type panicAfterTranslation struct{ translated bool }

func (o *panicAfterTranslation) OnTranslation(TranslationEvent) { o.translated = true }
func (o *panicAfterTranslation) OnProgress(Progress)            {}
func (o *panicAfterTranslation) OnSync(SyncEvent) {
	if o.translated {
		panic(errPlanted)
	}
}
