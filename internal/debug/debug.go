// Package debug is DARCO's debug toolchain (§V-D). When periodic state
// validation detects a divergence between the co-designed and
// authoritative components, the debugger re-executes the program in
// lockstep — validating after every TOL dispatch — to pinpoint the
// exact region where the problem originated, then replays that region's
// translation stage by stage (plain translation, forward pass, CSE,
// DCE, memory optimization, scheduling, full speculation) to identify
// the first pipeline stage that produces wrong code.
package debug

import (
	"context"
	"fmt"
	"strings"

	"darco/internal/codecache"
	"darco/internal/controller"
	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/hostvm"
	"darco/internal/tol"
)

// Report is the debugger's finding.
type Report struct {
	Mismatch *controller.MismatchError
	Suspect  tol.DispatchRecord // the dispatch after which state diverged
	Guilty   string             // first pipeline stage producing wrong results
	Detail   string             // per-stage verdicts
	Listing  string             // IR + host listing of the faulty region
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "divergence: %v\n", r.Mismatch)
	fmt.Fprintf(&b, "suspect region: %s @%#x (block %d)\n", r.Suspect.Mode, r.Suspect.PC, r.Suspect.BlockID)
	fmt.Fprintf(&b, "guilty stage: %s\n", r.Guilty)
	b.WriteString(r.Detail)
	return b.String()
}

// Locate runs the program in lockstep and pinpoints the first dispatch
// whose post-state diverges from the authoritative component, then
// replays the suspect region's translation pipeline. It returns nil if
// the program executes cleanly.
func Locate(im *guest.Image, cfg controller.Config) (*Report, error) {
	return LocateContext(context.Background(), im, cfg)
}

// LocateContext is Locate with cancellation: lockstep runs are slow, so
// the context is checked at every dispatch.
func LocateContext(ctx context.Context, im *guest.Image, cfg controller.Config) (*Report, error) {
	cfg.ValidateEveryNSyncs = 0 // we validate ourselves, every dispatch
	ctl, err := controller.New(im, cfg)
	if err != nil {
		return nil, err
	}

	var preCPU guest.CPU
	var preMem *guestvm.Memory
	for !ctl.CoD.Halted() {
		if !ctl.CoD.MidBB() {
			preCPU = ctl.CoD.CPU
			preMem = ctl.CoD.Mem.Clone()
		}
		if err := ctl.RunContext(ctx, 1); err != nil {
			if mm, ok := err.(*controller.MismatchError); ok {
				return buildReport(ctl, mm, preCPU, preMem)
			}
			return nil, err
		}
		if ctl.CoD.MidBB() {
			// Paused inside a basic block (mid-block page fault):
			// state comparison is only meaningful at block boundaries.
			continue
		}
		if err := ctl.StepValidate(); err != nil {
			if mm, ok := err.(*controller.MismatchError); ok {
				return buildReport(ctl, mm, preCPU, preMem)
			}
			return nil, err
		}
	}
	return nil, nil
}

// buildReport replays the suspect region stage by stage.
func buildReport(ctl *controller.Controller, mm *controller.MismatchError,
	preCPU guest.CPU, preMem *guestvm.Memory) (*Report, error) {

	rep := &Report{Mismatch: mm, Suspect: ctl.CoD.LastDispatch, Guilty: "unknown"}
	sus := ctl.CoD.LastDispatch
	if sus.BlockID < 0 {
		rep.Guilty = "interpreter / semantic core"
		return rep, nil
	}
	blk, ok := ctl.CoD.Cache.Get(sus.BlockID)
	if !ok {
		rep.Detail = "suspect block evicted; cannot replay\n"
		return rep, nil
	}

	// Reference: interpret from the pre-dispatch state.
	levels := []tol.OptLevel{
		tol.LevelNone, tol.LevelForward, tol.LevelCSE,
		tol.LevelDCE, tol.LevelMem, tol.LevelSched, tol.LevelFull,
	}
	var detail strings.Builder
	for _, lv := range levels {
		nb, err := ctl.CoD.RetranslateAtLevel(blk, lv)
		if err != nil {
			fmt.Fprintf(&detail, "  %-8s retranslation failed: %v\n", lv, err)
			continue
		}
		okRun, why := replayMatchesReference(nb, preCPU, preMem)
		verdict := "ok"
		if !okRun {
			verdict = "DIVERGES: " + why
		}
		fmt.Fprintf(&detail, "  %-8s %s\n", lv, verdict)
		if !okRun && rep.Guilty == "unknown" {
			if lv == tol.LevelNone {
				rep.Guilty = "base translation / code generation"
			} else {
				rep.Guilty = "pass: " + lv.String()
			}
		}
	}
	if rep.Guilty == "unknown" {
		rep.Guilty = "not reproducible in replay (chaining / runtime state)"
	}
	rep.Detail = detail.String()

	if irr, err := ctl.CoD.BuildRegionIR(blk); err == nil {
		var lst strings.Builder
		lst.WriteString(irr.String())
		lst.WriteString("host code:\n")
		for i := range blk.Code {
			fmt.Fprintf(&lst, "  %3d: %s\n", i, blk.Code[i].String())
		}
		rep.Listing = lst.String()
	}
	return rep, nil
}

// replayMatchesReference executes a translated block from a state
// snapshot and compares the result with interpreting the same retired
// instruction count.
func replayMatchesReference(blk *codecache.Block, preCPU guest.CPU, preMem *guestvm.Memory) (bool, string) {
	// Translated execution.
	tMem := preMem.Clone()
	tMem.Strict = false
	vm := hostvm.New(tMem, hostvm.DefaultConfig())
	tCPU := preCPU
	vm.Regs.LoadGuest(&tCPU)
	if err := vm.ReserveSpill(blk); err != nil {
		return false, fmt.Sprintf("host execution error: %v", err)
	}
	res, _, err := vm.Run(blk, 1_000_000)
	if err != nil {
		return false, fmt.Sprintf("host execution error: %v", err)
	}
	if res.Kind == hostvm.ExitAssertFail || res.Kind == hostvm.ExitMemSpecFail {
		// Rolled back: architecturally a no-op; nothing to compare.
		return true, ""
	}
	vm.Regs.StoreGuest(&tCPU)
	tCPU.EIP = res.NextPC
	exit := blk.Exit(res.ExitIdx)
	if exit == nil {
		return false, "exit without retirement metadata"
	}

	// Reference interpretation of the same instruction count.
	rMem := preMem.Clone()
	rMem.Strict = false
	rCPU := preCPU
	for k := 0; k < exit.Info.GuestInsns; k++ {
		raw, err := rMem.ReadBytes(rCPU.EIP, 10)
		if err != nil {
			return false, fmt.Sprintf("reference fetch: %v", err)
		}
		in, n := guest.Decode(raw)
		if n == 0 {
			return false, fmt.Sprintf("reference decode failed at %#x", rCPU.EIP)
		}
		if _, err := guest.Step(&rCPU, rMem, &in); err != nil {
			return false, fmt.Sprintf("reference step: %v", err)
		}
	}

	if rCPU != tCPU {
		return false, fmt.Sprintf("cpu state: ref eip %#x vs %#x", rCPU.EIP, tCPU.EIP)
	}
	if ok, addr := rMem.Equal(tMem); !ok {
		return false, fmt.Sprintf("memory at %#x", addr)
	}
	return true, ""
}
