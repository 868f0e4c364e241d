package debug

import (
	"strings"
	"testing"

	"darco/internal/controller"
	"darco/internal/ir"
	"darco/internal/workload"
)

// TestLocateCleanRun verifies the debugger reports nothing on a correct
// translator.
func TestLocateCleanRun(t *testing.T) {
	p, _ := workload.ByName("429.mcf")
	im, err := p.Scale(0.01).Generate()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Locate(im, controller.DefaultConfig())
	if err != nil {
		t.Fatalf("locate: %v", err)
	}
	if rep != nil {
		t.Fatalf("unexpected divergence report:\n%s", rep)
	}
}

// TestLocateInjectedBug injects a translator bug and checks the debugger
// pinpoints the faulty region and stage. The second bug sits in code
// only the EagerFlags ablation emits, so it is found only if the replay
// rebuilds regions the way the run translated them.
func TestLocateInjectedBug(t *testing.T) {
	for _, tc := range []struct {
		name   string
		eager  bool
		mutate func(*ir.Region)
	}{
		{"add-to-sub", false, func(r *ir.Region) {
			if len(r.Code) < 40 {
				return // only corrupt superblock-sized regions
			}
			for i := range r.Code {
				in := &r.Code[i]
				if in.Op == ir.Add && in.A != 0 && in.B != 0 {
					in.Op = ir.Sub
					return
				}
			}
		}},
		{"eager-zf-inverted", true, func(r *ir.Region) {
			// Invert the comparison behind the last eagerly published ZF,
			// the one the region leaves in the architectural state.
			for i := len(r.Code) - 1; i >= 0; i-- {
				if set := &r.Code[i]; set.Op == ir.SetArch && set.Arch == ir.ArchZF {
					for j := range r.Code[:i] {
						if def := &r.Code[j]; def.Dst == set.A && def.Op == ir.Seq {
							def.Op = ir.Sne
							return
						}
					}
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, _ := workload.ByName("429.mcf")
			im, err := p.Scale(0.01).Generate()
			if err != nil {
				t.Fatal(err)
			}
			cfg := controller.DefaultConfig()
			cfg.TOL.EagerFlags = tc.eager
			cfg.TOL.MutateRegion = tc.mutate
			rep, err := Locate(im, cfg)
			if err != nil {
				t.Fatalf("locate: %v", err)
			}
			if rep == nil {
				t.Fatalf("injected bug not detected")
			}
			if rep.Suspect.Mode != "superblock" && rep.Suspect.Mode != "bb" {
				t.Errorf("suspect mode = %q, want a translated region", rep.Suspect.Mode)
			}
			if !strings.Contains(rep.Guilty, "base translation") && !strings.Contains(rep.Guilty, "pass:") {
				t.Errorf("guilty stage = %q", rep.Guilty)
			}
			if rep.Listing == "" {
				t.Errorf("expected a region listing")
			}
			if tc.eager && !strings.Contains(rep.Listing, "setarch") {
				t.Errorf("listing is not the eager-flags region that ran:\n%s", rep.Listing)
			}
			t.Logf("debugger verdict:\n%s", rep)
		})
	}
}
