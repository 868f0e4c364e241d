package tol

import (
	"math"
	"testing"

	"darco/internal/codecache"
	"darco/internal/guest"
	"darco/internal/hostvm"
	"darco/internal/ir"
)

func TestTrigBitIdentical(t *testing.T) {
	inputs := []float64{0, 0.5, 1, -1, 3.9, -3.9, 6.28, 100.7, -256.1, 1e6, 1e12, -0.25, 2.25, 3.75, -3.75}
	for _, v := range inputs {
		for _, sin := range []bool{true, false} {
			x := new(scratch).newXlate(0x1000, false, false)
			arg := x.constF(v)
			coef := guest.SinCoef[:]
			if !sin {
				coef = guest.CosCoef[:]
			}
			res := x.trig(arg, coef, sin)
			x.set(ir.ArchF0, res)
			x.emitExit(0x2000, false)
			gen, _, err := lowerRegion(x.r, false, 0, LevelNone, nil)
			if err != nil {
				t.Fatal(err)
			}
			blk := (&TOL{Cache: codecache.New(0)}).ownResult(gen, 1)
			blk.Entry, blk.BBs[0] = 0x1000, 0x1000
			vm := hostvm.New(nil, hostvm.DefaultConfig())
			r, _, err := vm.Run(blk, 0)
			if err != nil {
				t.Fatal(err)
			}
			_ = r
			var cpu guest.CPU
			vm.Regs.StoreGuest(&cpu)
			want := guest.SoftSin(v)
			if !sin {
				want = guest.SoftCos(v)
			}
			if math.Float64bits(cpu.F[0]) != math.Float64bits(want) {
				t.Errorf("sin=%v x=%g: translated %g (%x) vs reference %g (%x)", sin, v, cpu.F[0], math.Float64bits(cpu.F[0]), want, math.Float64bits(want))
			}
		}
	}
}
