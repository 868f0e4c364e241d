package hostvm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"darco/internal/codecache"
	"darco/internal/host"
)

// mixBlock is a BBM block (so Run charges synthetic profile NOPs around
// it) that loops three times over a taken backward branch, falls through
// a not-taken one, and jumps to its exit.
func mixBlock() *codecache.Block {
	code := []host.Inst{
		{Op: host.LI, Rd: 20, Imm: 3},
		{Op: host.ADDI, Rd: 20, Ra: 20, Imm: -1}, // loop head
		{Op: host.LD, Rd: 21, Ra: 22},
		{Op: host.BNEZ, Ra: 20, Imm: -3}, // taken twice, then falls through
		{Op: host.BEQZ, Ra: 23, Imm: 0},  // r23 == 0: taken, to the next instruction
		{Op: host.JREL, Imm: 0},
		{Op: host.EXIT, Target: 0x2000},
	}
	b := block(code)
	b.Kind = codecache.KindBB
	return b
}

// TestMixMatchesRetireEvents runs the same block with the histogram
// attached and with a Retire consumer, and requires the histogram to
// equal a tally of the events — opcode by opcode, taken count included,
// synthetic NOPs too.
func TestMixMatchesRetireEvents(t *testing.T) {
	var want RetireMix
	evm := newVM()
	evm.Retire = func(ev RetireEvent) {
		want.Ops[ev.Inst.Op]++
		if ev.Taken {
			want.Taken++
		}
	}
	run(t, evm, mixBlock())

	mvm := newVM()
	mix := &RetireMix{CutAt: ^uint64(0)}
	mvm.Mix = mix
	run(t, mvm, mixBlock())

	if mix.Ops != want.Ops || mix.Taken != want.Taken {
		t.Errorf("histogram differs from the event tally:\n got %v taken %d\nwant %v taken %d",
			mix.Ops, mix.Taken, want.Ops, want.Taken)
	}
	var sum uint64
	for _, n := range mix.Ops {
		sum += n
	}
	if sum != mvm.AppInsns || mvm.AppInsns != evm.AppInsns {
		t.Errorf("histogram holds %d insns, VM retired %d (event run %d)", sum, mvm.AppInsns, evm.AppInsns)
	}
	if n := mix.Ops[host.NOPH]; n != uint64(2*DefaultConfig().ProfileCost) {
		t.Errorf("%d synthetic NOPs counted, want %d", n, 2*DefaultConfig().ProfileCost)
	}
}

// TestMixCutFiresAtEveryProgrammedCount programs a cut every k
// instructions for every k up to the run's length and requires OnCut to
// fire at exactly those AppInsns values — inside and at the end of the
// leading and trailing synthetic NOP runs as well as inside the block
// body. With a Retire consumer attached too, the consumer must have
// seen the instruction that reaches the cut before OnCut runs.
func TestMixCutFiresAtEveryProgrammedCount(t *testing.T) {
	ref := newVM()
	run(t, ref, mixBlock())
	total := ref.AppInsns

	for _, withRetire := range []bool{false, true} {
		for k := uint64(1); k <= total; k++ {
			vm := newVM()
			var seen uint64
			if withRetire {
				vm.Retire = func(RetireEvent) { seen++ }
			}
			var cuts []uint64
			mix := &RetireMix{CutAt: k}
			mix.OnCut = func() {
				if withRetire && seen != vm.AppInsns {
					t.Errorf("k=%d: cut at %d ran before the retire consumer saw that instruction (%d seen)", k, vm.AppInsns, seen)
				}
				var counted uint64
				for _, n := range mix.Ops {
					counted += n
				}
				if counted != vm.AppInsns {
					t.Errorf("k=%d retire=%v: %d insns counted at the cut at %d", k, withRetire, counted, vm.AppInsns)
				}
				cuts = append(cuts, vm.AppInsns)
				mix.CutAt += k
			}
			vm.Mix = mix
			run(t, vm, mixBlock())
			if vm.AppInsns != total {
				t.Fatalf("k=%d retire=%v: retired %d, want %d", k, withRetire, vm.AppInsns, total)
			}
			if uint64(len(cuts)) != total/k {
				t.Fatalf("k=%d retire=%v: %d cuts, want %d (%v)", k, withRetire, len(cuts), total/k, cuts)
			}
			for i, at := range cuts {
				if at != uint64(i+1)*k {
					t.Fatalf("k=%d retire=%v: cut %d fired at %d", k, withRetire, i, at)
				}
			}
		}
	}
}

// TestMixDetachFromOnCut detaches the histogram from inside OnCut, the
// way the last retire subscriber leaving from inside its sink does: the
// VM must finish the block without counting or calling back again.
func TestMixDetachFromOnCut(t *testing.T) {
	vm := newVM()
	mix := &RetireMix{CutAt: 5}
	calls := 0
	mix.OnCut = func() {
		calls++
		mix.CutAt = ^uint64(0)
		vm.Mix = nil
	}
	vm.Mix = mix
	run(t, vm, mixBlock())
	var sum uint64
	for _, n := range mix.Ops {
		sum += n
	}
	if calls != 1 || sum != 5 {
		t.Errorf("after detaching at 5: %d callbacks, %d insns counted", calls, sum)
	}
}

// isAppInsns reports whether e is the expression vm.AppInsns.
func isAppInsns(e ast.Expr) bool {
	if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.Name == "AppInsns" {
		x, ok := sel.X.(*ast.Ident)
		return ok && x.Name == "vm"
	}
	return false
}

// TestRetireFastPathSingleBranch pins the shape of runBlock's
// retirement fast path: inside the dispatch loop, everything that
// touches a retire consumer — vm.Retire, vm.Mix, vm.observe — and every
// store to vm.AppInsns sits under `observed`, one branch on a local
// hoisted before the loop. With nothing attached an instruction
// therefore costs that one branch and an increment of a local; the
// count reaches vm.AppInsns when the block is left.
func TestRetireFastPathSingleBranch(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "exec.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var loop *ast.ForStmt
	for _, d := range f.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Name.Name == "runBlock" {
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if fs, ok := n.(*ast.ForStmt); ok && loop == nil {
					loop = fs
				}
				return loop == nil
			})
		}
	}
	if loop == nil {
		t.Fatal("runBlock's dispatch loop not found")
	}
	guards := 0
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			// `if observed {...}` and the else of `if !observed {...}`:
			// anything goes under the guard, the other arm is inspected.
			cond, unobserved := n.Cond, ast.Node(n.Else)
			if not, ok := cond.(*ast.UnaryExpr); ok && not.Op == token.NOT {
				cond, unobserved = not.X, n.Body
			}
			if id, ok := cond.(*ast.Ident); ok && id.Name == "observed" && n.Init == nil {
				guards++
				if unobserved != nil {
					ast.Inspect(unobserved, visit)
				}
				return false
			}
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "vm" {
				switch n.Sel.Name {
				case "Retire", "Mix", "observe":
					t.Errorf("dispatch loop uses vm.%s outside `if observed`", n.Sel.Name)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if isAppInsns(lhs) {
					t.Error("dispatch loop stores to vm.AppInsns outside `if observed`")
				}
			}
		case *ast.IncDecStmt:
			if isAppInsns(n.X) {
				t.Error("dispatch loop stores to vm.AppInsns outside `if observed`")
			}
		}
		return true
	}
	ast.Inspect(loop.Body, visit)
	if guards == 0 {
		t.Error("no `if observed` guard found in the dispatch loop")
	}
}
