// Package hostvm is the host-ISA functional emulator of the co-designed
// component. It executes translated blocks from the code cache against
// the emulated guest state, implementing the co-design hardware
// extensions: architectural checkpointing, a gated (speculative) store
// buffer, assert-triggered rollback, and the alias-check table for
// speculatively reordered memory operations.
package hostvm

import (
	"fmt"
	"math"

	"darco/internal/codecache"
	"darco/internal/guest"
	"darco/internal/guestvm"
	"darco/internal/host"
)

// Regs is the host register file, 512 bytes. Guest architectural state
// is pinned: r1..r8 hold the guest GPRs, r9..r13 the guest flags as 0/1
// values, f1..f8 the guest FP registers.
type Regs struct {
	R [host.NumIntRegs]uint32
	F [host.NumFPRegs]float64
}

// LoadGuest packs guest architectural state into the pinned registers.
func (r *Regs) LoadGuest(cpu *guest.CPU) {
	for i := 0; i < guest.NumGPR; i++ {
		r.R[host.RGuestGPR+i] = cpu.R[i]
	}
	flag := func(bit uint32) uint32 {
		if cpu.Flags&bit != 0 {
			return 1
		}
		return 0
	}
	r.R[host.RFlagCF] = flag(guest.FlagCF)
	r.R[host.RFlagZF] = flag(guest.FlagZF)
	r.R[host.RFlagSF] = flag(guest.FlagSF)
	r.R[host.RFlagOF] = flag(guest.FlagOF)
	r.R[host.RFlagPF] = flag(guest.FlagPF)
	for i := 0; i < guest.NumFPR; i++ {
		r.F[host.FGuestFPR+i] = cpu.F[i]
	}
}

// StoreGuest unpacks the pinned registers back into guest state.
// EIP is owned by the dispatch loop and not touched here.
func (r *Regs) StoreGuest(cpu *guest.CPU) {
	for i := 0; i < guest.NumGPR; i++ {
		cpu.R[i] = r.R[host.RGuestGPR+i]
	}
	var f uint32
	if r.R[host.RFlagCF] != 0 {
		f |= guest.FlagCF
	}
	if r.R[host.RFlagZF] != 0 {
		f |= guest.FlagZF
	}
	if r.R[host.RFlagSF] != 0 {
		f |= guest.FlagSF
	}
	if r.R[host.RFlagOF] != 0 {
		f |= guest.FlagOF
	}
	if r.R[host.RFlagPF] != 0 {
		f |= guest.FlagPF
	}
	cpu.Flags = f
	for i := 0; i < guest.NumFPR; i++ {
		cpu.F[i] = r.F[host.FGuestFPR+i]
	}
}

// ExitKind classifies why block execution returned to software.
type ExitKind uint8

// Exit kinds. The two that leave through an exit instruction come first;
// the rest roll back to the checkpoint.
const (
	ExitToTOL       ExitKind = iota // unchained EXIT; NextPC is static
	ExitIndirect                    // EXITIND with IBTC miss; NextPC from register
	ExitAssertFail                  // assert failed; state rolled back to checkpoint
	ExitMemSpecFail                 // alias table hit; state rolled back to checkpoint
	ExitPageFault                   // guest page fault; state rolled back to checkpoint
)

func (k ExitKind) String() string {
	switch k {
	case ExitToTOL:
		return "exit"
	case ExitIndirect:
		return "exit-indirect"
	case ExitAssertFail:
		return "assert-fail"
	case ExitMemSpecFail:
		return "memspec-fail"
	case ExitPageFault:
		return "page-fault"
	}
	return "?"
}

// Result reports how a Run ended.
type Result struct {
	Kind      ExitKind
	NextPC    uint32 // guest PC to continue at
	FaultAddr uint32 // valid for ExitPageFault
	Block     *codecache.Block
	ExitIdx   int // index of the EXIT instruction, for chaining
}

// Config parameterises the co-design hardware the emulator models.
type Config struct {
	AliasTableSize int // entries in the speculative-load alias table
	IBTCCost       int // host instructions charged per inline IBTC probe
	ProfileCost    int // host instructions per software profile counter bump
}

// DefaultConfig mirrors the paper's modelled hardware.
func DefaultConfig() Config {
	return Config{AliasTableSize: 32, IBTCCost: 6, ProfileCost: 3}
}

// VM executes translated blocks. It owns the host register file and the
// speculative machinery but not the dispatch policy — the TOL drives it.
type VM struct {
	Regs Regs
	Mem  *guestvm.Memory
	Cfg  Config

	// IBTC probes the indirect-branch translation cache. It returns
	// the block translated for the guest target, if cached.
	IBTC func(target uint32) (*codecache.Block, bool)
	// Retire, when non-nil, observes every retired host instruction
	// (the timing simulator's instruction feed).
	Retire func(ev RetireEvent)
	// Mix, when non-nil, counts every retired host instruction by
	// opcode — the VM's performance-monitoring unit.
	Mix *RetireMix
	// pending lists the blocks whose tallies hold retirements that Mix
	// does not count yet (see tallied); empty whenever Run is not
	// executing and whenever OnCut runs.
	pending []*codecache.Block
	tallies codecache.TallyArena

	// Statistics. AppInsns is exact whenever anything can read it: while
	// Run is not executing, and inside every Retire and OnCut callback
	// (between those, runBlock holds part of the count in a local).
	AppInsns     uint64 // retired host instructions emulating the guest
	BlocksRun    uint64
	ChainFollows uint64
	IBTCHits     uint64
	IBTCMisses   uint64
	AssertFails  uint64
	MemSpecFails uint64
	Rollbacks    uint64

	// HotThreshold is the execution count at which a BBM block becomes
	// a superblock promotion candidate; crossings are queued for the
	// TOL to drain after the excursion.
	HotThreshold uint64
	hotQueue     []uint32

	// Checkpoint state.
	ckptRegs Regs

	// Gated store buffer: program-ordered pending stores.
	stbuf []pendingStore

	// Alias table for speculatively hoisted loads.
	alias []aliasEntry

	// TOL-private spill area serviced by SPILLI/UNSPILLI; invisible to
	// guest memory and therefore to state validation. Each bank grows
	// to the largest slot a reserved block names, plus one (see
	// ReserveSpill), so a run whose regions never spill allocates none.
	spillI []uint32
	spillF []float64
}

// MaxSpillSlots bounds the slot a spill instruction may name, in either
// bank: ReserveSpill refuses a block naming a slot outside
// [0, MaxSpillSlots).
const MaxSpillSlots = 4096

// ReserveSpill grows the spill banks to hold every slot the spill
// instructions of b name, so that runBlock indexes them without a
// check of its own. Whoever hands b to Run reserves it first: the TOL
// as it installs a translation, the debugger before it replays one. A
// slot outside [0, MaxSpillSlots) is refused with an error naming it,
// and nothing grows.
func (vm *VM) ReserveSpill(b *codecache.Block) error {
	ni, nf := len(vm.spillI), len(vm.spillF)
	for i := range b.Code {
		in := &b.Code[i]
		n := &ni
		switch in.Op {
		case host.SPILLI, host.UNSPILLI:
		case host.SPILLF, host.UNSPILLF:
			n = &nf
		default:
			continue
		}
		slot := int(in.Imm)
		if slot < 0 || slot >= MaxSpillSlots {
			return fmt.Errorf("hostvm: %v in block @%#x at %d names spill slot %d, outside [0, MaxSpillSlots)",
				in.Op, b.Entry, i, slot)
		}
		*n = max(*n, slot+1)
	}
	if ni > len(vm.spillI) {
		vm.spillI = append(vm.spillI, make([]uint32, ni-len(vm.spillI))...)
	}
	if nf > len(vm.spillF) {
		vm.spillF = append(vm.spillF, make([]float64, nf-len(vm.spillF))...)
	}
	return nil
}

// DrainHot returns and clears the queued superblock promotion
// candidates (guest entry PCs of BBM blocks that crossed HotThreshold).
func (vm *VM) DrainHot() []uint32 {
	out := vm.hotQueue
	vm.hotQueue = nil
	return out
}

type pendingStore struct {
	addr  uint32
	width uint8 // 1, 4 or 8
	val   uint64
}

type aliasEntry struct {
	addr  uint32
	width uint8
}

// New returns a VM bound to the co-designed component's emulated memory.
func New(mem *guestvm.Memory, cfg Config) *VM {
	return &VM{Mem: mem, Cfg: cfg}
}

// RetireEvent is one retired host instruction with the control-flow
// outcome the timing simulator's branch predictors need. PC and Target
// are synthetic host addresses (block id and instruction index packed).
type RetireEvent struct {
	// Inst points into the live code cache, which the TOL patches in
	// place (EXIT becomes CHAINED when a chain is installed): a consumer
	// reads it during the call and copies what it keeps, or it may later
	// see a different instruction than the one that retired.
	Inst   *host.Inst
	PC     uint32
	Taken  bool
	Target uint32
	Addr   uint32 // effective address for loads and stores
}

// RetireMix is the retirement PMU: an opcode histogram of the
// instructions the VM retires while one is attached to VM.Mix, and a
// programmed cut. The VM bumps it per instruction in a block that could
// reach the cut, and otherwise, with no Retire consumer attached, per
// control transfer into the block's tally, which it folds into the
// histogram before OnCut and when Run returns. Its owner reads and
// clears the counters from OnCut, or whenever the VM is not running.
type RetireMix struct {
	Ops [host.NumOps]uint64
	// Taken counts the retired control transfers that left the
	// fall-through path (what RetireEvent.Taken reports per event).
	Taken uint64

	// CutAt is the VM.AppInsns value at which the VM calls OnCut, right
	// after counting (and feeding VM.Retire) the instruction that
	// reaches it. OnCut must move CutAt forward; it may also detach the
	// histogram or change VM.Retire.
	CutAt uint64
	OnCut func()
}

// TOLDispatchPC is the synthetic host address of the TOL dispatch loop,
// the target of unchained exits.
const TOLDispatchPC = 0xF000_0000

// TeeRetire composes retire consumers into a single hook for the VM's
// Retire slot: the returned function forwards every event to each
// non-nil sink in order. Nil sinks are dropped, so TeeRetire() and
// TeeRetire(nil) return nil — preserving the no-consumer fast path —
// and a single surviving sink is returned unwrapped, so attaching only
// the timing simulator costs exactly what it did before this hook
// existed.
func TeeRetire(sinks ...func(RetireEvent)) func(RetireEvent) {
	live := sinks[:0]
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	fan := append([]func(RetireEvent){}, live...)
	return func(ev RetireEvent) {
		for _, s := range fan {
			s(ev)
		}
	}
}

// blockPC packs a synthetic host address for instruction idx of block
// id. The per-block stride is deliberately not a multiple of typical
// cache set spans so consecutive blocks spread across icache sets the
// way contiguously allocated code-cache regions do.
func blockPC(id, idx int) uint32 {
	return uint32(id)*4160 + uint32(idx)*4
}

var retireNop = host.Inst{Op: host.NOPH}

// memOps is the set of opcodes whose retire event carries an address —
// the loads and stores, scratchpad spills included, as Op.Desc describes
// them (TestMemOpsSet holds the two together) — one bit per opcode. A
// constant rather than a table: it adds no data to shift the tables the
// functional path reads, and an opcode past 63 shifts it to zero.
const memOps = 1<<host.LD | 1<<host.LDB | 1<<host.ST | 1<<host.STB | 1<<host.FLDH | 1<<host.FSTH |
	1<<host.SPILLI | 1<<host.UNSPILLI | 1<<host.SPILLF | 1<<host.UNSPILLF

// observe feeds the attached consumers one retired instruction, which
// AppInsns already counts: the retire event for the timing simulator
// first, then the PMU count and cut, so a cut callback finds the
// instruction that reached it already delivered. Kept out of the
// retirement fast path: with nothing attached, runBlock only counts and
// never materializes events or synthetic PCs. Both fields are re-read
// here because a consumer may detach itself — or attach the other one —
// from inside its callback.
func (vm *VM) observe(in *host.Inst, pc uint32, taken bool, target uint32) {
	if vm.Retire != nil {
		ev := RetireEvent{Inst: in, PC: pc, Taken: taken, Target: target}
		if uint64(memOps)>>in.Op&1 != 0 {
			ev.Addr = vm.Regs.R[in.Ra] + uint32(in.Imm)
		}
		vm.Retire(ev)
	}
	if m := vm.Mix; m != nil {
		m.Ops[in.Op]++
		if taken {
			m.Taken++
		}
		if vm.AppInsns == m.CutAt {
			vm.fold()
			m.OnCut()
		}
	}
}

// tallied returns b's tally, entered for a pass. Run calls it for a
// block the next cut is further away from than len(b.Code)
// instructions, while the histogram and no Retire consumer is attached:
// a pass through a block retires at most that many, since its branches
// all go forward, so nothing inside it can reach the cut or call back.
func (vm *VM) tallied(b *codecache.Block) *codecache.Tally {
	t := b.Tally
	if t == nil {
		t = vm.tallies.New(b.Code)
		b.Tally = t
	}
	if t.Enter() {
		vm.pending = append(vm.pending, b)
	}
	return t
}

// fold adds the pending tallies into the histogram. The blocks' Code is
// what their passes ran: the TOL patches code only between Runs. Kept
// out of line: it runs at most once per Run and per cut, and inlined it
// would add its loop to both Run and observe.
//
//go:noinline
func (vm *VM) fold() {
	m := vm.Mix
	for _, b := range vm.pending {
		m.Taken += b.Tally.Fold(b.Code, &m.Ops)
	}
	vm.pending = vm.pending[:0]
}

// chargeSynthetic accounts host instructions that exist in the real
// machine's code stream but are modelled as fixed-cost sequences (IBTC
// probes, profiling counter bumps). When no consumer takes them one by
// one and no cut falls inside the run, only the counters move.
func (vm *VM) chargeSynthetic(n int) {
	m := vm.Mix
	if vm.Retire == nil && (m == nil || m.CutAt-vm.AppInsns > uint64(n)) {
		vm.AppInsns += uint64(n)
		if m != nil {
			m.Ops[host.NOPH] += uint64(n)
		}
		return
	}
	for i := 0; i < n; i++ {
		vm.AppInsns++
		vm.observe(&retireNop, 0, false, 0)
	}
}

// checkpoint snapshots the register file and clears speculative state.
func (vm *VM) checkpoint() {
	vm.ckptRegs = vm.Regs
	vm.stbuf = vm.stbuf[:0]
	vm.alias = vm.alias[:0]
}

// rollback restores the checkpoint and discards speculative state.
func (vm *VM) rollback() {
	vm.Regs = vm.ckptRegs
	vm.stbuf = vm.stbuf[:0]
	vm.alias = vm.alias[:0]
	vm.Rollbacks++
}

// commit drains the store buffer to memory. No store fails: every
// buffered store address was probed at execute time (probeResident),
// and no page becomes resident or code while a block runs.
func (vm *VM) commit() error {
	for _, s := range vm.stbuf {
		var err error
		switch s.width {
		case 1:
			err = vm.Mem.Store8(s.addr, uint8(s.val))
		case 4:
			err = vm.Mem.Store32(s.addr, uint32(s.val))
		case 8:
			err = vm.Mem.Store64(s.addr, s.val)
		}
		if err != nil {
			return err
		}
	}
	vm.stbuf = vm.stbuf[:0]
	vm.alias = vm.alias[:0]
	return nil
}

func overlap(a uint32, aw uint8, b uint32, bw uint8) bool {
	return a < b+uint32(bw) && b < a+uint32(aw)
}

// bufLoad reads width bytes at addr, forwarding from the newest
// overlapping buffered store when it covers the access exactly;
// a partial overlap conservatively fails speculation (errPartialForward).
func (vm *VM) bufLoad(addr uint32, width uint8) (uint64, error) {
	for i := len(vm.stbuf) - 1; i >= 0; i-- {
		s := vm.stbuf[i]
		if s.addr == addr && s.width == width {
			return s.val, nil
		}
		if overlap(addr, width, s.addr, s.width) {
			return 0, errPartialForward
		}
	}
	var v uint64
	var err error
	switch width {
	case 1:
		var b uint8
		b, err = vm.Mem.Load8(addr)
		v = uint64(b)
	case 4:
		var w uint32
		w, err = vm.Mem.Load32(addr)
		v = uint64(w)
	case 8:
		v, err = vm.Mem.Load64(addr)
	}
	return v, err
}

var errPartialForward = fmt.Errorf("hostvm: partial store-to-load forward")

// probeStore checks a store against the alias table (speculatively
// hoisted loads that executed earlier but are younger in program order).
func (vm *VM) probeStore(addr uint32, width uint8) bool {
	for _, e := range vm.alias {
		if overlap(addr, width, e.addr, e.width) {
			return true
		}
	}
	return false
}

func (vm *VM) recordSpecLoad(addr uint32, width uint8) bool {
	if len(vm.alias) >= vm.Cfg.AliasTableSize {
		return false // table overflow: conservative failure
	}
	vm.alias = append(vm.alias, aliasEntry{addr: addr, width: width})
	return true
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func truncF64(f float64) int32 {
	if math.IsNaN(f) || f >= float64(math.MaxInt32)+1 || f < float64(math.MinInt32) {
		return math.MinInt32
	}
	return int32(f)
}
