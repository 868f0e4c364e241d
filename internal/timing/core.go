package timing

import (
	"fmt"

	"darco/internal/host"
	"darco/internal/hostvm"
)

// Config carries the timing parameters the paper lists for the
// simulator, those the host ISA has a use for: issue width, instruction
// queue size, numbers of execution units and latencies, branch
// predictor and BTB sizes, cache and TLB geometry/latencies, and memory
// ports.
type Config struct {
	FetchWidth    int
	IssueWidth    int
	IQSize        int
	FrontendDepth int // fetch-to-issue pipeline depth
	RedirectPen   int // extra cycles on a front-end redirect

	SimpleUnits  int
	ComplexUnits int
	MemReadPorts int
	MemWritePts  int

	BPred BPredConfig

	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig

	ITLB    TLBConfig
	DTLB    TLBConfig
	L2TLB   TLBConfig
	WalkLat int

	MemLatency int // L2 miss penalty

	PrefetchEntries int
	PrefetchDegree  int

	// TOLCPI models the average CPI of the TOL's own host instructions
	// when charged through AddTOL (the TOL is software on this core).
	TOLCPI float64
}

// DefaultConfig models the paper's simple in-order co-designed core:
// 2-wide, with modest caches and a stride prefetcher.
func DefaultConfig() Config {
	return Config{
		FetchWidth:      2,
		IssueWidth:      2,
		IQSize:          32,
		FrontendDepth:   4,
		RedirectPen:     6,
		SimpleUnits:     2,
		ComplexUnits:    1,
		MemReadPorts:    1,
		MemWritePts:     1,
		BPred:           BPredConfig{GShareBits: 12, BTBEntries: 1024},
		L1I:             CacheConfig{Sets: 128, Ways: 4, LineBytes: 64, Latency: 1},
		L1D:             CacheConfig{Sets: 128, Ways: 4, LineBytes: 64, Latency: 2},
		L2:              CacheConfig{Sets: 1024, Ways: 8, LineBytes: 64, Latency: 12},
		ITLB:            TLBConfig{Entries: 64, Ways: 4, Latency: 0},
		DTLB:            TLBConfig{Entries: 64, Ways: 4, Latency: 0},
		L2TLB:           TLBConfig{Entries: 512, Ways: 4, Latency: 7},
		WalkLat:         30,
		MemLatency:      120,
		PrefetchEntries: 64,
		PrefetchDegree:  2,
		TOLCPI:          0.9,
	}
}

// Stats is the simulator's execution report.
type Stats struct {
	Cycles     uint64
	Insns      uint64 // application host instructions simulated
	TOLInsns   uint64 // TOL host instructions charged via AddTOL
	TOLCycles  uint64
	Branches   uint64
	Mispredict uint64
	Loads      uint64
	Stores     uint64

	StallOperand uint64 // cycles lost waiting on operands
	StallFU      uint64 // cycles lost waiting on execution units
	StallMem     uint64 // extra cycles from cache/TLB misses
	StallFront   uint64 // cycles lost to front-end redirects

	// ClassCount buckets simulated instructions by execution class
	// (host.Class). No opcode is of host.ClassVector, so its slot is 0.
	ClassCount [5]uint64
}

// IPC reports application instructions per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Insns) / float64(s.Cycles)
}

// Core is the in-order superscalar model. Feed it retired instructions
// through Consume (wire it to hostvm.VM.Retire) and TOL overhead through
// AddTOL.
type Core struct {
	Cfg Config

	BP   *BPred
	L1I  *Cache
	L1D  *Cache
	L2   *Cache
	TLBs *TLBHierarchy
	PF   *StridePrefetcher

	Stats Stats

	// ops is the per-opcode operand and resource table Consume runs
	// from, built once by New (see opRow).
	ops [256]opRow

	// Scoreboard: cycle at which each register's value is ready, the
	// two register banks in one array (see the slot constants).
	ready [numSlots]uint64

	// Execution unit free cycles, per pool (see the pool constants).
	units [numPools][]uint64

	// Per-cycle issue and port bookkeeping (in-order issue clock is
	// monotonic, so single current-cycle counters suffice).
	lastIssue  uint64
	issueCnt   int
	portCycle  uint64
	rdPortUsed int
	wrPortUsed int

	// Front-end clock.
	fetchCycle uint64
	fetchCnt   int
	lastLine   uint32

	// Constants New derives from Cfg, so Consume does not re-derive them
	// per event: the L1I line mask, the fetch-to-issue depth, and the
	// penalties of an L2 hit and of a memory access (L2 lookup included).
	lineMask   uint32
	frontDepth uint64
	l2Pen      uint64
	memPen     uint64

	// Instruction queue: ring of issue cycles for occupancy limits.
	iq    []uint64
	iqPos int

	tolCarry float64
}

// New builds a core.
func New(cfg Config) *Core {
	c := &Core{
		Cfg: cfg,
		BP:  NewBPred(cfg.BPred),
		L1I: NewCache(cfg.L1I),
		L1D: NewCache(cfg.L1D),
		L2:  NewCache(cfg.L2),
		PF:  NewStridePrefetcher(cfg.PrefetchEntries, cfg.PrefetchDegree),
		iq:  make([]uint64, cfg.IQSize),

		lineMask:   ^uint32(cfg.L1I.LineBytes - 1),
		frontDepth: uint64(cfg.FrontendDepth),
		l2Pen:      uint64(cfg.L2.Latency),
		memPen:     uint64(cfg.L2.Latency + cfg.MemLatency),
	}
	c.TLBs = &TLBHierarchy{
		L1I:     NewTLB(cfg.ITLB),
		L1D:     NewTLB(cfg.DTLB),
		L2:      NewTLB(cfg.L2TLB),
		WalkLat: cfg.WalkLat,
	}
	c.units = [numPools][]uint64{
		poolSimple:  make([]uint64, cfg.SimpleUnits),
		poolComplex: make([]uint64, cfg.ComplexUnits),
	}
	c.ops = buildOps()
	return c
}

// Scoreboard slots: the integer and FP banks back to back, then
// slotZero, which nothing writes (an absent source reads it and never
// waits), and slotSink, which nothing reads (an instruction without a
// destination writes it).
const (
	slotInt  = 0
	slotFP   = slotInt + host.NumIntRegs
	slotZero = slotFP + host.NumFPRegs
	slotSink = slotZero + 1
	numSlots = slotSink + 1
)

// Execution unit pools.
const (
	poolSimple = iota // also issues branches and memory operations
	poolComplex
	numPools
)

// opRow flags.
const (
	flagLoad        = 1 << iota // reads through the data cache (scratchpad traffic does not)
	flagStore                   // writes through the data cache
	flagUnpipelined             // holds its unit for the whole latency
	flagBranch
	flagConditional
)

// operand selects a scoreboard slot for an instruction: a bank base plus
// the register number shift bits up in the packed Rd | Ra<<8 | Rb<<16
// word. Shift 24 reads zero; with slotZero or slotSink as the base that
// is "no operand".
type operand struct{ base, shift uint8 }

// slot masks the shift only to spare the compiler's guard for shifts of
// 32 and more.
func (o operand) slot(regs uint32) uint { return uint(o.base) + uint(uint8(regs>>(o.shift&31))) }

var (
	noSrc         = operand{slotZero, 24}
	noDst         = operand{slotSink, 24}
	iRd, iRa, iRb = operand{slotInt, 0}, operand{slotInt, 8}, operand{slotInt, 16}
	fRd, fRa, fRb = operand{slotFP, 0}, operand{slotFP, 8}, operand{slotFP, 16}
)

// opRow is everything Consume needs to know about an opcode.
type opRow struct {
	lat   uint32 // execution latency
	src   [2]operand
	dst   operand
	pool  uint8
	class host.Class
	flags uint8
}

// opShapes lists every defined host opcode once, grouped by the
// registers it reads (a, b) and writes (d). Stores and spills read the
// Rd field.
var opShapes = []struct {
	a, b, d operand
	ops     []host.Op
}{
	{noSrc, noSrc, noDst, []host.Op{host.NOPH, host.CHKPT, host.COMMIT, host.EXIT, host.CHAINED}},
	{noSrc, noSrc, iRd, []host.Op{host.LI, host.UNSPILLI}},
	{noSrc, noSrc, fRd, []host.Op{host.FLI, host.UNSPILLF}},
	{iRa, noSrc, iRd, []host.Op{host.MOVH, host.ADDI, host.ANDI, host.ORI, host.XORI, host.SHLI, host.SHRI,
		host.SARI, host.LD, host.LDB}},
	{iRa, noSrc, noDst, []host.Op{host.EXITIND, host.ASSERTH, host.BEQZ}},
	{iRa, iRb, iRd, []host.Op{host.ADD, host.SUB, host.MUL, host.MULH, host.DIV, host.REM, host.AND, host.OR,
		host.XOR, host.SHL, host.SHR, host.SAR, host.SLT, host.SLTU, host.SEQ, host.SNE}},
	{iRa, iRd, noDst, []host.Op{host.ST, host.STB}},
	{iRd, noSrc, noDst, []host.Op{host.SPILLI}},
	{iRa, noSrc, fRd, []host.Op{host.FLDH, host.FCVTF}},
	{iRa, fRd, noDst, []host.Op{host.FSTH}},
	{fRa, noSrc, fRd, []host.Op{host.FMOVH, host.FSQRTH, host.FABSH, host.FNEGH}},
	{fRa, noSrc, iRd, []host.Op{host.FCVTI}},
	{fRa, fRb, fRd, []host.Op{host.FADDH, host.FSUBH, host.FMULH, host.FDIVH}},
	{fRa, fRb, iRd, []host.Op{host.FSLT, host.FSEQ, host.FUNORD}},
	{fRd, noSrc, noDst, []host.Op{host.SPILLF}},
}

// buildOps expands opShapes and the host ISA's descriptors into the
// table. Undefined opcodes time as NOPH, which is how Op.Desc describes
// them.
func buildOps() (ops [256]opRow) {
	for _, sh := range opShapes {
		for _, op := range sh.ops {
			d := op.Desc()
			row := opRow{lat: uint32(d.Latency), src: [2]operand{sh.a, sh.b}, dst: sh.d, class: d.Class}
			switch d.Class {
			case host.ClassComplex:
				row.pool = poolComplex
			case host.ClassBranch:
				row.flags |= flagBranch
			}
			switch op {
			case host.SPILLI, host.UNSPILLI, host.SPILLF, host.UNSPILLF:
				// TOL-private scratchpad: fixed latency, no cache traffic.
			default:
				if d.IsLoad {
					row.flags |= flagLoad
				}
				if d.IsStore {
					row.flags |= flagStore
				}
			}
			switch op {
			case host.DIV, host.REM, host.FDIVH, host.FSQRTH:
				row.flags |= flagUnpipelined
			case host.BEQZ, host.ASSERTH:
				row.flags |= flagConditional
			}
			ops[op] = row
		}
	}
	for op := range ops {
		if !host.Op(op).Defined() {
			ops[op] = ops[host.NOPH]
		}
	}
	return ops
}

// Consume simulates one retired application instruction.
func (c *Core) Consume(ev hostvm.RetireEvent) {
	in := ev.Inst
	row := &c.ops[in.Op]
	c.Stats.Insns++
	c.Stats.ClassCount[row.class]++

	// ---- Front end: fetch the instruction.
	if line := ev.PC & c.lineMask; line != c.lastLine {
		c.lastLine = line
		pen := uint64(c.TLBs.Translate(ev.PC, true))
		if !c.L1I.Access(ev.PC) {
			if c.L2.Access(ev.PC) {
				pen += c.l2Pen
			} else {
				pen += c.memPen
			}
		}
		c.fetchCycle += pen
		c.Stats.StallMem += pen
	}
	c.fetchCnt++
	if c.fetchCnt >= c.Cfg.FetchWidth {
		c.fetchCnt = 0
		c.fetchCycle++
	}
	ready := c.fetchCycle + c.frontDepth

	// ---- Instruction queue occupancy: the slot we reuse must have
	// issued already; waiting for it back-pressures the front end.
	iqSlot := &c.iq[c.iqPos]
	stall := max(ready, *iqSlot) - ready
	ready += stall
	c.fetchCycle += stall

	// ---- In-order issue: a full issue cycle pushes to the next one.
	t := max(ready, c.lastIssue+uint64(b2u32(c.issueCnt >= c.Cfg.IssueWidth)))
	base := t

	// Operand readiness.
	regs := uint32(in.Rd) | uint32(in.Ra)<<8 | uint32(in.Rb)<<16
	t = max(t, c.ready[row.src[0].slot(regs)], c.ready[row.src[1].slot(regs)])
	c.Stats.StallOperand += t - base
	base = t

	// Execution unit availability.
	pool := c.units[row.pool]
	best := 0
	for i := 1; i < len(pool); i++ {
		if pool[i] < pool[best] {
			best = i
		}
	}
	t = max(t, pool[best])
	c.Stats.StallFU += t - base

	lat := uint64(row.lat)

	// ---- Memory pipeline.
	if row.flags&(flagLoad|flagStore) != 0 {
		if c.portCycle != t {
			c.portCycle = t
			c.rdPortUsed, c.wrPortUsed = 0, 0
		}
		if row.flags&flagLoad != 0 {
			c.rdPortUsed++
			if c.rdPortUsed > c.Cfg.MemReadPorts {
				t++
				c.portCycle = t
				c.rdPortUsed = 1
			}
			c.Stats.Loads++
		} else {
			c.wrPortUsed++
			if c.wrPortUsed > c.Cfg.MemWritePts {
				t++
				c.portCycle = t
				c.wrPortUsed = 1
			}
			c.Stats.Stores++
		}
		pen := uint64(c.TLBs.Translate(ev.Addr, false))
		if !c.L1D.Access(ev.Addr) {
			if c.L2.Access(ev.Addr) {
				pen += c.l2Pen
			} else {
				pen += c.memPen
			}
		}
		if row.flags&flagLoad != 0 {
			c.PF.Observe(ev.PC, ev.Addr, c.L1D, c.L2)
		}
		c.Stats.StallMem += pen
		lat += pen
	}

	// Occupy the unit (divides and sqrt are unpipelined).
	occ := uint64(1)
	if row.flags&flagUnpipelined != 0 {
		occ = lat
	}
	pool[best] = t + occ

	// ---- Branches.
	if row.flags&flagBranch != 0 {
		c.Stats.Branches++
		if c.BP.Predict(ev.PC, ev.Taken, ev.Target, row.flags&flagConditional != 0) {
			c.Stats.Mispredict++
			redirect := t + 1 + uint64(c.Cfg.RedirectPen)
			if redirect > c.fetchCycle {
				c.Stats.StallFront += redirect - c.fetchCycle
				c.fetchCycle = redirect
				c.fetchCnt = 0
			}
		}
	}

	// ---- Writeback.
	c.ready[row.dst.slot(regs)] = t + lat

	// Issue bookkeeping: the count goes on within a cycle and restarts
	// at one in a new one.
	c.issueCnt = c.issueCnt*int(b2u32(t == c.lastIssue)) + 1
	c.lastIssue = t
	*iqSlot = t
	next := c.iqPos + 1
	if next == len(c.iq) {
		next = 0
	}
	c.iqPos = next
	c.Stats.Cycles = max(c.Stats.Cycles, t+lat)
}

// AddTOL charges n TOL host instructions at the configured flat CPI.
// The TOL is software executing on this same core; its instruction
// stream is modelled with an aggregate CPI rather than replayed
// instruction by instruction (DESIGN.md §2).
func (c *Core) AddTOL(n uint64) {
	c.Stats.TOLInsns += n
	c.tolCarry += float64(n) * c.Cfg.TOLCPI
	adv := uint64(c.tolCarry)
	c.tolCarry -= float64(adv)
	c.Stats.TOLCycles += adv
	c.Stats.Cycles += adv
	c.fetchCycle += adv
	c.lastIssue += adv
}

// Validate reports the first parameter, by field name, that the core
// cannot model: an empty instruction queue or unit pool indexes past
// its end, a negative latency wraps around as a cycle count, and a set,
// line, BTB or prefetcher count that is not a power of two would map
// addresses through a mask that drops some of them.
func (cfg *Config) Validate() error {
	type field struct {
		name string
		v    int
	}
	for _, f := range []field{
		{"FetchWidth", cfg.FetchWidth}, {"IssueWidth", cfg.IssueWidth}, {"IQSize", cfg.IQSize},
		{"SimpleUnits", cfg.SimpleUnits}, {"ComplexUnits", cfg.ComplexUnits},
		{"L1I.Ways", cfg.L1I.Ways}, {"L1D.Ways", cfg.L1D.Ways}, {"L2.Ways", cfg.L2.Ways},
		{"ITLB.Ways", cfg.ITLB.Ways}, {"DTLB.Ways", cfg.DTLB.Ways}, {"L2TLB.Ways", cfg.L2TLB.Ways},
	} {
		if f.v < 1 {
			return fmt.Errorf("timing: %s is %d, must be at least 1", f.name, f.v)
		}
	}
	for _, f := range []field{
		{"FrontendDepth", cfg.FrontendDepth}, {"RedirectPen", cfg.RedirectPen},
		{"L1I.Latency", cfg.L1I.Latency}, {"L1D.Latency", cfg.L1D.Latency}, {"L2.Latency", cfg.L2.Latency},
		{"ITLB.Latency", cfg.ITLB.Latency}, {"DTLB.Latency", cfg.DTLB.Latency}, {"L2TLB.Latency", cfg.L2TLB.Latency},
		{"WalkLat", cfg.WalkLat}, {"MemLatency", cfg.MemLatency},
	} {
		if f.v < 0 {
			return fmt.Errorf("timing: %s is %d, must not be negative", f.name, f.v)
		}
	}
	powersOfTwo := []field{
		{"L1I.Sets", cfg.L1I.Sets}, {"L1I.LineBytes", cfg.L1I.LineBytes},
		{"L1D.Sets", cfg.L1D.Sets}, {"L1D.LineBytes", cfg.L1D.LineBytes},
		{"L2.Sets", cfg.L2.Sets}, {"L2.LineBytes", cfg.L2.LineBytes},
		{"ITLB.Entries/Ways", cfg.ITLB.Entries / cfg.ITLB.Ways},
		{"DTLB.Entries/Ways", cfg.DTLB.Entries / cfg.DTLB.Ways},
		{"L2TLB.Entries/Ways", cfg.L2TLB.Entries / cfg.L2TLB.Ways},
		{"BPred.BTBEntries", cfg.BPred.BTBEntries},
	}
	if cfg.PrefetchEntries != 0 { // zero entries turn the prefetcher off
		powersOfTwo = append(powersOfTwo, field{"PrefetchEntries", cfg.PrefetchEntries})
	}
	for _, f := range powersOfTwo {
		if f.v < 1 || f.v&(f.v-1) != 0 {
			return fmt.Errorf("timing: %s is %d, must be a power of two", f.name, f.v)
		}
	}
	// The predictor indexes its table through a uint32 mask.
	if b := cfg.BPred.GShareBits; b < 0 || b > 31 {
		return fmt.Errorf("timing: BPred.GShareBits is %d, must be in 0…31", b)
	}
	return nil
}
