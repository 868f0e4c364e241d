package darco

import (
	"darco/internal/host"
	"darco/internal/hostvm"
)

// DefaultRetireBatchSize is how many retired host instructions one
// RetireBatch covers at most when the subscriber does not choose a
// size.
const DefaultRetireBatchSize = 4096

// RetireClass coarsely classifies a retired host instruction by the
// execution resource it occupies, for stream consumers that aggregate
// rather than decode mnemonics.
type RetireClass uint8

// Retired-instruction classes.
const (
	RetireSimple  RetireClass = iota // 1-cycle integer ALU
	RetireComplex                    // multi-cycle integer and FP
	RetireMemory                     // loads and stores (incl. TOL spill slots)
	RetireBranch                     // control flow: branches, exits, chains

	// NumRetireClasses is the number of classes; RetireMix.Class is
	// indexed by RetireClass.
	NumRetireClasses = iota
)

func (c RetireClass) String() string {
	switch c {
	case RetireSimple:
		return "simple"
	case RetireComplex:
		return "complex"
	case RetireMemory:
		return "memory"
	case RetireBranch:
		return "branch"
	}
	return "?"
}

// RetireOp is the host opcode of a retired instruction; String returns
// its mnemonic.
type RetireOp uint8

func (o RetireOp) String() string { return host.Op(o).String() }

// RetireEvent is one retired host instruction of the co-designed
// component's application stream — the same per-instruction feed the
// timing simulator consumes. PC and Target are synthetic host
// addresses (code-cache block id and instruction index packed);
// GuestPC is the guest instruction this host instruction emulates.
// The struct holds no pointers, so a buffered batch costs the garbage
// collector nothing to scan.
type RetireEvent struct {
	Op      RetireOp
	Class   RetireClass
	GuestPC uint32
	PC      uint32
	Target  uint32 // branch target, valid when Taken
	Addr    uint32 // effective address, valid for loads and stores
	Taken   bool
	Load    bool
	Store   bool
}

// retireProto holds, per host opcode, a RetireEvent with the fields the
// opcode alone determines (Op, Class, Load, Store) filled in. push
// copies the prototype and adds the per-instruction fields; takeMix
// reads it to fold the VM's opcode histogram into classes.
var retireProto = func() (t [host.NumOps]RetireEvent) {
	for op := range t {
		d := host.Op(op).Desc()
		t[op] = RetireEvent{
			Op:    RetireOp(op),
			Class: retireClass(d.Class),
			Load:  d.IsLoad,
			Store: d.IsStore,
		}
	}
	return t
}()

// RetireMix aggregates the retired host instructions of one delivery:
// how many, their split by execution resource, and the load, store and
// taken-transfer slices of the same instructions. The session reads it
// from the VM's opcode histogram, so it is exact whether or not the
// delivery carries per-instruction Events.
type RetireMix struct {
	Insns  uint64
	Class  [NumRetireClasses]uint64 // indexed by RetireClass
	Loads  uint64
	Stores uint64
	Taken  uint64
}

// RetireBatch is one delivery on a session's retire stream: either a
// run of retired host instructions (Mix.Insns > 0, Sync nil) or a
// synchronization marker (Sync non-nil, Mix zero) positioned exactly
// where it occurred in retire order. Seq numbers deliveries
// contiguously from 0 per session.
//
// Mix is always filled. Events lists the same instructions one by one,
// but only while some subscriber of the session asked for them with
// WithRetireEvents; otherwise it is nil. The Events slice is reused
// between deliveries: it is valid only for the duration of the
// callback, so a sink that retains events must copy them out.
type RetireBatch struct {
	Seq    uint64
	Mix    RetireMix
	Events []RetireEvent
	Sync   *SyncEvent
}

// RetireSink consumes retire-stream batches. Sinks run synchronously
// on the session's goroutine, in retire order; a slow sink slows the
// session rather than dropping events.
type RetireSink func(RetireBatch)

// RetireOption configures one retire-stream subscription.
type RetireOption func(*retireSub)

// WithRetireBatchSize sets how many retired instructions one delivery
// covers at most (values < 1 mean DefaultRetireBatchSize): the session
// cuts a delivery every n instructions counted from the subscribe
// point, besides the cuts at synchronization events and excursion ends.
// A session with several subscribers cuts wherever any of them asked;
// every subscriber sees the same deliveries.
func WithRetireBatchSize(n int) RetireOption {
	return func(s *retireSub) {
		if n >= 1 {
			s.batchSize = uint64(n)
		}
	}
}

// WithRetireEvents asks for per-instruction Events in every delivery.
// Without it a subscription costs the session an update per taken
// control transfer in most translated blocks, and a counter increment
// per retired instruction only in blocks within reach of a cut, or
// while a Retire consumer such as the timing simulator is attached;
// with it every instruction is also materialised as a RetireEvent,
// about 15 ns each — three times what emulating the instruction costs.
func WithRetireEvents() RetireOption {
	return func(s *retireSub) { s.events = true }
}

// retireSubscription is a sink plus its options, recorded on the
// engine by WithRetireStream and replayed onto every new session.
type retireSubscription struct {
	sink RetireSink
	opts []RetireOption
}

// retireStream owns a session's retire-stream state: the active
// subscribers, the opcode histogram the VM counts into, the shared
// event buffer, and the delivery sequence. The VM's AppInsns is the
// stream's clock: cuts are programmed as AppInsns values. Everything
// runs on the session's goroutine.
type retireStream struct {
	vm    *hostvm.VM
	subs  []*retireSub
	mix   hostvm.RetireMix // vm.Mix while a subscriber is attached
	mark  uint64           // vm.AppInsns at the last delivery (or attach)
	batch []RetireEvent
	seq   uint64
}

type retireSub struct {
	sink      RetireSink
	batchSize uint64
	next      uint64 // vm.AppInsns at this subscriber's next cut
	events    bool
	active    bool
}

// add registers a sink and returns its handle. The first subscriber
// starts the stream from a clean slate at the current instruction.
func (st *retireStream) add(sink RetireSink, opts ...RetireOption) *retireSub {
	sub := &retireSub{sink: sink, batchSize: DefaultRetireBatchSize, active: true}
	for _, opt := range opts {
		opt(sub)
	}
	now := st.vm.AppInsns
	if len(st.subs) == 0 {
		st.mix = hostvm.RetireMix{OnCut: st.flush}
		st.mark = now
		st.batch = st.batch[:0]
	}
	sub.next = now + sub.batchSize
	st.subs = append(st.subs, sub)
	st.program()
	return sub
}

// remove deactivates a sink's subscription. The survivors go into a
// fresh slice — never compacted in place — because remove may run from
// inside a sink while deliver is ranging over the current one.
func (st *retireStream) remove(sub *retireSub) {
	if !sub.active {
		return
	}
	sub.active = false
	live := make([]*retireSub, 0, len(st.subs)-1)
	for _, s := range st.subs {
		if s.active {
			live = append(live, s)
		}
	}
	st.subs = live
	st.program()
}

// program moves every subscriber whose cut has been reached on to its
// next one and points the VM's cut at the nearest.
func (st *retireStream) program() {
	now := st.vm.AppInsns
	cut := ^uint64(0)
	for _, s := range st.subs {
		if s.next <= now {
			s.next += s.batchSize
		}
		if s.next < cut {
			cut = s.next
		}
	}
	st.mix.CutAt = cut
}

func (st *retireStream) hasSubs() bool { return len(st.subs) > 0 }

// wantsEvents reports whether any subscriber asked for per-instruction
// events.
func (st *retireStream) wantsEvents() bool {
	for _, s := range st.subs {
		if s.events {
			return true
		}
	}
	return false
}

// push converts one hostvm retire event to the public form and buffers
// it. It is in the session's VM.Retire feed (tee'd with the timing
// simulator's) only while a subscriber wants events; the VM's cut, not
// the buffer's length, decides when the batch is delivered.
//
// Kept out of line: inlined into its method-value wrapper (the func
// value VM.Retire holds), go1.24 spills the by-value event field by
// field and re-reads it with one 16-byte load, a store-forwarding stall
// worth ~6 ns per event — a quarter of the whole per-event cost.
//
//go:noinline
func (st *retireStream) push(ev hostvm.RetireEvent) {
	pub := retireProto[ev.Inst.Op]
	pub.GuestPC = ev.Inst.GPC
	pub.PC = ev.PC
	pub.Target = ev.Target
	pub.Addr = ev.Addr
	pub.Taken = ev.Taken
	st.batch = append(st.batch, pub)
}

// flush delivers the instructions retired since the last delivery as
// one batch, clears the histogram and the event buffer, and programs
// the next cut. It is the VM's OnCut callback and also runs at every
// excursion end and ahead of every sync marker.
func (st *retireStream) flush() {
	if st.vm.AppInsns == st.mark {
		return
	}
	st.mark = st.vm.AppInsns
	b := RetireBatch{Seq: st.seq, Mix: st.takeMix()}
	if len(st.batch) > 0 {
		b.Events = st.batch
	}
	st.deliver(b)
	st.batch = st.batch[:0]
	st.program()
}

// takeMix folds the VM's opcode histogram into the public aggregate
// and clears it.
func (st *retireStream) takeMix() RetireMix {
	m := RetireMix{Taken: st.mix.Taken}
	for op, n := range st.mix.Ops {
		if n == 0 {
			continue
		}
		p := &retireProto[op]
		m.Insns += n
		m.Class[p.Class] += n
		if p.Load {
			m.Loads += n
		}
		if p.Store {
			m.Stores += n
		}
	}
	st.mix.Ops = [host.NumOps]uint64{}
	st.mix.Taken = 0
	return m
}

// sync flushes pending instructions, then delivers ev as a marker
// batch, preserving retire order.
func (st *retireStream) sync(ev SyncEvent) {
	st.flush()
	st.deliver(RetireBatch{Seq: st.seq, Sync: &ev})
}

// deliver hands one batch to every active subscriber and advances the
// sequence. It iterates a snapshot of the subscriber list: a sink may
// subscribe or unsubscribe during the callback (both swap in fresh
// slices), and the active flag keeps a just-removed subscriber from
// hearing the rest of this batch's fan-out.
func (st *retireStream) deliver(b RetireBatch) {
	subs := st.subs
	for _, s := range subs {
		if s.active {
			s.sink(b)
		}
	}
	st.seq++
}

// retireClass maps the internal execution-resource class to the public
// one explicitly, so a reordered internal enum cannot silently
// mislabel public events.
func retireClass(c host.Class) RetireClass {
	switch c {
	case host.ClassSimple:
		return RetireSimple
	case host.ClassComplex:
		return RetireComplex
	case host.ClassMemory:
		return RetireMemory
	case host.ClassBranch:
		return RetireBranch
	}
	return RetireSimple
}
