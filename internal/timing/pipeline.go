// The engine has one timing path: a session's retire hook is
// Core.Consume, synchronously. The decoupled pipeline below was the
// engine's second path (PR 8) and lost every measurement taken of it.
// Its only caller left is the repository benchmark's timingReplay probe
// (benchmark/layers.go, frozen), which reads timing.pipeline_ns_per_event
// through NewPipeline, Start, Push and Stop — so exactly that surface
// stays. This file goes in the benchmark-revision PR that drops
// timing.pipeline_ns_per_event.

package timing

import (
	"darco/internal/host"
	"darco/internal/hostvm"
)

// pipelineBatch is how many retired instructions the pipeline packs
// into one batch before handing it to the drain goroutine.
const pipelineBatch = 1024

// pipeEvent is one retired instruction, value-copied at emit time:
// RetireEvent.Inst is only valid during the call (see hostvm), and the
// drain goroutine reads it later. op/rd/ra/rb are the only Inst fields
// the timing model reads.
type pipeEvent struct {
	pc         uint32
	target     uint32
	addr       uint32
	op         host.Op
	rd, ra, rb uint8
	taken      bool
}

// Pipeline feeds a retire-event sink (the timing Core's Consume) from
// its own goroutine: the producer pushes value-copied events into
// bounded, ordered batches, and a single drain goroutine replays them
// into the sink in exactly the retire order. Depth bounds how many
// batches may be in flight, so a slow sink back-pressures the producer
// instead of buffering without bound.
//
// The Pipeline is single-producer: Push, Start and Stop must all be
// called from one goroutine. The sink runs on the drain goroutine while
// the pipeline is running; Stop establishes the happens-before edge
// that makes reading the sink's state safe afterwards.
type Pipeline struct {
	sink  func(hostvm.RetireEvent)
	depth int

	ch      chan []pipeEvent
	done    chan struct{}
	free    chan []pipeEvent
	cur     []pipeEvent
	running bool
}

// NewPipeline builds a pipeline over sink with the given window depth
// in batches (values < 1 mean 1). The pipeline starts stopped: events
// pushed before Start are forwarded synchronously.
func NewPipeline(sink func(hostvm.RetireEvent), depth int) *Pipeline {
	if depth < 1 {
		depth = 1
	}
	return &Pipeline{
		sink:  sink,
		depth: depth,
		// One buffer per in-flight batch, plus the one being filled
		// and the one being drained.
		free: make(chan []pipeEvent, depth+2),
	}
}

// Start spawns the drain goroutine. Idempotent while running.
func (p *Pipeline) Start() {
	if p.running {
		return
	}
	p.ch = make(chan []pipeEvent, p.depth)
	p.done = make(chan struct{})
	p.running = true
	go p.drain(p.ch, p.done)
}

// drain is the consumer goroutine: it replays batches into the sink in
// arrival order and recycles their buffers.
func (p *Pipeline) drain(ch chan []pipeEvent, done chan struct{}) {
	defer close(done)
	// One scratch Inst reused for every replayed event: the sink must
	// not retain ev.Inst past the call.
	var inst host.Inst
	for events := range ch {
		for i := range events {
			e := &events[i]
			inst = host.Inst{Op: e.op, Rd: e.rd, Ra: e.ra, Rb: e.rb}
			p.sink(hostvm.RetireEvent{
				Inst:   &inst,
				PC:     e.pc,
				Taken:  e.taken,
				Target: e.target,
				Addr:   e.addr,
			})
		}
		select {
		case p.free <- events[:0]:
		default:
		}
	}
}

// Push enqueues one retired instruction, handing over a full batch.
// When the pipeline is stopped it degrades to a synchronous call, so a
// push outside a Start/Stop window can never strand an event in the
// buffer.
func (p *Pipeline) Push(ev hostvm.RetireEvent) {
	if !p.running {
		p.sink(ev)
		return
	}
	if p.cur == nil {
		select {
		case p.cur = <-p.free:
		default:
			p.cur = make([]pipeEvent, 0, pipelineBatch)
		}
	}
	in := ev.Inst
	p.cur = append(p.cur, pipeEvent{
		pc:     ev.PC,
		target: ev.Target,
		addr:   ev.Addr,
		op:     in.Op,
		rd:     in.Rd,
		ra:     in.Ra,
		rb:     in.Rb,
		taken:  ev.Taken,
	})
	if len(p.cur) >= pipelineBatch {
		p.flush()
	}
}

// flush hands the partially filled batch to the drain goroutine,
// blocking while the window is full.
func (p *Pipeline) flush() {
	if len(p.cur) == 0 {
		return
	}
	p.ch <- p.cur
	p.cur = nil
}

// Stop drains the pipeline and terminates the drain goroutine. After
// Stop returns, everything pushed has been consumed and the sink's
// state may be read from the caller's goroutine. Idempotent when
// stopped.
func (p *Pipeline) Stop() {
	if !p.running {
		return
	}
	p.flush()
	close(p.ch)
	<-p.done
	p.running = false
	p.ch = nil
	p.done = nil
}
