package timing

import (
	"testing"

	"darco/internal/host"
	"darco/internal/hostvm"
)

func BenchmarkCacheAccess(b *testing.B) {
	c := NewCache(CacheConfig{Sets: 128, Ways: 4, LineBytes: 64, Latency: 2})
	for i := 0; i < b.N; i++ {
		c.Access(uint32(i*64) & 0xFFFF)
	}
}

func BenchmarkBPred(b *testing.B) {
	p := NewBPred(BPredConfig{GShareBits: 12, BTBEntries: 1024})
	for i := 0; i < b.N; i++ {
		p.Predict(uint32(i%64)*4, i%3 != 0, 0x1000, true)
	}
}

func BenchmarkCoreConsume(b *testing.B) {
	core := New(DefaultConfig())
	in := &host.Inst{Op: host.ADD, Rd: 16, Ra: 17, Rb: 18}
	ld := &host.Inst{Op: host.LD, Rd: 19, Ra: 1}
	br := &host.Inst{Op: host.BEQZ, Ra: 16, Imm: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		switch i % 4 {
		case 0, 1:
			core.Consume(hostvm.RetireEvent{Inst: in, PC: uint32(0x1000 + 4*(i%64))})
		case 2:
			core.Consume(hostvm.RetireEvent{Inst: ld, PC: uint32(0x1000 + 4*(i%64)), Addr: uint32(i % 8192)})
		case 3:
			core.Consume(hostvm.RetireEvent{Inst: br, PC: uint32(0x1000 + 4*(i%64)), Taken: i%5 != 0, Target: 0x2000})
		}
	}
}
