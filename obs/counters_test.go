package obs

import (
	"sync"
	"testing"
)

func TestEngineCountersDelta(t *testing.T) {
	c := &EngineCounters{}
	c.DecodeHits.Add(10)
	c.BlockMisses.Add(3)
	before := c.Snapshot()

	c.DecodeHits.Add(5)
	c.CodeFlushes.Add(7)
	d := c.Delta(before)
	if d.DecodeHits != 5 || d.CodeFlushes != 7 || d.BlockMisses != 0 {
		t.Fatalf("Delta = %+v, want DecodeHits=5 CodeFlushes=7 BlockMisses=0", d)
	}
}

func TestEngineCountersConcurrentDelta(t *testing.T) {
	c := &EngineCounters{}
	base := c.Snapshot()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				c.DecodeHits.Add(1)
				c.CodeFlushes.Add(2)
			}
		}()
	}
	wg.Wait()
	d := c.Delta(base)
	if d.DecodeHits != 8000 || d.CodeFlushes != 16000 {
		t.Fatalf("concurrent delta = %+v, want 8000/16000", d)
	}
}
