package tol

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"darco/internal/codecache"
	"darco/internal/guestvm"
	"darco/internal/host"
)

// BlockDigest hashes everything a translation hands the code cache:
// entry, kind, shape, every field of every host instruction, the exit
// metadata in exit order, and the guest blocks covered. The goldens
// also hash the guest byte range the blocks cover, which the block
// recorded itself when code could be rewritten; it is rebuilt here by
// decoding each block from mem, the memory it was translated from. A
// 0 stands where the digest hashed the unroll factor when the TOL
// unrolled single-block loops, so only the translations it unrolled
// moved when it stopped.
func BlockDigest(t testing.TB, blk *codecache.Block, mem *guestvm.Memory) string {
	t.Helper()
	var dec guestvm.DecodeCache
	lo, hi := blk.Entry, blk.Entry
	for _, pc := range blk.BBs {
		b, _, err := dec.Decode(mem, nil, pc)
		if err != nil {
			t.Fatalf("block %#x of the translation at %#x: %v", pc, blk.Entry, err)
		}
		lo, hi = min(lo, b.PC), max(hi, b.End)
	}
	var b bytes.Buffer
	put := func(vs ...uint64) {
		for _, v := range vs {
			binary.Write(&b, binary.LittleEndian, v)
		}
	}
	b2u := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	put(uint64(blk.Entry), uint64(blk.Kind), b2u(blk.UseAsserts), 0,
		uint64(blk.GuestInsns), uint64(lo), uint64(hi), uint64(len(blk.Code)))
	for i := range blk.Code {
		in := &blk.Code[i]
		// The goldens hash each instruction as the tuple it was when an
		// FLI immediate had a float64 field of its own and a chained exit
		// a link id: an FLI's Imm and Target were 0, and the link is 0
		// because a block is hashed before anything chains it.
		imm, f64, target := uint64(uint32(in.Imm)), uint64(0), uint64(in.Target)
		if in.Op == host.FLI {
			imm, f64, target = 0, math.Float64bits(in.F64()), 0
		}
		put(uint64(in.Op), uint64(in.Rd), uint64(in.Ra), uint64(in.Rb), imm,
			f64, b2u(in.Spec), target, 0, uint64(in.GPC))
	}
	for _, e := range blk.Exits { // ascending Idx
		put(uint64(e.Idx), uint64(e.Info.GuestInsns), uint64(e.Info.GuestBBs), b2u(e.Info.Taken))
	}
	for _, pc := range blk.BBs {
		put(uint64(pc))
	}
	sum := sha256.Sum256(b.Bytes())
	return fmt.Sprintf("%x", sum[:8])
}
