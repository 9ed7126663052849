package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestWeightChecksum pins the float32 bits of the drafter's and the
// target's weights after the drafter warm-up and three RL steps of a small
// TLT system. A rewrite of a table, softmax or harvest kernel that moves
// any bit moves the hash; the constant was recorded before the AVX2
// kernels existed and holds for the purego build too.
func TestWeightChecksum(t *testing.T) {
	sys, err := New(smallConfig(TLT))
	if err != nil {
		t.Fatal(err)
	}
	sys.WarmUpDrafter(20, 2)
	spotBatches := 0
	for i := 0; i < 3; i++ {
		st, err := sys.Step()
		if err != nil {
			t.Fatal(err)
		}
		spotBatches += st.SpotBatches
	}
	if spotBatches == 0 {
		t.Fatal("no spot training ran, so the hash would not cover it")
	}
	const want = 0x2182e520a3e54049
	if got := weightHash(sys); got != want {
		t.Fatalf("weights hash to %#016x, want %#016x", got, want)
	}
}

// weightHash hashes the float32 bits of the Eagle drafter's weights, when
// the system has one, and then the target's.
func weightHash(sys *System) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	tables := [][]float32{sys.Target.Table().Weights()}
	if sys.Eagle != nil {
		tables = [][]float32{sys.Eagle.Table().Weights(), tables[0]}
	}
	for _, w := range tables {
		for _, x := range w {
			binary.LittleEndian.PutUint32(buf[:], math.Float32bits(x))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
