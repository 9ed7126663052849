package specdec

import (
	"math/rand"
	"testing"
)

// TestStepBatchMatchesStep pins the packing property of the
// multi-sequence round: StepBatch over N sequences with per-sequence RNGs
// must emit, for every sequence, exactly the tokens an independent
// 1-sequence Step emits with the same seed — drafting one sequence never
// disturbs another's verification, and verification draws only from the
// owning sequence's stream. Biases and EOS ids differ per sequence, and
// each sequence is carried through three rounds on the same engines, so
// per-slot scratch is reused across rounds of different shapes.
func TestStepBatchMatchesStep(t *testing.T) {
	lm, e, tk := newSetup(t)
	metaRng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		p := Params{
			DraftDepth:     1 + metaRng.Intn(8),
			TopK:           1 + metaRng.Intn(6),
			TokensToVerify: 1 + metaRng.Intn(32),
		}
		temp := 0.0
		if metaRng.Intn(3) > 0 {
			temp = 0.5 + metaRng.Float64()
		}
		n := 1 + metaRng.Intn(6)
		seqs := make([]Seq, n)
		rngs := make([]*rand.Rand, n)
		seeds := make([]int64, n)
		for i := 0; i < n; i++ {
			var bias map[int]float32
			if metaRng.Intn(2) == 0 {
				bias = map[int]float32{tk.Eos(): float32(metaRng.NormFloat64() * 3)}
			}
			eos := -1
			if metaRng.Intn(2) == 0 {
				eos = tk.Eos()
			}
			seeds[i] = metaRng.Int63()
			rngs[i] = rand.New(rand.NewSource(seeds[i]))
			seqs[i] = Seq{
				Tokens:    testPrompt(tk, metaRng),
				PromptLen: 0,
				Bias:      bias,
				EosID:     eos,
			}
			seqs[i].PromptLen = len(seqs[i].Tokens)
		}

		batched := &Engine{Target: lm, Temp: temp}
		out := make([]Result, n)
		solos := make([]*Engine, n)
		soloToks := make([][]int, n)
		soloRngs := make([]*rand.Rand, n)
		for i := range solos {
			solos[i] = &Engine{Target: lm, Temp: temp, Bias: seqs[i].Bias, EosID: seqs[i].EosID}
			soloToks[i] = append([]int(nil), seqs[i].Tokens...)
			soloRngs[i] = rand.New(rand.NewSource(seeds[i]))
		}

		for round := 0; round < 3; round++ {
			batched.StepBatch(e, seqs, p, rngs, out)
			for i := 0; i < n; i++ {
				want := solos[i].Step(e, soloToks[i], seqs[i].PromptLen, p, soloRngs[i])
				if len(out[i].Tokens) != len(want.Tokens) {
					t.Fatalf("trial %d round %d seq %d/%d (%+v temp=%.2f): batched %v vs solo %v",
						trial, round, i, n, p, temp, out[i].Tokens, want.Tokens)
				}
				for j := range want.Tokens {
					if out[i].Tokens[j] != want.Tokens[j] {
						t.Fatalf("trial %d round %d seq %d: token %d differs: %v vs %v",
							trial, round, i, j, out[i].Tokens, want.Tokens)
					}
				}
				if out[i].AcceptLen != want.AcceptLen || out[i].Eos != want.Eos ||
					out[i].DraftedNodes != want.DraftedNodes || out[i].VerifiedTokens != want.VerifiedTokens {
					t.Fatalf("trial %d round %d seq %d: metadata diverged: %+v vs %+v", trial, round, i, out[i], want)
				}
				// Result.Tokens aliases engine scratch, so append copies.
				seqs[i].Tokens = append(seqs[i].Tokens, out[i].Tokens...)
				soloToks[i] = append(soloToks[i], want.Tokens...)
			}
		}
	}
}

// TestStepBatchSharedRNGMatchesSequentialSteps pins the trainer-side
// contract: StepBatch with one shared RNG in every slot reproduces the
// draw order of sequential per-sequence Step calls exactly (drafting
// consumes no randomness, verification walks sequences in order).
func TestStepBatchSharedRNGMatchesSequentialSteps(t *testing.T) {
	lm, e, tk := newSetup(t)
	metaRng := rand.New(rand.NewSource(73))
	p := Params{DraftDepth: 5, TopK: 4, TokensToVerify: 16}
	for trial := 0; trial < 30; trial++ {
		n := 2 + metaRng.Intn(4)
		seqs := make([]Seq, n)
		for i := range seqs {
			toks := testPrompt(tk, metaRng)
			seqs[i] = Seq{Tokens: toks, PromptLen: len(toks), EosID: tk.Eos()}
		}
		seed := metaRng.Int63()

		shared := rand.New(rand.NewSource(seed))
		rngs := make([]*rand.Rand, n)
		for i := range rngs {
			rngs[i] = shared
		}
		batched := &Engine{Target: lm, Temp: 0.9}
		out := make([]Result, n)
		batched.StepBatch(e, seqs, p, rngs, out)
		got := make([][]int, n)
		for i := range out {
			got[i] = append([]int(nil), out[i].Tokens...)
		}

		ref := rand.New(rand.NewSource(seed))
		solo := &Engine{Target: lm, Temp: 0.9, EosID: tk.Eos()}
		for i := 0; i < n; i++ {
			want := solo.Step(e, seqs[i].Tokens, seqs[i].PromptLen, p, ref)
			if len(got[i]) != len(want.Tokens) {
				t.Fatalf("trial %d seq %d: %v vs %v", trial, i, got[i], want.Tokens)
			}
			for j := range want.Tokens {
				if got[i][j] != want.Tokens[j] {
					t.Fatalf("trial %d seq %d token %d: %v vs %v", trial, i, j, got[i], want.Tokens)
				}
			}
		}
	}
}

// TestVanillaStepBatchMatchesVanillaStep pins the same packing property
// for the non-speculative step.
func TestVanillaStepBatchMatchesVanillaStep(t *testing.T) {
	lm, _, tk := newSetup(t)
	metaRng := rand.New(rand.NewSource(75))
	for trial := 0; trial < 50; trial++ {
		n := 1 + metaRng.Intn(6)
		seqs := make([]Seq, n)
		rngs := make([]*rand.Rand, n)
		seeds := make([]int64, n)
		for i := range seqs {
			toks := testPrompt(tk, metaRng)
			seqs[i] = Seq{Tokens: toks, PromptLen: len(toks), EosID: tk.Eos()}
			seeds[i] = metaRng.Int63()
			rngs[i] = rand.New(rand.NewSource(seeds[i]))
		}
		eng := &Engine{Target: lm, Temp: 0.9}
		outTok := make([]int, n)
		outEos := make([]bool, n)
		eng.VanillaStepBatch(seqs, rngs, outTok, outEos)
		for i := range seqs {
			solo := &Engine{Target: lm, Temp: 0.9, EosID: tk.Eos()}
			tok, eos := solo.VanillaStep(seqs[i].Tokens, seqs[i].PromptLen, rand.New(rand.NewSource(seeds[i])))
			if tok != outTok[i] || eos != outEos[i] {
				t.Fatalf("trial %d seq %d: batched (%d,%v) vs solo (%d,%v)",
					trial, i, outTok[i], outEos[i], tok, eos)
			}
		}
	}
}

// TestStepBatchZeroSteadyStateAllocs pins the allocation-free contract of
// the multi-sequence hot path: once per-slot trees have grown to the
// batch's high-water mark, a steady-state StepBatch round allocates
// nothing.
func TestStepBatchZeroSteadyStateAllocs(t *testing.T) {
	lm, e, tk := newSetup(t)
	rng := rand.New(rand.NewSource(64))
	p := Params{DraftDepth: 6, TopK: 6, TokensToVerify: 24}
	for _, n := range []int{1, 4, 8} {
		eng := &Engine{Target: lm, Temp: 0.9}
		seqs := make([]Seq, n)
		rngs := make([]*rand.Rand, n)
		out := make([]Result, n)
		for i := range seqs {
			toks := testPrompt(tk, rng)
			seqs[i] = Seq{Tokens: toks, PromptLen: len(toks), EosID: -1}
			rngs[i] = rng
		}
		eng.StepBatch(e, seqs, p, rngs, out) // warm-up: grow scratch
		allocs := testing.AllocsPerRun(200, func() {
			eng.StepBatch(e, seqs, p, rngs, out)
		})
		if allocs != 0 {
			t.Errorf("batch=%d: steady-state StepBatch allocates %.1f objects/round, want 0", n, allocs)
		}
	}
}
