package dlrm

import (
	"math"
	"testing"

	"liveupdate/internal/emt"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

// TestBackwardFrozenMatchesBackward: across profiles and seeds, the frozen
// backward returns embedding gradients bit-identical to Backward's, while
// leaving every layer's gradient accumulators exactly as it found them.
func TestBackwardFrozenMatchesBackward(t *testing.T) {
	const sentinel = 0.25
	for _, name := range []string{"avazu", "criteo", "bd-tb"} {
		p := trace.Profiles()[name]
		p.TableSize = 200
		for seed := uint64(1); seed <= 3; seed++ {
			rng := tensor.NewRNG(seed)
			acc := MustNewModel(ConfigForProfile(p), rng)
			frozen := acc.Clone()
			src := &BaseEmbeddings{Group: emt.NewGroup(p.NumTables, p.TableSize, p.EmbeddingDim, rng)}
			for _, m := range []*MLP{frozen.Bottom, frozen.Top} {
				for _, l := range m.Layers {
					fillFloats(l.gradW.Data, sentinel)
					fillFloats(l.gradB, sentinel)
				}
			}
			gen := trace.MustNewGenerator(p, seed+100)
			var ca, cf ForwardCache
			for i := 0; i < 40; i++ {
				s := gen.Next()
				la := acc.Forward(src, s.Dense, s.Sparse, &ca)
				lf := frozen.Forward(src, s.Dense, s.Sparse, &cf)
				if math.Float64bits(la) != math.Float64bits(lf) {
					t.Fatalf("%s seed %d sample %d: logits %v vs %v", name, seed, i, la, lf)
				}
				dLogit := Sigmoid(la) - float64(s.Label)
				ga := acc.Backward(dLogit, &ca)
				gf := frozen.BackwardFrozen(dLogit, &cf)
				if len(ga) != len(gf) {
					t.Fatalf("%s seed %d: %d vs %d gradient rows", name, seed, len(ga), len(gf))
				}
				for tb := range ga {
					for j := range ga[tb] {
						if math.Float64bits(ga[tb][j]) != math.Float64bits(gf[tb][j]) {
							t.Fatalf("%s seed %d sample %d table %d coord %d: Backward %v, BackwardFrozen %v",
								name, seed, i, tb, j, ga[tb][j], gf[tb][j])
						}
					}
				}
			}
			accumulated := false
			for _, m := range []*MLP{acc.Bottom, acc.Top} {
				for _, l := range m.Layers {
					for _, g := range l.gradW.Data {
						accumulated = accumulated || g != 0
					}
				}
			}
			if !accumulated {
				t.Fatalf("%s seed %d: Backward accumulated no dense gradient; comparison is vacuous", name, seed)
			}
			for mi, m := range []*MLP{frozen.Bottom, frozen.Top} {
				for li, l := range m.Layers {
					for _, g := range append(append([]float64(nil), l.gradW.Data...), l.gradB...) {
						if g != sentinel {
							t.Fatalf("%s seed %d: BackwardFrozen touched MLP %d layer %d gradients (%v)", name, seed, mi, li, g)
						}
					}
				}
			}
		}
	}
}

func fillFloats(dst []float64, v float64) {
	for i := range dst {
		dst[i] = v
	}
}
