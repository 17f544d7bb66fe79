package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"ldmo/internal/layout"
	"ldmo/internal/model"
)

// expProbe is an argument on which math.Exp's FMA branch rounds differently
// from its SSE branch and from the pure-Go exp; expProbeFMA is the FMA
// branch's result.
var expProbe = math.Float64frombits(0x402c6ef372fe9500)

const expProbeFMA = 0x4136ca61dd7abfa9

// flowEngineKey names the arithmetic the flow runs on in this process: the
// architecture, and which branch of math.Exp the litho sigmoids follow.
// GODEBUG=cpu.fma=off moves an FMA host onto the "exp" branch.
func flowEngineKey() string {
	if math.Float64bits(math.Exp(expProbe)) == expProbeFMA {
		return runtime.GOARCH + "/exp-fma"
	}
	return runtime.GOARCH + "/exp"
}

// flowMaskGolden holds, per engine and raster (nm), the SHA-256 of every
// library cell's flow outcome: chosen decomposition, candidate and attempt
// counts, the forced flag, and the bits of both masks, the printed image,
// the final L2 and the model seconds.
var flowMaskGolden = map[string]map[int]string{
	"amd64/exp-fma": {
		8: "04662ff366a9eb2fcd691cf457da849f1e98a4d8d68f2d76d8b5b4b0481c6158",
		4: "c7d231ce01af169ece06e43e9d08a6d790e91c5a4dae8e54f2bcb107daedcd23",
	},
	"amd64/exp": {
		8: "7b350f614312d27b40caa6eaadef76840defbd610dbe2c564ead25d8357e09b0",
		4: "79de4909eadcf2a9dac307689b11b686feb26ad372d240ac8adfbf573dd1d75c",
	},
	"386/exp": {
		8: "e5f1d1e79d15cb7cf9bca65a981922f5790246982c926052180bccb963612e36",
		4: "8961d8b23e4cae4f0088fc3575f867dfe2c9e36d86e022e89d9966a8f138f6b1",
	},
}

// writeBits feeds the bit patterns of xs to h.
func writeBits(h hash.Hash, xs ...float64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

// TestFlowMaskBitsGolden pins the cold flow's exact output over all 13
// library cells at the fast 8 nm raster and the paper's 4 nm raster, with
// the tiny predictor choosing the candidate order. Any change to the
// arithmetic of decomposition, prediction, ILT, litho or FFT — or to which
// candidate the violation check settles on, forced reruns included — moves a
// digest. Engines whose bits legitimately differ are keyed separately.
func TestFlowMaskBitsGolden(t *testing.T) {
	key := flowEngineKey()
	want, ok := flowMaskGolden[key]
	if !ok {
		t.Skipf("no flow digests recorded for engine %q", key)
	}
	pred, err := model.New(model.TinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []int{8, 4} {
		cfg := DefaultConfig()
		cfg.ILT.Litho.Resolution = res
		f := NewFlow(pred, cfg)
		h := sha256.New()
		forced := 0
		for _, c := range layout.Cells() {
			r, err := f.RunContext(context.Background(), c)
			if err != nil {
				t.Fatalf("%s at %d nm: %v", c.Name, res, err)
			}
			if r.Forced {
				forced++
			}
			fmt.Fprintf(h, "%s %s %d %d %v\n", c.Name, r.Chosen.Key(), r.Candidates, r.Attempts, r.Forced)
			writeBits(h, r.ILT.M1.Data...)
			writeBits(h, r.ILT.M2.Data...)
			writeBits(h, r.ILT.Printed.Data...)
			writeBits(h, r.ILT.L2, r.Seconds)
		}
		got := hex.EncodeToString(h.Sum(nil))
		t.Logf("%s, %d nm: %s (%d of %d cells forced)", key, res, got, forced, len(layout.Cells()))
		if got != want[res] {
			t.Errorf("%s, %d nm: flow digest %s, want %s", key, res, got, want[res])
		}
	}
}
