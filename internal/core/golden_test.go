package core

import (
	"reflect"
	"testing"

	"ldmo/internal/decomp"
	"ldmo/internal/ilt"
	"ldmo/internal/layout"
)

// TestEngineGoldenOracleRanking is the flow-level golden guard: scoring
// every decomposition candidate by full ILT (what OracleSelect does) yields
// exactly the ranking — and therefore the selected decomposition — and the
// EPE/print-violation counts that the full-complex reference engine
// produced, recorded below when that engine was retired to a test oracle
// (internal/fft). Field-level tolerance lives in litho/ilt; here the
// contract is exact equality of the discrete outcome.
func TestEngineGoldenOracleRanking(t *testing.T) {
	type verdicts struct {
		order   []string
		bestKey string
		epe     []int
		viol    []int
	}
	golden := map[string]verdicts{
		"INV_X1": {[]string{"011", "010"}, "011", []int{1, 0}, []int{0, 0}},
		"AOI211_X1": {[]string{"01001010", "01011101", "01000101", "01010010"}, "01001010",
			[]int{7, 2, 4, 4}, []int{1, 0, 0, 0}},
	}
	for _, cellName := range []string{"INV_X1", "AOI211_X1"} {
		cell, err := layout.Cell(cellName)
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig()
		w := struct{ alpha, beta, gamma float64 }{1, 3500, 8000}

		gen := decomp.NewGenerator()
		gen.Classify = cfg.Classify
		gen.Seed = cfg.Seed
		cands, err := gen.Generate(cell)
		if err != nil {
			t.Fatal(err)
		}
		iltCfg := cfg.ILT
		iltCfg.AbortOnViolation = false
		opt, err := ilt.NewOptimizer(cell, iltCfg)
		if err != nil {
			t.Fatal(err)
		}
		got := verdicts{}
		scores := make([]float64, len(cands))
		for i, d := range cands {
			r := opt.Run(d)
			scores[i] = r.Score(w.alpha, w.beta, w.gamma)
			got.epe = append(got.epe, r.EPE.Violations)
			got.viol = append(got.viol, r.Violations.Total())
		}
		order := make([]int, len(cands))
		for i := range order {
			order[i] = i
		}
		// Stable selection sort by score, ties broken by generation order —
		// the same argmin rule OracleSelect applies.
		for i := 0; i < len(order); i++ {
			best := i
			for j := i + 1; j < len(order); j++ {
				if scores[order[j]] < scores[order[best]] {
					best = j
				}
			}
			order[i], order[best] = order[best], order[i]
		}
		for _, oi := range order {
			got.order = append(got.order, cands[oi].Key())
		}
		d, _, err := OracleSelect(cell, cfg, w.alpha, w.beta, w.gamma)
		if err != nil {
			t.Fatal(err)
		}
		got.bestKey = d.Key()
		if want := golden[cellName]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: ranking %q, pick %q, EPE %v, violations %v; reference %q, %q, %v, %v",
				cellName, got.order, got.bestKey, got.epe, got.viol, want.order, want.bestKey, want.epe, want.viol)
		}
	}
}
