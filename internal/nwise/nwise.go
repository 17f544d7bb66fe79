// Package nwise generates binary covering arrays of strength n, replacing
// the PICT tool [18] the paper uses for its n-wise decomposition sampling.
//
// A strength-t covering array over k binary factors is a set of rows such
// that, for every choice of t columns, every one of the 2^t value
// combinations appears in some row. The paper uses pairwise (t=2) arrays for
// normal patterns and 3-wise arrays for MST components plus violated
// patterns, which keeps the candidate count near-logarithmic in the pattern
// count while exhausting all local combinations.
//
// The construction is the classic AETG-style randomized greedy: each new row
// is seeded with an uncovered tuple, completed column-by-column to maximize
// newly covered tuples, and the best of several candidates is kept. The
// generator is deterministic in its seed.
package nwise

import (
	"fmt"
	"math/rand"
)

// Array is a binary covering array.
type Array struct {
	Factors  int
	Strength int
	Rows     [][]uint8
}

// q is the alphabet size: two masks, so every factor is binary.
const q = 2

// candidates per row; more candidates give slightly smaller arrays at
// linearly higher construction cost.
const numCandidates = 30

// Generate builds a strength-`strength` covering array over `factors` binary
// factors, deterministically in seed. When factors <= strength the array is
// the full Cartesian product. factors may be 0 (a single empty row).
func Generate(factors, strength int, seed int64) (Array, error) {
	if factors < 0 {
		return Array{}, fmt.Errorf("nwise: negative factor count %d", factors)
	}
	if strength < 1 {
		return Array{}, fmt.Errorf("nwise: strength must be >= 1, got %d", strength)
	}
	a := Array{Factors: factors, Strength: strength}
	if factors == 0 {
		a.Rows = [][]uint8{{}}
		return a, nil
	}
	if factors <= strength {
		// Full Cartesian product.
		total := 1
		for i := 0; i < factors; i++ {
			total *= q
		}
		for v := 0; v < total; v++ {
			row := make([]uint8, factors)
			x := v
			for c := 0; c < factors; c++ {
				row[c] = uint8(x % q)
				x /= q
			}
			a.Rows = append(a.Rows, row)
		}
		return a, nil
	}

	cov := newCoverage(factors, strength)
	rng := rand.New(rand.NewSource(seed))
	for cov.remaining > 0 {
		var best []uint8
		bestGain := -1
		for c := 0; c < numCandidates; c++ {
			row := cov.buildCandidate(rng)
			if gain := cov.gain(row); gain > bestGain {
				bestGain = gain
				best = row
			}
		}
		cov.mark(best)
		a.Rows = append(a.Rows, best)
	}
	return a, nil
}

// coverage tracks which (column-combination, value-combination) tuples are
// still uncovered.
type coverage struct {
	factors   int
	strength  int
	combos    [][]int  // all C(factors, strength) column index sets
	covered   [][]bool // per combo, per value pattern (q^strength)
	remaining int
}

func newCoverage(factors, strength int) *coverage {
	cov := &coverage{factors: factors, strength: strength}
	cols := make([]int, strength)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == strength {
			cov.combos = append(cov.combos, append([]int(nil), cols...))
			return
		}
		for c := start; c < factors; c++ {
			cols[depth] = c
			rec(c+1, depth+1)
		}
	}
	rec(0, 0)
	nv := 1
	for i := 0; i < strength; i++ {
		nv *= q
	}
	cov.covered = make([][]bool, len(cov.combos))
	for i := range cov.covered {
		cov.covered[i] = make([]bool, nv)
	}
	cov.remaining = len(cov.combos) * nv
	return cov
}

// valueIndex packs the row's values at the combo's columns into a base-q
// index.
func (cov *coverage) valueIndex(row []uint8, combo []int) int {
	v := 0
	for i := len(combo) - 1; i >= 0; i-- {
		v = v*q + int(row[combo[i]])
	}
	return v
}

// buildCandidate seeds a row with a random uncovered tuple and fills the
// remaining columns greedily in random order.
func (cov *coverage) buildCandidate(rng *rand.Rand) []uint8 {
	const unset = uint8(255)
	row := make([]uint8, cov.factors)
	for i := range row {
		row[i] = unset
	}
	// Seed: a random uncovered tuple (scan from a random start).
	start := rng.Intn(len(cov.combos))
	for off := 0; off < len(cov.combos); off++ {
		ci := (start + off) % len(cov.combos)
		vals := cov.covered[ci]
		vstart := rng.Intn(len(vals))
		found := false
		for voff := 0; voff < len(vals); voff++ {
			vi := (vstart + voff) % len(vals)
			if !vals[vi] {
				x := vi
				for _, col := range cov.combos[ci] {
					row[col] = uint8(x % q)
					x /= q
				}
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	// Fill remaining columns in random order, choosing the value that
	// covers more currently uncovered tuples (ties broken randomly).
	order := rng.Perm(cov.factors)
	for _, col := range order {
		if row[col] != unset {
			continue
		}
		bestV := uint8(rng.Intn(q))
		bestG := -1
		voff := rng.Intn(q)
		for k := 0; k < q; k++ {
			v := uint8((k + voff) % q)
			if g := cov.partialGain(row, col, v); g > bestG {
				bestG = g
				bestV = v
			}
		}
		row[col] = bestV
	}
	return row
}

// partialGain counts uncovered tuples that become fully determined and
// covered by assigning row[col] = v, given the currently assigned columns.
func (cov *coverage) partialGain(row []uint8, col int, v uint8) int {
	const unset = uint8(255)
	row[col] = v
	gain := 0
	for ci, combo := range cov.combos {
		uses := false
		complete := true
		for _, c := range combo {
			if c == col {
				uses = true
			}
			if row[c] == unset {
				complete = false
				break
			}
		}
		if uses && complete && !cov.covered[ci][cov.valueIndex(row, combo)] {
			gain++
		}
	}
	row[col] = unset
	return gain
}

// gain counts uncovered tuples a complete row would cover.
func (cov *coverage) gain(row []uint8) int {
	g := 0
	for ci, combo := range cov.combos {
		if !cov.covered[ci][cov.valueIndex(row, combo)] {
			g++
		}
	}
	return g
}

// mark records a row's tuples as covered.
func (cov *coverage) mark(row []uint8) {
	for ci, combo := range cov.combos {
		vi := cov.valueIndex(row, combo)
		if !cov.covered[ci][vi] {
			cov.covered[ci][vi] = true
			cov.remaining--
		}
	}
}

// Covers verifies the covering property of a by exhaustive check.
func (a Array) Covers() bool {
	if a.Factors == 0 {
		return len(a.Rows) > 0
	}
	t := a.Strength
	if t > a.Factors {
		t = a.Factors
	}
	cov := newCoverage(a.Factors, t)
	for _, row := range a.Rows {
		if len(row) != a.Factors {
			return false
		}
		for _, v := range row {
			if int(v) >= q {
				return false
			}
		}
		cov.mark(row)
	}
	return cov.remaining == 0
}
