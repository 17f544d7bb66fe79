// Package decomp implements the paper's decomposition-candidate machinery
// (§III-A, Algorithm 1): pattern classification into SP/VP/NP, minimum
// spanning trees over the separated patterns, n-wise covering arrays over
// the remaining degrees of freedom, dual-mask canonicalization, and the
// grayscale rendering fed to the printability predictor.
package decomp

import (
	"fmt"
	"strings"

	"ldmo/internal/geom"
	"ldmo/internal/grid"
	"ldmo/internal/layout"
	"ldmo/internal/mst"
	"ldmo/internal/nwise"
	"ldmo/internal/simclock"
)

// Decomposition is one assignment of a layout's patterns onto two masks.
type Decomposition struct {
	Layout layout.Layout
	Assign []uint8 // per pattern: 0 -> mask 1, 1 -> mask 2
}

// New returns a decomposition with a defensive copy of assign.
func New(l layout.Layout, assign []uint8) Decomposition {
	if len(assign) != len(l.Patterns) {
		panic(fmt.Sprintf("decomp: %d assignments for %d patterns", len(assign), len(l.Patterns)))
	}
	return Decomposition{Layout: l, Assign: append([]uint8(nil), assign...)}
}

// Canonicalize resolves the dual-mask ambiguity the paper describes in
// Fig. 4(c): the masks are unordered, so a decomposition and its complement
// are the same physical solution. Pattern 0 ("pattern numbered 1") is pinned
// to mask 1; when it is not, every bit is flipped. The receiver is modified
// and returned.
func (d Decomposition) Canonicalize() Decomposition {
	if len(d.Assign) > 0 && d.Assign[0] == 1 {
		for i := range d.Assign {
			d.Assign[i] ^= 1
		}
	}
	return d
}

// Key returns a canonical string identity for dedup and for the flow's
// "already tried" marking. Two dual decompositions share a key.
func (d Decomposition) Key() string {
	var b strings.Builder
	flip := uint8(0)
	if len(d.Assign) > 0 && d.Assign[0] == 1 {
		flip = 1
	}
	for _, a := range d.Assign {
		b.WriteByte('0' + (a ^ flip))
	}
	return b.String()
}

// String implements fmt.Stringer.
func (d Decomposition) String() string {
	return fmt.Sprintf("%s[%s]", d.Layout.Name, d.Key())
}

// Masks rasterizes the two mask target images at res nm/pixel over the
// layout window.
func (d Decomposition) Masks(res int) (m1, m2 *grid.Grid) {
	w := d.Layout.Window.W() / res
	h := d.Layout.Window.H() / res
	org := geom.Point{X: d.Layout.Window.X0, Y: d.Layout.Window.Y0}
	m1 = grid.New(w, h, res, org)
	m2 = grid.New(w, h, res, org)
	for i, r := range d.Layout.Patterns {
		if d.Assign[i] == 0 {
			m1.FillRect(r, 1)
		} else {
			m2.FillRect(r, 1)
		}
	}
	return m1, m2
}

// Grayscale levels of the predictor input image (paper §III-A: "a gray-scale
// image with different grayscale levels to represent patterns distributed on
// different masks").
const (
	GrayMask1 = 0.5
	GrayMask2 = 1.0
)

// GrayImage renders the decomposition as the single-channel image the CNN
// consumes: background 0, mask-1 patterns 0.5, mask-2 patterns 1.0, resampled
// to size x size pixels. Rendering happens on the canonicalized assignment so
// dual decompositions produce identical images.
func (d Decomposition) GrayImage(res, size int) *grid.Grid {
	flip := uint8(0)
	if len(d.Assign) > 0 && d.Assign[0] == 1 {
		flip = 1
	}
	w := d.Layout.Window.W() / res
	h := d.Layout.Window.H() / res
	org := geom.Point{X: d.Layout.Window.X0, Y: d.Layout.Window.Y0}
	g := grid.New(w, h, res, org)
	for i, r := range d.Layout.Patterns {
		level := GrayMask1
		if d.Assign[i]^flip == 1 {
			level = GrayMask2
		}
		g.FillRect(r, level)
	}
	if g.W == size && g.H == size {
		return g
	}
	return g.Resample(size, size)
}

// Valid reports whether no SP pair (spacing <= nmin) shares a mask.
func (d Decomposition) Valid(nmin float64) bool {
	adj := layout.ConflictGraph(d.Layout.Patterns, nmin)
	for u, nbrs := range adj {
		for _, v := range nbrs {
			if d.Assign[u] == d.Assign[v] {
				return false
			}
		}
	}
	return true
}

// EnumerateAll returns every canonical decomposition of the layout:
// 2^(n-1) candidates. It is the brute-force reference for tests and for the
// tiny layouts where exhaustive search is affordable.
func EnumerateAll(l layout.Layout) []Decomposition {
	n := len(l.Patterns)
	if n == 0 {
		return nil
	}
	out := make([]Decomposition, 0, 1<<(n-1))
	assign := make([]uint8, n)
	// Pattern 0 pinned to mask 1 (canonical form).
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			out = append(out, New(l, assign))
			return
		}
		assign[i] = 0
		rec(i + 1)
		assign[i] = 1
		rec(i + 1)
	}
	rec(1)
	return out
}

// Generator produces decomposition candidates per Algorithm 1.
type Generator struct {
	Classify layout.ClassifyParams
	// Strength of the covering array over MST-component and VP factors
	// (paper: 3) and over NP factors (paper: 2).
	StrengthSPVP int
	StrengthNP   int
	Seed         int64
	Clock        *simclock.Clock // optional cost accounting
}

// NewGenerator returns a generator with the paper's settings.
func NewGenerator() Generator {
	return Generator{
		Classify:     layout.DefaultClassifyParams(),
		StrengthSPVP: 3,
		StrengthNP:   2,
		Seed:         1,
	}
}

// Generate implements Algorithm 1: classify patterns, solve the MST of the
// SP graph, build the three-wise array over (component flips + VP patterns)
// and the two-wise array over NP patterns, combine, canonicalize and dedup.
// Every returned candidate separates all SP pairs; the list is never empty
// for a decomposable layout.
func (g Generator) Generate(l layout.Layout) ([]Decomposition, error) {
	n := len(l.Patterns)
	if n == 0 {
		return nil, fmt.Errorf("decomp: layout %q has no patterns", l.Name)
	}
	classes := layout.Classify(l.Patterns, g.Classify)

	// Index sets per class.
	var spIdx, vpIdx, npIdx []int
	for i, c := range classes {
		switch c {
		case layout.ClassSP:
			spIdx = append(spIdx, i)
		case layout.ClassVP:
			vpIdx = append(vpIdx, i)
		default:
			npIdx = append(npIdx, i)
		}
	}

	// MST over the SP subgraph: vertices are SP patterns, edges join pairs
	// within nmin, weighted by spacing so the tightest (most conflicting)
	// pairs anchor the trees.
	spPos := make(map[int]int, len(spIdx)) // pattern index -> SP-local index
	for li, pi := range spIdx {
		spPos[pi] = li
	}
	var edges []mst.Edge
	for a := 0; a < len(spIdx); a++ {
		for b := a + 1; b < len(spIdx); b++ {
			d := l.Patterns[spIdx[a]].Dist(l.Patterns[spIdx[b]])
			if d <= g.Classify.NMin {
				edges = append(edges, mst.Edge{U: a, V: b, W: d})
			}
		}
	}
	forest := mst.Kruskal(len(spIdx), edges)
	baseColor := forest.TwoColor()
	g.charge(1 + len(edges))

	// Factors for the strength-3 array: one flip bit per SP component,
	// then one bit per VP pattern (paper Fig. 4(a)).
	nComp := forest.NumComp
	f1 := nComp + len(vpIdx)
	arr1, err := nwise.Generate(f1, g.StrengthSPVP, g.Seed)
	if err != nil {
		return nil, err
	}
	arr2, err := nwise.Generate(len(npIdx), g.StrengthNP, g.Seed+1)
	if err != nil {
		return nil, err
	}
	g.charge(len(arr1.Rows) + len(arr2.Rows))

	// Combine: every row pair defines a full assignment.
	seen := make(map[string]struct{})
	var out []Decomposition
	assign := make([]uint8, n)
	for _, r1 := range arr1.Rows {
		for _, r2 := range arr2.Rows {
			for li, pi := range spIdx {
				flip := r1[forest.Components[li]]
				assign[pi] = uint8(baseColor[li]) ^ flip
			}
			for vi, pi := range vpIdx {
				assign[pi] = r1[nComp+vi]
			}
			for ni, pi := range npIdx {
				assign[pi] = r2[ni]
			}
			d := New(l, assign).Canonicalize()
			key := d.Key()
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			out = append(out, d)
		}
	}
	return out, nil
}

func (g Generator) charge(n int) {
	if g.Clock != nil {
		g.Clock.Charge(simclock.CostGraphOp, n)
	}
}
