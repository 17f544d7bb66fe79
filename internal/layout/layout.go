// Package layout defines the target-layout substrate: contact-layer layouts,
// the paper's SP/VP/NP pattern classification (Eq. 6), a design-rule checker,
// a synthetic NanGate-like standard-cell library, and a random layout
// generator standing in for the paper's 8000-design contact dataset.
//
// The paper evaluates on contact layouts resembling the NanGate FreePDK45
// library, verified with Mentor Calibre. Neither is redistributable, so the
// cells here are synthetic: 70nm contacts placed on a 130nm pitch inside a
// 512nm tile, which reproduces the spacing statistics the paper's
// classification bands (nmin=80, nmax=98) were chosen for. See DESIGN.md.
package layout

import (
	"fmt"
	"math"

	"ldmo/internal/geom"
	"ldmo/internal/grid"
)

// MaxPatterns bounds the pattern count of a layout accepted from an
// untrusted source. Decomposition generation grows steeply with the number of
// interacting patterns and is not checked against a context: on a dense grid
// of contacts at 150 nm pitch, where every pattern is violation-prone, it
// takes about 1 s for 28 contacts and 2 s for 32 (2-CPU x86-64 host), and
// tens of seconds beyond 60. The bound keeps the worst case near a second;
// library cells and generated layouts have at most 9 contacts.
const MaxPatterns = 28

// Layout is a named set of target patterns inside a simulation window.
type Layout struct {
	Name     string
	Window   geom.Rect   // simulation window, nanometers
	Patterns []geom.Rect // target patterns (contacts), nanometers
}

// Class is the paper's pattern classification (Eq. 6).
type Class int

const (
	// ClassSP marks separated patterns: nearest-neighbor distance
	// d <= nmin. Same-mask placement always causes a print violation.
	ClassSP Class = iota
	// ClassVP marks violated patterns: nmin < d <= nmax. Same-mask
	// placement degrades printability without hard failure.
	ClassVP
	// ClassNP marks normal patterns: d > nmax. Interaction is negligible.
	ClassNP
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassSP:
		return "SP"
	case ClassVP:
		return "VP"
	case ClassNP:
		return "NP"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// ClassifyParams holds the interaction bands of Eq. 6 in nanometers.
type ClassifyParams struct {
	NMin float64 // print-violation radius (paper: 80)
	NMax float64 // optical-interaction radius (paper: 98)
}

// DefaultClassifyParams returns the paper's nmin=80, nmax=98.
func DefaultClassifyParams() ClassifyParams { return ClassifyParams{NMin: 80, NMax: 98} }

// Classify assigns each pattern its Eq. 6 class from the distance to its
// nearest neighbor. A single isolated pattern is NP.
func Classify(patterns []geom.Rect, p ClassifyParams) []Class {
	out := make([]Class, len(patterns))
	for i := range patterns {
		d := math.Inf(1)
		for j := range patterns {
			if i == j {
				continue
			}
			if dd := patterns[i].Dist(patterns[j]); dd < d {
				d = dd
			}
		}
		switch {
		case d <= p.NMin:
			out[i] = ClassSP
		case d <= p.NMax:
			out[i] = ClassVP
		default:
			out[i] = ClassNP
		}
	}
	return out
}

// ConflictGraph returns the adjacency lists of the SP conflict graph: an
// edge joins two patterns whose spacing is at most nmin, i.e. the pairs a
// legal double-patterning decomposition must separate.
func ConflictGraph(patterns []geom.Rect, nmin float64) [][]int {
	adj := make([][]int, len(patterns))
	for i := 0; i < len(patterns); i++ {
		for j := i + 1; j < len(patterns); j++ {
			if patterns[i].Dist(patterns[j]) <= nmin {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	return adj
}

// IsBipartite reports whether the conflict graph admits a 2-coloring, i.e.
// whether the layout is decomposable onto two masks without a same-mask SP
// pair. The second return is a witness coloring when one exists.
func IsBipartite(adj [][]int) (bool, []int) {
	color := make([]int, len(adj))
	for i := range color {
		color[i] = -1
	}
	var queue []int
	for s := range adj {
		if color[s] != -1 {
			continue
		}
		color[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if color[v] == -1 {
					color[v] = 1 - color[u]
					queue = append(queue, v)
				} else if color[v] == color[u] {
					return false, nil
				}
			}
		}
	}
	return true, color
}

// Rasterize draws the layout's patterns as a binary target image at the
// given resolution (nm/pixel). The grid covers exactly the layout window.
func (l Layout) Rasterize(res int) *grid.Grid {
	w := l.Window.W() / res
	h := l.Window.H() / res
	g := grid.New(w, h, res, geom.Point{X: l.Window.X0, Y: l.Window.Y0})
	for _, r := range l.Patterns {
		g.FillRect(r, 1)
	}
	return g
}

// Clone returns a deep copy of l.
func (l Layout) Clone() Layout {
	out := l
	out.Patterns = append([]geom.Rect(nil), l.Patterns...)
	return out
}

// DRCParams are the design rules the generator and checker enforce.
type DRCParams struct {
	MinWidth   int // minimum feature edge, nm
	MinSpacing int // minimum pattern spacing, nm
	Margin     int // minimum distance from the window boundary, nm
}

// DefaultDRCParams returns contact-layer rules consistent with the
// calibrated optical model: features no thinner than 45nm, spacings no
// tighter than 30nm, and a 60nm optical margin to the window edge.
func DefaultDRCParams() DRCParams {
	return DRCParams{MinWidth: 45, MinSpacing: 30, Margin: 60}
}

// DRCViolation describes one design-rule failure.
type DRCViolation struct {
	Rule string
	A, B int // pattern indices; B is -1 for single-pattern rules
}

// String implements fmt.Stringer.
func (v DRCViolation) String() string {
	if v.B < 0 {
		return fmt.Sprintf("%s on pattern %d", v.Rule, v.A)
	}
	return fmt.Sprintf("%s between patterns %d and %d", v.Rule, v.A, v.B)
}

// CheckDRC verifies the layout against the rules and returns all violations.
func (l Layout) CheckDRC(p DRCParams) []DRCViolation {
	var out []DRCViolation
	inner := geom.Rect{
		X0: l.Window.X0 + p.Margin, Y0: l.Window.Y0 + p.Margin,
		X1: l.Window.X1 - p.Margin, Y1: l.Window.Y1 - p.Margin,
	}
	for i, r := range l.Patterns {
		if r.W() < p.MinWidth || r.H() < p.MinWidth {
			out = append(out, DRCViolation{Rule: "min-width", A: i, B: -1})
		}
		if r.X0 < inner.X0 || r.Y0 < inner.Y0 || r.X1 > inner.X1 || r.Y1 > inner.Y1 {
			out = append(out, DRCViolation{Rule: "window-margin", A: i, B: -1})
		}
		for j := i + 1; j < len(l.Patterns); j++ {
			if r.Dist(l.Patterns[j]) < float64(p.MinSpacing) {
				out = append(out, DRCViolation{Rule: "min-spacing", A: i, B: j})
			}
		}
	}
	return out
}
