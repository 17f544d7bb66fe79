// Package epe implements the paper's printability metrics: edge placement
// error (Definition 1), its violation count, the L2 image error
// (Definition 2), and the print-violation detector (bridge / missing
// pattern) that the ILT loop consults every three iterations.
package epe

import (
	"math"

	"ldmo/internal/geom"
	"ldmo/internal/grid"
)

// Checkpoint is one EPE measurement site: a point on a target-pattern edge
// with the outward edge normal.
type Checkpoint struct {
	Pos     geom.Point // on the design edge, nanometers
	Normal  geom.Point // outward unit normal, one of (+-1,0),(0,+-1)
	Pattern int        // index of the target pattern the edge belongs to
}

// GenerateCheckpoints places measurement sites on every edge of every target
// rectangle: one at each edge midpoint, plus additional sites every spacing
// nanometers on edges longer than spacing. Contact-scale features get the
// classic four-midpoint arrangement; long bars get a comb.
func GenerateCheckpoints(targets []geom.Rect, spacing int) []Checkpoint {
	if spacing <= 0 {
		spacing = 40
	}
	var cps []Checkpoint
	for pi, r := range targets {
		// Horizontal positions along top/bottom edges.
		for _, x := range edgeStops(r.X0, r.X1, spacing) {
			cps = append(cps,
				Checkpoint{Pos: geom.Point{X: x, Y: r.Y0}, Normal: geom.Point{Y: -1}, Pattern: pi},
				Checkpoint{Pos: geom.Point{X: x, Y: r.Y1}, Normal: geom.Point{Y: 1}, Pattern: pi},
			)
		}
		// Vertical positions along left/right edges.
		for _, y := range edgeStops(r.Y0, r.Y1, spacing) {
			cps = append(cps,
				Checkpoint{Pos: geom.Point{X: r.X0, Y: y}, Normal: geom.Point{X: -1}, Pattern: pi},
				Checkpoint{Pos: geom.Point{X: r.X1, Y: y}, Normal: geom.Point{X: 1}, Pattern: pi},
			)
		}
	}
	return cps
}

// edgeStops returns measurement coordinates along [lo, hi]: the midpoint for
// short edges, a uniform comb with roughly `spacing` pitch for long ones.
func edgeStops(lo, hi, spacing int) []int {
	length := hi - lo
	n := length / spacing
	if n < 2 {
		return []int{(lo + hi) / 2}
	}
	stops := make([]int, 0, n+1)
	for i := 0; i <= n; i++ {
		stops = append(stops, lo+length*(2*i+1)/(2*(n+1)))
	}
	return stops
}

// Meter measures EPE against a resist image. SearchRange bounds the contour
// walk from the design edge, in nanometers; checkpoints whose contour is not
// found within the range are assigned EPE = SearchRange (a hard miss).
type Meter struct {
	// Threshold is the EPE violation threshold in nanometers (paper: 10).
	Threshold float64
	// PrintLevel is the resist-image level defining the printed contour
	// (0.5 for the sigmoid resist model).
	PrintLevel float64
	// SearchRange is the maximum contour displacement representable, nm.
	SearchRange float64
	// Step is the contour-walk sampling step in nanometers.
	Step float64
}

// NewMeter returns a meter with the paper's 10nm violation threshold and a
// search range generous enough to see heavily displaced contours.
func NewMeter() Meter {
	return Meter{Threshold: 10, PrintLevel: 0.5, SearchRange: 40, Step: 2}
}

// Result is the outcome of one EPE measurement pass.
type Result struct {
	EPEs       []float64 // per checkpoint, signed nm (+ = overprint outward)
	Violations int       // |EPE| > Threshold
	MaxAbs     float64
	MeanAbs    float64
}

// Measure evaluates every checkpoint against the (continuous) resist image t.
// The printed edge position is located by walking along the checkpoint
// normal and linearly interpolating the PrintLevel crossing; positive EPE
// means the printed edge lies outside the design edge.
func (m Meter) Measure(t *grid.Grid, cps []Checkpoint) Result {
	res := Result{EPEs: make([]float64, len(cps))}
	sumAbs := 0.0
	for i, cp := range cps {
		e := m.edgeOffset(t, cp)
		res.EPEs[i] = e
		a := math.Abs(e)
		sumAbs += a
		if a > m.Threshold {
			res.Violations++
		}
		if a > res.MaxAbs {
			res.MaxAbs = a
		}
	}
	if len(cps) > 0 {
		res.MeanAbs = sumAbs / float64(len(cps))
	}
	return res
}

// edgeOffset walks the resist image along the checkpoint normal and returns
// the signed distance from the design edge to the printed contour.
func (m Meter) edgeOffset(t *grid.Grid, cp Checkpoint) float64 {
	sample := func(d float64) float64 {
		return t.SampleNM(
			float64(cp.Pos.X)+d*float64(cp.Normal.X),
			float64(cp.Pos.Y)+d*float64(cp.Normal.Y),
		)
	}
	inner := sample(-m.SearchRange)
	if inner < m.PrintLevel {
		// The pattern interior is not printed at all within range:
		// treat as a full-range pullback.
		return -m.SearchRange
	}
	// Walk outward from deep inside; the first inside->outside crossing is
	// the printed edge.
	prevD := -m.SearchRange
	prevV := inner
	for d := -m.SearchRange + m.Step; d <= m.SearchRange+1e-9; d += m.Step {
		v := sample(d)
		if prevV >= m.PrintLevel && v < m.PrintLevel {
			// Linear interpolation for the sub-step crossing.
			frac := (prevV - m.PrintLevel) / (prevV - v)
			return prevD + frac*m.Step
		}
		prevD, prevV = d, v
	}
	// Still printed at the far end: overprint beyond range (or a bridge).
	return m.SearchRange
}

// Violations describes lithographic print failures detected on a binarized
// printed image: components bridging several target patterns, targets that
// did not print, and printed blobs touching no target at all.
type Violations struct {
	Bridges int // printed components overlapping >= 2 targets
	Missing int // targets with no printed pixels
	Extra   int // printed components overlapping no target
}

// Total returns the total violation count used in the paper's score (Eq. 9).
func (v Violations) Total() int { return v.Bridges + v.Missing + v.Extra }

// Any reports whether any print violation was detected.
func (v Violations) Any() bool { return v.Total() > 0 }

// CheckPrintViolations binarizes the resist image at printLevel and compares
// its connected components against the target patterns.
func CheckPrintViolations(t *grid.Grid, targets []geom.Rect, printLevel float64) Violations {
	bin := t.Threshold(printLevel)
	labels, n := bin.Components()
	if n == 0 {
		return Violations{Missing: len(targets)}
	}
	// For every component, the set of targets it overlaps; for every
	// target, whether anything printed inside it.
	compTargets := make([]map[int]struct{}, n+1)
	targetHit := make([]bool, len(targets))
	for ti, r := range targets {
		x0, y0, x1, y1, ok := bin.PixelRect(r)
		if !ok {
			continue
		}
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				l := labels[y*bin.W+x]
				if l == 0 {
					continue
				}
				targetHit[ti] = true
				if compTargets[l] == nil {
					compTargets[l] = make(map[int]struct{})
				}
				compTargets[l][ti] = struct{}{}
			}
		}
	}
	var v Violations
	for l := 1; l <= n; l++ {
		switch {
		case compTargets[l] == nil:
			v.Extra++
		case len(compTargets[l]) >= 2:
			v.Bridges++
		}
	}
	for _, hit := range targetHit {
		if !hit {
			v.Missing++
		}
	}
	return v
}
