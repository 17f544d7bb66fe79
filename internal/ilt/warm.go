package ilt

import "ldmo/internal/grid"

// The learned warm start is opt-in through Config alone: Init seeds the
// sessions, ConvergeWindow enables the early stop, and a Config without
// them runs the cold optimizer.

// DefaultConvergeWindow and ConvergeTol are the warm-start early-stop
// parameters: with the paper's CheckEvery=3 cadence, a six-iteration window
// that improved L2 by less than two percent is treated as a plateau.
const (
	DefaultConvergeWindow = 6
	ConvergeTol           = 0.02
)

// warmClip is the clamp applied to a warm initial field before sigmoid
// inversion, in place of InitClip. InitClip protects a binary cold raster
// from the sigmoid's dead tails, but it also erases the saturation depth a
// converged continuous field carries — re-projecting an optimum through
// [0.02, 0.98] replays the cold trajectory almost exactly. A warm field gets
// a much wider band so the surrogate's prediction survives projection with
// its saturation intact while gradients still flow.
const warmClip = 0.005

// Initializer supplies a warm initial mask field for an ILT run: given the
// cold rasterized decomposition masks, it fills warm1/warm2 (both length
// W*H, row-major like the grids) with predicted quasi-optimized fields in
// [0, 1] and returns true. Returning false falls back to the cold start.
//
// The session clamps the returned fields into [warmClip, 1-warmClip] and
// re-projects them through the inverse mask sigmoid, so an initializer never
// needs to worry about the sigmoid's saturated tails. Implementations must
// not retain or mutate the input grids, and must be safe for concurrent use:
// the pipelined flow optimizes several layouts at once against one shared
// initializer.
type Initializer interface {
	WarmMasksInto(cold1, cold2 *grid.Grid, warm1, warm2 []float64) bool
}
