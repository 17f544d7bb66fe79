// Package ldmo is the public API of this reproduction of "Deep
// Learning-Driven Simultaneous Layout Decomposition and Mask Optimization"
// (Zhong, Hu, Ma, Yang, Ma, Yu — DAC 2020).
//
// The package re-exports the pieces a downstream user composes:
//
//   - Layout and the synthetic NanGate-like cell library (Cell, Cells,
//     GenerateLayouts) — the inputs;
//   - Decomposition generation (GenerateDecompositions) — MST + n-wise
//     candidate enumeration;
//   - the lithography/ILT stack (LithoParams, ILTConfig, NewOptimizer) —
//     the physics;
//   - the CNN printability predictor (NewPredictor, TrainPredictor,
//     LoadPredictor) — the learned selector;
//   - Flow (NewFlow) — the paper's Fig. 2 loop tying it all together.
//
// Quickstart (see examples/quickstart for the runnable version):
//
//	l, _ := ldmo.Cell("NAND3_X2")
//	flow := ldmo.NewFlow(nil, ldmo.DefaultFlowConfig()) // nil: no predictor yet
//	res, _ := flow.Run(l)
//	fmt.Println(res.ILT.EPE.Violations, "EPE violations")
//
// Training a predictor and using it:
//
//	pool, _ := ldmo.GenerateLayouts(1, 200)
//	pred, _, _ := ldmo.TrainPredictor(pool, ldmo.DefaultSamplingConfig(),
//	    ldmo.DefaultPredictorConfig(), ldmo.DefaultTrainConfig(), os.Stderr)
//	flow := ldmo.NewFlow(pred, ldmo.DefaultFlowConfig())
package ldmo

import (
	"io"

	"ldmo/internal/core"
	"ldmo/internal/decomp"
	"ldmo/internal/epe"
	"ldmo/internal/geom"
	"ldmo/internal/grid"
	"ldmo/internal/ilt"
	"ldmo/internal/layout"
	"ldmo/internal/litho"
	"ldmo/internal/model"
	"ldmo/internal/runx"
	"ldmo/internal/sampling"
	"ldmo/internal/simclock"
)

// Geometry and layout types.
type (
	// Point is a layout-space coordinate in nanometers.
	Point = geom.Point
	// Rect is an axis-aligned rectangle in nanometers.
	Rect = geom.Rect
	// Layout is a named set of target patterns in a simulation window.
	Layout = layout.Layout
	// Grid is a dense raster with physical resolution metadata.
	Grid = grid.Grid
	// Decomposition assigns a layout's patterns onto two masks.
	Decomposition = decomp.Decomposition
)

// Physics and optimization types.
type (
	// LithoParams is the forward lithography process model.
	LithoParams = litho.Params
	// ILTConfig configures the gradient-descent mask optimizer.
	ILTConfig = ilt.Config
	// ILTResult is one mask-optimization outcome.
	ILTResult = ilt.Result
	// EPEMeter measures edge placement errors.
	EPEMeter = epe.Meter
)

// Predictor and flow types.
type (
	// Predictor is the CNN printability estimator.
	Predictor = model.Predictor
	// PredictorConfig describes the predictor architecture.
	PredictorConfig = model.Config
	// TrainConfig controls predictor training.
	TrainConfig = model.TrainConfig
	// SamplingConfig controls training-set construction.
	SamplingConfig = sampling.Config
	// FlowConfig configures the Fig. 2 LDMO flow.
	FlowConfig = core.Config
	// Budget bounds a flow run: total wall clock, per-candidate wall clock,
	// and per-candidate ILT iterations (FlowConfig.Budget; zero = unlimited).
	Budget = runx.Budget
	// Flow is the deep-learning-driven LDMO engine.
	Flow = core.Flow
	// FlowResult is one flow outcome.
	FlowResult = core.Result
	// Clock is the deterministic runtime accounting used by the
	// experiments.
	Clock = simclock.Clock
)

// NewRect builds a normalized rectangle from two corners, in nanometers.
func NewRect(x0, y0, x1, y1 int) Rect { return geom.NewRect(x0, y0, x1, y1) }

// RectWH builds a rectangle from a corner and a width/height.
func RectWH(x, y, w, h int) Rect { return geom.RectWH(x, y, w, h) }

// Cell returns the named cell of the synthetic NanGate-like library
// (BUF_X1 ... DFF_X1; see CellNames).
func Cell(name string) (Layout, error) { return layout.Cell(name) }

// Cells returns the 13-cell library in the paper's Table I order.
func Cells() []Layout { return layout.Cells() }

// CellNames lists the library cells in Table I order.
func CellNames() []string { return layout.CellNames() }

// GenerateLayouts produces count random contact layouts deterministically
// from seed, all DRC-clean and double-patterning decomposable. It stands in
// for the paper's 8000-design dataset.
func GenerateLayouts(seed int64, count int) ([]Layout, error) {
	return layout.GenerateSet(seed, count, layout.DefaultGenParams())
}

// GenerateDecompositions enumerates the MST + n-wise decomposition
// candidates of a layout with the paper's settings (3-wise over MST
// components and violated patterns, pairwise over normal patterns,
// canonicalized and deduplicated).
func GenerateDecompositions(l Layout) ([]Decomposition, error) {
	return decomp.NewGenerator().Generate(l)
}

// DefaultLithoParams returns the calibrated 193nm-immersion-like process
// with the paper's sigmoid slopes (theta_m=8, theta_z=120); the paper's
// threshold constant is available verbatim via litho.PaperParams.
func DefaultLithoParams() LithoParams { return litho.DefaultParams() }

// DefaultILTConfig returns the paper's optimizer settings: at most 29
// iterations, violation checks every 3.
func DefaultILTConfig() ILTConfig { return ilt.DefaultConfig() }

// NewOptimizer builds a standalone ILT mask optimizer for one layout.
func NewOptimizer(l Layout, cfg ILTConfig) (*ilt.Optimizer, error) {
	return ilt.NewOptimizer(l, cfg)
}

// DefaultPredictorConfig returns the CPU-scale predictor architecture. The
// paper-faithful ResNet-18 (224x224) is available as ResNet18Config.
func DefaultPredictorConfig() PredictorConfig { return model.TinyConfig() }

// ResNet18Config returns the paper's full ResNet-18 architecture (Fig. 5).
func ResNet18Config() PredictorConfig { return model.ResNet18Config() }

// NewPredictor builds an untrained predictor.
func NewPredictor(cfg PredictorConfig) (*Predictor, error) { return model.New(cfg) }

// LoadPredictor reads a predictor saved with (*Predictor).Save.
func LoadPredictor(path string) (*Predictor, error) { return model.Load(path) }

// DefaultSamplingConfig returns the CPU-scale training-set pipeline
// (SIFT + k-medoids layout sampling, MST + 3-wise decomposition sampling,
// ILT labeling). The paper's published constants are sampling.PaperConfig.
func DefaultSamplingConfig() SamplingConfig { return sampling.DefaultConfig() }

// DefaultTrainConfig returns predictor training settings.
func DefaultTrainConfig() TrainConfig { return model.DefaultTrainConfig() }

// TrainPredictor runs the paper's full training pipeline: select
// representative layouts from the pool, sample and label decompositions
// with full ILT, augment with the exact dihedral symmetries of the optical
// model, and fit the predictor. It returns the trained predictor and the
// size of the labeled (pre-augmentation) dataset. Progress goes to log when
// non-nil.
func TrainPredictor(pool []Layout, sc SamplingConfig, pc PredictorConfig, tc TrainConfig, log io.Writer) (*Predictor, int, error) {
	selected, err := sampling.SelectLayouts(pool, sc)
	if err != nil {
		return nil, 0, err
	}
	ds, _, err := sampling.BuildDataset(selected, sc, log)
	if err != nil {
		return nil, 0, err
	}
	pred, err := model.New(pc)
	if err != nil {
		return nil, 0, err
	}
	if _, err := pred.Train(ds.Augmented(), tc); err != nil {
		return nil, 0, err
	}
	return pred, ds.Len(), nil
}

// DefaultFlowConfig returns the paper's flow settings.
func DefaultFlowConfig() FlowConfig { return core.DefaultConfig() }

// NewFlow builds the Fig. 2 LDMO flow. scorer may be nil, in which case
// candidates are tried in generation order (the no-predictor ablation). The
// pipelined runs call the scorer from several goroutines, so it must be
// safe for concurrent use, as *Predictor is.
func NewFlow(scorer core.Scorer, cfg FlowConfig) *Flow { return core.NewFlow(scorer, cfg) }
