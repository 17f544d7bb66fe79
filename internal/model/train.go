package model

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"ldmo/internal/faultinject"
	"ldmo/internal/grid"
	"ldmo/internal/nn"
	"ldmo/internal/runx"
	"ldmo/internal/tensor"
)

// Sample is one labeled training example: a grayscale decomposition image
// and its raw Eq. 9 score (normalization happens inside Train).
type Sample struct {
	Image *grid.Grid
	Score float64
}

// Dataset is a labeled sample collection.
type Dataset struct {
	Samples []Sample
}

// Add appends a sample.
func (d *Dataset) Add(img *grid.Grid, score float64) {
	d.Samples = append(d.Samples, Sample{Image: img, Score: score})
}

// Len returns the sample count.
func (d *Dataset) Len() int { return len(d.Samples) }

// Augmented returns a new dataset containing, for every sample, its eight
// dihedral transforms (four quarter-turn rotations of the image and of its
// mirror) with unchanged labels. The augmentation is exact, not heuristic:
// the optical kernels are isotropic and the EPE/L2 metrics are invariant
// under rotation and reflection of the whole tile, so a transformed
// decomposition image has exactly the same printability score.
func (d *Dataset) Augmented() *Dataset {
	out := &Dataset{Samples: make([]Sample, 0, 8*len(d.Samples))}
	for _, s := range d.Samples {
		img := s.Image
		mir := img.FlipH()
		for k := 0; k < 4; k++ {
			out.Samples = append(out.Samples,
				Sample{Image: img, Score: s.Score},
				Sample{Image: mir, Score: s.Score})
			if k < 3 {
				img = img.Rot90()
				mir = mir.Rot90()
			}
		}
	}
	return out
}

// TrainConfig controls predictor training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	// DecayAt and DecayFactor implement a single-step learning-rate decay:
	// after DecayAt epochs the rate is multiplied by DecayFactor. Zero
	// values disable the decay.
	DecayAt     int
	DecayFactor float64
	Seed        int64
	// UseMSE switches the cost from the paper's MAE (Eq. 10) to MSE, the
	// ablation alternative.
	UseMSE bool
	// Log, when non-nil, receives per-epoch progress lines.
	Log io.Writer
	// Checkpoint, when non-empty, is a file that TrainCtx writes atomically
	// every CheckpointEvery epochs (weights, optimizer moments, loss
	// history) and resumes from when it already exists. Resumed training is
	// bit-identical to an uninterrupted run: the shuffle RNG is
	// fast-forwarded by replaying the completed epochs' permutations.
	Checkpoint string
	// CheckpointEvery is the epoch interval between checkpoint writes;
	// 0 means every epoch.
	CheckpointEvery int
}

// DefaultTrainConfig returns settings that converge on the reduced
// architecture within CPU-minutes.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 30, BatchSize: 16, LR: 1e-3, DecayAt: 20, DecayFactor: 0.3, Seed: 1}
}

// Train fits the predictor on the dataset: labels are z-scored (the fitted
// normalization is stored on the predictor), batches are shuffled per epoch,
// and the mean epoch loss history is returned. It is TrainCtx without
// cancellation.
func (p *Predictor) Train(ds *Dataset, tc TrainConfig) ([]float64, error) {
	return p.TrainCtx(context.Background(), ds, tc)
}

// TrainCtx is the hardened training loop. Cancellation is observed at batch
// granularity and returns the loss history so far together with the context
// error; with tc.Checkpoint set, the state at the last completed checkpoint
// interval is already on disk, and a subsequent TrainCtx call with the same
// dataset and config resumes there — producing weights and history
// bit-identical to an uninterrupted run (the shuffle RNG is fast-forwarded
// deterministically, the optimizer moments and decayed learning rate travel
// in the checkpoint, and the BatchNorm running stats ride along with the
// weights).
func (p *Predictor) TrainCtx(ctx context.Context, ds *Dataset, tc TrainConfig) ([]float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("model: empty training set")
	}
	if tc.Epochs <= 0 || tc.BatchSize <= 0 || tc.LR <= 0 {
		return nil, fmt.Errorf("model: invalid train config %+v", tc)
	}
	// Training rewrites the canonical weights; any cached inference
	// lanes are stale from here on.
	p.invalidateReplicas()
	raw := make([]float64, ds.Len())
	for i, s := range ds.Samples {
		raw[i] = s.Score
	}
	p.Norm = FitScoreNorm(raw)

	var loss nn.Loss = &nn.MAE{}
	if tc.UseMSE {
		loss = &nn.MSE{}
	}
	adam := nn.NewAdam(tc.LR)
	rng := rand.New(rand.NewSource(tc.Seed))
	history := make([]float64, 0, tc.Epochs)
	order := rng.Perm(ds.Len())
	startEpoch := 0

	if tc.Checkpoint != "" {
		cp, ok, err := loadTrainCheckpoint(tc.Checkpoint, p.Net, runOf(tc, ds.Len()), tc.Log)
		if err != nil {
			return nil, err
		}
		if ok {
			adam.SetState(cp.Adam)
			history = append(history, cp.History...)
			startEpoch = cp.Epoch
			// Fast-forward the shuffle RNG: rand.Rand is not serializable,
			// but the order slice after N epochs is a pure function of the
			// seed, so replaying the completed shuffles reproduces it.
			for e := 0; e < startEpoch; e++ {
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			}
			if tc.Log != nil {
				fmt.Fprintf(tc.Log, "resuming from %s at epoch %d/%d\n", tc.Checkpoint, startEpoch, tc.Epochs)
			}
		}
	}

	every := tc.CheckpointEvery
	if every <= 0 {
		every = 1
	}
	// NaN guard state: params (with BatchNorm running stats) are snapshotted
	// before every batch, and a batch whose loss or gradient goes non-finite
	// is rolled back and retried with a halved learning rate — bounded, so a
	// genuinely divergent run still fails, but typed and clean.
	params := p.Net.Params()
	snap := nn.NewParamSnapshot(params)
	const maxNaNRetries = 3
	batchIdx := 0
	for epoch := startEpoch; epoch < tc.Epochs; epoch++ {
		if tc.DecayAt > 0 && tc.DecayFactor > 0 && epoch == tc.DecayAt {
			adam.LR *= tc.DecayFactor
		}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		epochLoss := 0.0
		batches := 0
		for start := 0; start < len(order); start += tc.BatchSize {
			// A cancelled epoch is abandoned wholesale — resume replays it
			// from the last epoch-boundary checkpoint, keeping the
			// trajectory identical.
			if err := ctx.Err(); err != nil {
				return history, fmt.Errorf("model: training interrupted in epoch %d: %w", epoch+1, err)
			}
			end := min(start+tc.BatchSize, len(order))
			idx := order[start:end]
			imgs := make([]*grid.Grid, len(idx))
			target := tensor.New(len(idx), 1, 1, 1)
			for i, j := range idx {
				imgs[i] = ds.Samples[j].Image
				target.Data[i] = p.Norm.Normalize(ds.Samples[j].Score)
			}
			x := p.imageToTensor(imgs)
			var l float64
			for retry := 0; ; retry++ {
				snap.Save(params)
				pred := p.Net.Forward(x, true)
				var grad *tensor.Tensor
				l, grad = loss.Eval(pred, target)
				nn.ZeroGrads(params)
				p.Net.Backward(grad)
				if faultinject.FireAt(faultinject.TrainNaN, batchIdx) {
					l = math.NaN()
				}
				if !math.IsNaN(l) && !math.IsInf(l, 0) && nn.GradsFinite(params) {
					adam.Step(params)
					break
				}
				// Undo the poisoned forward pass (running stats included) —
				// Adam never saw the batch, so moments and weights are clean.
				snap.Restore(params)
				if retry+1 >= maxNaNRetries {
					return history, &runx.NumericalError{
						Op: "model.TrainCtx",
						Detail: fmt.Sprintf("non-finite loss/gradient at epoch %d batch %d persisted through %d rollbacks with LR backoff (final LR %g)",
							epoch+1, batches+1, maxNaNRetries, adam.LR),
					}
				}
				adam.LR /= 2
				if tc.Log != nil {
					fmt.Fprintf(tc.Log, "model: non-finite loss/gradient at epoch %d batch %d — rolled back, LR halved to %g\n",
						epoch+1, batches+1, adam.LR)
				}
			}
			batchIdx++
			epochLoss += l
			batches++
		}
		epochLoss /= float64(batches)
		history = append(history, epochLoss)
		if tc.Log != nil {
			fmt.Fprintf(tc.Log, "epoch %3d/%d  loss %.4f\n", epoch+1, tc.Epochs, epochLoss)
		}
		if tc.Checkpoint != "" && ((epoch+1)%every == 0 || epoch+1 == tc.Epochs) {
			cp := trainCheckpoint{
				Run:     runOf(tc, ds.Len()),
				Epoch:   epoch + 1,
				History: append([]float64(nil), history...),
				Adam:    adam.State(),
			}
			if err := saveTrainCheckpoint(tc.Checkpoint, p.Net, cp); err != nil {
				return history, err
			}
		}
	}
	return history, nil
}

// Evaluate returns the mean absolute error of the predictor on a dataset, in
// z-space.
func (p *Predictor) Evaluate(ds *Dataset) float64 {
	if ds.Len() == 0 {
		return 0
	}
	sum := 0.0
	const chunk = 32
	for start := 0; start < ds.Len(); start += chunk {
		end := min(start+chunk, ds.Len())
		imgs := make([]*grid.Grid, end-start)
		for i := start; i < end; i++ {
			imgs[i-start] = ds.Samples[i].Image
		}
		preds := p.PredictBatch(imgs)
		for i := start; i < end; i++ {
			d := preds[i-start] - p.Norm.Normalize(ds.Samples[i].Score)
			if d < 0 {
				d = -d
			}
			sum += d
		}
	}
	return sum / float64(ds.Len())
}

// RankAccuracy measures how well the predictor orders candidate groups: for
// each group of sample indices (candidates of one layout), it checks whether
// the sample the predictor ranks best is within `slack` of the true best
// score. It returns the fraction of groups ranked correctly.
func (p *Predictor) RankAccuracy(ds *Dataset, groups [][]int, slack float64) float64 {
	if len(groups) == 0 {
		return 0
	}
	hits := 0
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		imgs := make([]*grid.Grid, len(g))
		bestTrue := ds.Samples[g[0]].Score
		for i, j := range g {
			imgs[i] = ds.Samples[j].Image
			if s := ds.Samples[j].Score; s < bestTrue {
				bestTrue = s
			}
		}
		preds := p.PredictBatch(imgs)
		bestIdx := 0
		for i, v := range preds {
			if v < preds[bestIdx] {
				bestIdx = i
			}
		}
		if ds.Samples[g[bestIdx]].Score <= bestTrue+slack {
			hits++
		}
	}
	return float64(hits) / float64(len(groups))
}
