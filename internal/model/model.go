// Package model assembles the paper's printability predictor (§IV, Fig. 5):
// a ResNet-style regression CNN that maps a grayscale decomposition image to
// the z-scored Eq. 9 printability score, plus training, persistence, and the
// score bookkeeping itself.
//
// The paper trains ResNet-18 on 224x224 inputs on a GPU. The paper-faithful
// architecture is constructible here (ResNet18Config), but the experiments
// default to a width- and resolution-reduced variant (TinyConfig) that a CPU
// can train in minutes; the predictor only has to rank a handful of
// candidates per layout. See DESIGN.md, substitution table row 2.
package model

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"

	"ldmo/internal/artifact"
	"ldmo/internal/grid"
	"ldmo/internal/nn"
	"ldmo/internal/par"
	"ldmo/internal/simclock"
	"ldmo/internal/tensor"
)

// ScoreWeights are the Eq. 9 coefficients:
// score = Alpha*L2 + Beta*EPE# + Gamma*Violation#.
type ScoreWeights struct {
	Alpha, Beta, Gamma float64
}

// DefaultScoreWeights returns the paper's alpha=1, beta=3500, gamma=8000.
func DefaultScoreWeights() ScoreWeights { return ScoreWeights{Alpha: 1, Beta: 3500, Gamma: 8000} }

// Score evaluates Eq. 9.
func (w ScoreWeights) Score(l2 float64, epeViolations, printViolations int) float64 {
	return w.Alpha*l2 + w.Beta*float64(epeViolations) + w.Gamma*float64(printViolations)
}

// ScoreNorm is the z-score normalization fitted to the training labels
// ("z-score regularization is applied to make the score comparable").
type ScoreNorm struct {
	Mean, Std float64
}

// FitScoreNorm estimates mean and standard deviation from raw scores. A
// degenerate (constant) label set gets Std 1 so normalization stays finite.
func FitScoreNorm(scores []float64) ScoreNorm {
	if len(scores) == 0 {
		return ScoreNorm{Mean: 0, Std: 1}
	}
	var mean float64
	for _, s := range scores {
		mean += s
	}
	mean /= float64(len(scores))
	var varv float64
	for _, s := range scores {
		d := s - mean
		varv += d * d
	}
	varv /= float64(len(scores))
	std := math.Sqrt(varv)
	if std < 1e-12 {
		std = 1
	}
	return ScoreNorm{Mean: mean, Std: std}
}

// Normalize maps a raw score to z-space.
func (n ScoreNorm) Normalize(s float64) float64 { return (s - n.Mean) / n.Std }

// Denormalize maps a z-space prediction back to raw score units.
func (n ScoreNorm) Denormalize(z float64) float64 { return z*n.Std + n.Mean }

// Config describes the predictor architecture.
type Config struct {
	// InputSize is the square input image edge in pixels.
	InputSize int
	// StemChannels is the output width of the 7x7 stem convolution.
	StemChannels int
	// StageBlocks is the residual block count per stage (ResNet-18: 2,2,2,2).
	StageBlocks [4]int
	// StageChannels is the channel width per stage.
	StageChannels [4]int
	// HiddenDim is the penultimate fully connected width (paper: 1000).
	HiddenDim int
	// Seed drives weight initialization.
	Seed int64
}

// ResNet18Config is the paper-faithful architecture: 224x224 inputs, the
// 64/128/256/512 stage widths of ResNet-18 and the 1000-d penultimate layer
// of Fig. 5.
func ResNet18Config() Config {
	return Config{
		InputSize:     224,
		StemChannels:  64,
		StageBlocks:   [4]int{2, 2, 2, 2},
		StageChannels: [4]int{64, 128, 256, 512},
		HiddenDim:     1000,
		Seed:          1,
	}
}

// TinyConfig is the CPU-scale variant the experiments run: identical
// topology (7x7 stem, maxpool, four residual stages, avgpool, two FC
// layers), reduced to 64x64 inputs and 8..48 channels.
func TinyConfig() Config {
	return Config{
		InputSize:     64,
		StemChannels:  8,
		StageBlocks:   [4]int{1, 1, 1, 1},
		StageChannels: [4]int{8, 16, 32, 48},
		HiddenDim:     64,
		Seed:          1,
	}
}

// Validate reports the first problem with c, or nil.
func (c Config) Validate() error {
	if c.InputSize < 16 {
		return fmt.Errorf("model: input size %d too small", c.InputSize)
	}
	if c.StemChannels <= 0 || c.HiddenDim <= 0 {
		return fmt.Errorf("model: non-positive widths in %+v", c)
	}
	for i := range c.StageBlocks {
		if c.StageBlocks[i] <= 0 || c.StageChannels[i] <= 0 {
			return fmt.Errorf("model: stage %d has no blocks or channels", i)
		}
	}
	return nil
}

// Predictor is the trained printability estimator. A Predictor is not safe
// for concurrent use, but PredictBatch parallelizes internally: the batch is
// sharded over worker lanes, each forwarding through its own lane of the
// network (nn layers are single-goroutine). Every sample's forward pass is
// independent of its batchmates (inference-mode batch norm uses running
// statistics), so sharded scores are bit-identical to the single-batch ones.
//
// Inference runs on one nn.Network.Freeze() copy — batch norm folded into
// the preceding convolutions, conv weights pre-packed for the GEMM, no
// gradient buffers — frozen lazily once per weight generation. Every lane
// reads that one weight set (nn.Network.Lane) and owns only its activation
// caches. The lanes are cached with the lane pool, so steady-state
// PredictBatch calls rebuild nothing.
type Predictor struct {
	Cfg   Config
	Net   *nn.Network
	Norm  ScoreNorm
	clock *simclock.Clock

	workers int              // batch-sharding lanes; 0 = par.Workers()
	frozen  []*nn.Network    // lazily built inference lanes; lane 0 is the frozen copy
	pool    *par.Pool        // cached lane pool, rebuilt when workers changes
	inx     []*tensor.Tensor // per-lane cached input batch tensors
}

// New builds an untrained predictor for the given architecture.
func New(cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	layers := []nn.Layer{
		nn.NewConv2D(rng, 1, cfg.StemChannels, 7, 2, 3, false),
		nn.NewBatchNorm2D(cfg.StemChannels),
		nn.NewReLU(),
		nn.NewMaxPool2D(3, 2, 1),
	}
	inC := cfg.StemChannels
	for stage := 0; stage < 4; stage++ {
		outC := cfg.StageChannels[stage]
		for b := 0; b < cfg.StageBlocks[stage]; b++ {
			stride := 1
			if b == 0 && stage > 0 {
				stride = 2
			}
			layers = append(layers, nn.NewBasicBlock(rng, inC, outC, stride))
			inC = outC
		}
	}
	layers = append(layers,
		nn.NewGlobalAvgPool(),
		nn.NewLinear(rng, inC, cfg.HiddenDim),
		nn.NewReLU(),
		nn.NewLinear(rng, cfg.HiddenDim, 1),
	)
	return &Predictor{Cfg: cfg, Net: nn.NewNetwork(layers...), Norm: ScoreNorm{Std: 1}}, nil
}

// SetClock attaches deterministic cost accounting; each Predict call charges
// one CNN inference.
func (p *Predictor) SetClock(c *simclock.Clock) { p.clock = c }

// SetWorkers bounds PredictBatch's internal parallelism: n lanes score batch
// shards concurrently (0 selects par.Workers(), 1 forces the serial path).
func (p *Predictor) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	p.workers = n
	// The frozen lanes stay valid (weights unchanged); only the lane pool
	// is sized by the worker count.
	p.pool = nil
}

// invalidateReplicas drops the frozen inference lanes; called whenever the
// canonical parameters are about to change.
func (p *Predictor) invalidateReplicas() { p.frozen = nil }

// lanePool returns the cached worker pool, building it on first use after a
// SetWorkers change.
func (p *Predictor) lanePool() *par.Pool {
	if p.pool == nil {
		p.pool = par.NewPool(p.workers)
	}
	return p.pool
}

// frozenNets returns n inference lanes of the current weights, growing the
// cache on demand: the network is frozen once, and every further lane
// shares that frozen weight set. Lane 0 serves the serial path too, so
// serial and sharded predictions run the identical folded weights.
func (p *Predictor) frozenNets(n int) []*nn.Network {
	if len(p.frozen) == 0 {
		p.frozen = append(p.frozen, p.Net.Freeze())
	}
	for len(p.frozen) < n {
		p.frozen = append(p.frozen, p.frozen[0].Lane())
	}
	return p.frozen[:n]
}

// imageToTensor packs grayscale images into a freshly allocated
// N x 1 x S x S batch, resampling to the configured input size when needed.
// Training uses it (each batch tensor lives across the NaN-retry loop);
// inference goes through the cached lane tensors below.
func (p *Predictor) imageToTensor(imgs []*grid.Grid) *tensor.Tensor {
	s := p.Cfg.InputSize
	x := tensor.New(len(imgs), 1, s, s)
	for i, g := range imgs {
		if g.W != s || g.H != s {
			g = g.Resample(s, s)
		}
		copy(x.Data[i*s*s:(i+1)*s*s], g.Data)
	}
	return x
}

// laneTensor packs imgs into lane's cached input tensor as an
// N x 1 x S x S batch, resampling to the configured input size when needed.
// The caller must have grown p.inx past lane already (lanes write disjoint
// slots concurrently; the slice header itself is never touched here).
func (p *Predictor) laneTensor(lane int, imgs []*grid.Grid) *tensor.Tensor {
	s := p.Cfg.InputSize
	x := tensor.Ensure(p.inx[lane], len(imgs), 1, s, s)
	p.inx[lane] = x
	for i, g := range imgs {
		if g.W != s || g.H != s {
			g = g.Resample(s, s)
		}
		copy(x.Data[i*s*s:(i+1)*s*s], g.Data)
	}
	return x
}

// Predict returns the normalized (z-space) printability score of one
// decomposition image; lower is better.
func (p *Predictor) Predict(img *grid.Grid) float64 {
	return p.PredictBatch([]*grid.Grid{img})[0]
}

// PredictBatch scores several images, sharding the batch across the
// configured worker lanes when it is large enough to pay for the fan-out.
func (p *Predictor) PredictBatch(imgs []*grid.Grid) []float64 {
	if len(imgs) == 0 {
		return nil
	}
	scores := make([]float64, len(imgs))
	p.PredictBatchInto(imgs, scores)
	return scores
}

// PredictBatchInto is PredictBatch writing into a caller-owned score slice
// (len(out) must equal len(imgs)). Once warm, a call at a previously seen
// batch size reuses the cached lane input tensors and the frozen lanes,
// so the coalesced prediction stage of the pipelined flow adds no
// steady-state garbage beyond any needed input resampling.
//
// Scores are a per-sample function of each image alone — inference batch
// norm uses running statistics and the blocked GEMM reduction order is
// independent of batch composition — so any concatenation or split of
// batches returns bitwise-identical scores per image. The flow's coalescing
// across candidates and layouts relies on this invariance.
func (p *Predictor) PredictBatchInto(imgs []*grid.Grid, out []float64) {
	if len(imgs) == 0 {
		return
	}
	if len(out) != len(imgs) {
		panic(fmt.Sprintf("model: PredictBatchInto out length %d != batch %d", len(out), len(imgs)))
	}
	p.clock.Charge(simclock.CostCNNInference, len(imgs))
	pool := p.lanePool()
	lanes := min(pool.Size(), len(imgs))
	for len(p.inx) < lanes {
		p.inx = append(p.inx, nil)
	}
	if lanes > 1 {
		p.predictSharded(imgs, out, pool, p.frozenNets(lanes), lanes)
		return
	}
	x := p.laneTensor(0, imgs)
	o := p.frozenNets(1)[0].Forward(x, false)
	copy(out, o.Data)
}

// predictSharded splits imgs into lanes contiguous shards, forwards each
// through its inference lane, and assembles scores in input order.
func (p *Predictor) predictSharded(imgs []*grid.Grid, out []float64, pool *par.Pool, nets []*nn.Network, lanes int) {
	pool.Map(lanes, func(_, shard int) {
		lo := shard * len(imgs) / lanes
		hi := (shard + 1) * len(imgs) / lanes
		if lo == hi {
			return
		}
		x := p.laneTensor(shard, imgs[lo:hi])
		o := nets[shard].Forward(x, false)
		copy(out[lo:hi], o.Data)
	})
}

// Sealed-envelope identity of an exported predictor file.
const (
	predictorKind    = "predictor"
	predictorVersion = 1
)

// Persisted model types claim their gob type IDs at init, in a fixed order
// (after nn's, which this package imports), so sealed payload bytes are a
// pure function of the encoded state.
func init() {
	artifact.StabilizeGob(Config{}, ScoreNorm{}, trainCheckpoint{})
}

// Save writes architecture, normalization and weights to path inside a
// sealed artifact envelope, atomically. Load verifies the envelope, so a
// truncated or bit-rotted model file is reported instead of misdecoded.
func (p *Predictor) Save(path string) error {
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		return err
	}
	return artifact.WriteFile(path, predictorKind, predictorVersion, buf.Bytes())
}

// Digest returns the provenance fingerprint of the current architecture,
// normalization and weights: the SHA-256 of the serialized checkpoint
// bytes. Any retraining changes it — the job service folds it into dedupe
// cache keys so a stale cached result is never served across a retrain.
func (p *Predictor) Digest() string {
	var buf bytes.Buffer
	if err := p.Write(&buf); err != nil {
		// Gob-encoding in-memory plain-data structs cannot fail; treat it
		// as the programming error it would be.
		panic(fmt.Sprintf("model: predictor digest: %v", err))
	}
	return artifact.Digest(buf.Bytes())
}

// Write streams the predictor to w.
func (p *Predictor) Write(w io.Writer) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(p.Cfg); err != nil {
		return fmt.Errorf("model: encode config: %w", err)
	}
	if err := enc.Encode(p.Norm); err != nil {
		return fmt.Errorf("model: encode norm: %w", err)
	}
	return p.Net.EncodeParams(enc)
}

// Load reads a predictor previously written by Save, verifying the sealed
// envelope: corruption, version skew, and wrong-kind files surface as the
// typed artifact errors.
func Load(path string) (*Predictor, error) {
	payload, err := artifact.ReadFile(path, predictorKind, predictorVersion)
	if err != nil {
		return nil, err
	}
	return Read(bytes.NewReader(payload))
}

// Read streams a predictor from r.
func Read(r io.Reader) (*Predictor, error) {
	dec := gob.NewDecoder(r)
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, fmt.Errorf("model: decode config: %w", err)
	}
	var norm ScoreNorm
	if err := dec.Decode(&norm); err != nil {
		return nil, fmt.Errorf("model: decode norm: %w", err)
	}
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	p.Norm = norm
	if err := p.Net.DecodeParams(dec); err != nil {
		return nil, err
	}
	return p, nil
}
