// Package sampling builds the predictor's training set the way the paper
// does (§IV): layout sampling by SIFT feature similarity + k-medoids
// clustering (representative layouts only), decomposition sampling by MST +
// 3-wise covering arrays (representative mask assignments only), and ILT
// labeling with the Eq. 9 score. The random-sampling baseline of Fig. 8 is
// implemented alongside for the comparison experiment.
package sampling

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync/atomic"

	"ldmo/internal/cluster"
	"ldmo/internal/decomp"
	"ldmo/internal/faultinject"
	"ldmo/internal/grid"
	"ldmo/internal/ilt"
	"ldmo/internal/layout"
	"ldmo/internal/model"
	"ldmo/internal/par"
	"ldmo/internal/sift"
)

// Config parameterizes the full training-set pipeline.
type Config struct {
	// Clusters is the k-medoids cluster count (paper: m=50).
	Clusters int
	// PerCluster is how many layouts are drawn per cluster (paper: 5).
	PerCluster int
	// MatchCount is the number of best feature matches summed into the
	// layout distance (paper: c=60).
	MatchCount int
	// Dth is the SIFT match threshold (paper: 0.7).
	Dth float64
	// SIFT configures the feature detector.
	SIFT sift.Params
	// Res is the rasterization resolution for SIFT images, nm/pixel.
	Res int
	// ImageSize is the CNN input edge for dataset images.
	ImageSize int
	// ILT configures the labeling optimizer (full runs, no aborting).
	ILT ilt.Config
	// Weights are the Eq. 9 score coefficients.
	Weights model.ScoreWeights
	// CenterPerLayout subtracts each layout's mean label from its
	// decompositions' labels before training. The predictor is only ever
	// used to *rank candidates of one layout*, and absolute Eq. 9 scores
	// are dominated by layout-identity terms (base L2 area) that carry no
	// ranking signal; centering removes that nuisance variance. This is an
	// implementation refinement over the paper's plain global z-score.
	CenterPerLayout bool
	// Seed drives cluster initialization, per-cluster draws, and the
	// covering-array construction.
	Seed int64
	// Workers bounds the labeling fan-out of BuildDataset (one optimizer
	// per in-flight layout); 0 selects par.Workers(), 1 forces the serial
	// loop. The dataset is bit-identical at any worker count.
	Workers int
	// Checkpoint, when non-empty, is a directory where BuildDataset
	// persists one shard per labeled layout (written atomically) and from
	// which a later run over the same layout list resumes, skipping
	// already-labeled layouts. Because per-layout labeling is
	// deterministic and independent, a resumed dataset is bit-identical
	// to an uninterrupted build.
	Checkpoint string
}

// DefaultConfig returns a CPU-scale pipeline: the paper's thresholds with
// cluster counts reduced to match the smaller synthetic layout pool, and
// labeling on the fast (8nm) raster.
func DefaultConfig() Config {
	iltCfg := ilt.DefaultConfig()
	iltCfg.AbortOnViolation = false // labels need full trajectories
	iltCfg.Litho.Resolution = 8
	return Config{
		Clusters:        8,
		PerCluster:      3,
		MatchCount:      60,
		Dth:             0.7,
		SIFT:            sift.DefaultParams(),
		Res:             4,
		ImageSize:       64,
		ILT:             iltCfg,
		Weights:         model.DefaultScoreWeights(),
		CenterPerLayout: true,
		Seed:            1,
	}
}

// PaperConfig returns the paper's published constants (m=50 clusters, 5 per
// cluster, c=60, Dth=0.7). Labeling a pool at this scale takes CPU-hours.
func PaperConfig() Config {
	c := DefaultConfig()
	c.Clusters = 50
	c.PerCluster = 5
	return c
}

// SelectLayouts reduces a layout pool to its representatives: SIFT features
// per layout, symmetrized Algorithm 2 distances, k-medoids clustering, then
// PerCluster random draws from every cluster (always including the medoid).
func SelectLayouts(pool []layout.Layout, cfg Config) ([]layout.Layout, error) {
	if len(pool) == 0 {
		return nil, fmt.Errorf("sampling: empty layout pool")
	}
	k := cfg.Clusters
	if k <= 0 {
		return nil, fmt.Errorf("sampling: non-positive cluster count %d", k)
	}
	feats := make([][]sift.Feature, len(pool))
	for i, l := range pool {
		feats[i] = sift.Detect(l.Rasterize(cfg.Res), cfg.SIFT)
	}
	dist := make([][]float64, len(pool))
	for i := range dist {
		dist[i] = make([]float64, len(pool))
	}
	for i := 0; i < len(pool); i++ {
		for j := i + 1; j < len(pool); j++ {
			// Algorithm 2 is asymmetric (it matches w's features into
			// s); symmetrize for the clustering metric.
			d := (sift.LayoutSimilarity(feats[i], feats[j], cfg.Dth, cfg.MatchCount) +
				sift.LayoutSimilarity(feats[j], feats[i], cfg.Dth, cfg.MatchCount)) / 2
			dist[i][j] = d
			dist[j][i] = d
		}
	}
	res, err := cluster.KMedoids(dist, k, cfg.Seed, 100)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 17))
	var out []layout.Layout
	for c, members := range res.Members() {
		if len(members) == 0 {
			continue
		}
		// The medoid always represents its cluster; additional draws are
		// random members, as in the paper's "randomly select 5 layouts in
		// each cluster".
		picked := map[int]bool{res.Medoids[c]: true}
		out = append(out, pool[res.Medoids[c]])
		perm := rng.Perm(len(members))
		for _, pi := range perm {
			if len(picked) >= cfg.PerCluster {
				break
			}
			idx := members[pi]
			if picked[idx] {
				continue
			}
			picked[idx] = true
			out = append(out, pool[idx])
		}
	}
	return out, nil
}

// SampleDecompositions produces the training decompositions of one layout
// per §IV-B: only sub-nmin pairs count as SP (everything else is a free
// 3-wise factor), implemented by pushing nmax to infinity so the generator's
// VP set absorbs all non-SP patterns.
func SampleDecompositions(l layout.Layout, cfg Config) ([]decomp.Decomposition, error) {
	gen := decomp.NewGenerator()
	gen.Seed = cfg.Seed
	gen.Classify.NMax = math.Inf(1)
	return gen.Generate(l)
}

// Label runs full ILT on one decomposition and returns its raw Eq. 9 score.
func Label(opt *ilt.Optimizer, d decomp.Decomposition, w model.ScoreWeights) float64 {
	r := opt.Run(d)
	return w.Score(r.L2, r.EPE.Violations, r.Violations.Total())
}

// computeShard runs the deterministic per-layout labeling pipeline — sampled
// decompositions, one fresh optimizer, Eq. 9 labels plus CNN input images —
// and returns the result as a shard. BuildDatasetCtx labels through it with
// and without a checkpoint, which is what makes a resumed build
// byte-identical to an uninterrupted one.
func computeShard(l layout.Layout, li int, cfg Config) (shard, error) {
	cands, err := SampleDecompositions(l, cfg)
	if err != nil {
		return shard{}, fmt.Errorf("sampling: layout %s: %w", l.Name, err)
	}
	opt, err := ilt.NewOptimizer(l, cfg.ILT)
	if err != nil {
		return shard{}, fmt.Errorf("sampling: layout %s: %w", l.Name, err)
	}
	s := shard{
		Layout: l.Name,
		Index:  li,
		Imgs:   make([]*grid.Grid, len(cands)),
		Scores: make([]float64, len(cands)),
	}
	for i, d := range cands {
		s.Scores[i] = Label(opt, d, cfg.Weights)
		s.Imgs[i] = d.GrayImage(cfg.Res, cfg.ImageSize)
	}
	return s, nil
}

// BuildDataset labels every sampled decomposition of every layout and
// returns the dataset plus the per-layout sample-index groups (used for
// ranking metrics). Progress lines go to log when non-nil. It is
// BuildDatasetCtx without cancellation.
func BuildDataset(layouts []layout.Layout, cfg Config, log io.Writer) (*model.Dataset, [][]int, error) {
	return BuildDatasetCtx(context.Background(), layouts, cfg, log)
}

// BuildDatasetCtx is the hardened labeling pipeline. Layouts are labeled in
// parallel across cfg.Workers lanes — every in-flight layout owns its
// optimizer (and hence its simulator), exactly as the serial loop did — and
// the per-layout results are stitched into the dataset in layout order, so
// the dataset is byte-identical to the serial build at any worker count.
//
// When cfg.Checkpoint is set, each labeled layout is persisted as an atomic
// shard the moment it completes and already-persisted shards are loaded
// instead of re-labeled, so a cancelled build loses at most the layouts that
// were in flight. On cancellation the context error is returned (the shards
// remain on disk); a resumed call with the same layouts and config produces
// a dataset bit-identical to an uninterrupted build.
func BuildDatasetCtx(ctx context.Context, layouts []layout.Layout, cfg Config, log io.Writer) (*model.Dataset, [][]int, error) {
	type labeled struct {
		imgs   []*grid.Grid
		scores []float64
		// quarantined notes a shard that failed envelope verification and
		// was renamed aside before this layout was relabeled; logged in the
		// (serial) stitch loop.
		quarantined string
		err         error
	}
	ctx, cancel := context.WithCancel(orBackground(ctx))
	defer cancel()
	var persisted atomic.Int64
	results := make([]labeled, len(layouts))
	pool := par.NewPool(cfg.Workers)
	_, cerr := pool.MapCtx(ctx, len(layouts), func(_, li int) {
		l := layouts[li]
		if cfg.Checkpoint == "" {
			s, err := computeShard(l, li, cfg)
			results[li] = labeled{imgs: s.Imgs, scores: s.Scores, err: err}
			return
		}
		s, computed, rejected, q, err := loadOrLabel(cfg.Checkpoint, li, l, cfg)
		if err != nil {
			results[li] = labeled{err: err}
			return
		}
		out := labeled{imgs: s.Imgs, scores: s.Scores}
		if rejected != nil {
			out.quarantined = fmt.Sprintf("sampling: discarding shard %d (%v); quarantined to %s; relabeling %s\n", li, rejected, q, l.Name)
		}
		// Deterministic interrupt for the resume tests: cancel our own
		// context once enough shards this call computed have landed.
		if n := faultinject.ArgInt(faultinject.CancelAfter, -1); computed && n >= 0 &&
			persisted.Add(1) >= int64(n) {
			cancel()
		}
		results[li] = out
	})
	if cerr != nil {
		return nil, nil, fmt.Errorf("sampling: labeling interrupted: %w", cerr)
	}
	ds := &model.Dataset{}
	var groups [][]int
	for li, r := range results {
		if r.err != nil {
			return nil, nil, r.err
		}
		var group []int
		for i := range r.imgs {
			group = append(group, ds.Len())
			ds.Add(r.imgs[i], r.scores[i])
		}
		if cfg.CenterPerLayout {
			centerGroup(ds, group)
		}
		groups = append(groups, group)
		if log != nil {
			if r.quarantined != "" {
				fmt.Fprint(log, r.quarantined)
			}
			fmt.Fprintf(log, "labeled %3d/%d  %-12s  %d decompositions\n",
				li+1, len(results), layouts[li].Name, len(r.imgs))
		}
	}
	return ds, groups, nil
}

// orBackground tolerates a nil context.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// BuildRandomDataset is the Fig. 8 baseline: layouts drawn uniformly from
// the pool and decompositions drawn uniformly from the full 2^(n-1) space,
// labeled identically. targetSize matches the size of the sampled dataset so
// the comparison is equal-budget.
func BuildRandomDataset(pool []layout.Layout, targetSize int, cfg Config, log io.Writer) (*model.Dataset, [][]int, error) {
	if len(pool) == 0 || targetSize <= 0 {
		return nil, nil, fmt.Errorf("sampling: invalid random dataset request")
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 101))
	ds := &model.Dataset{}
	var groups [][]int
	for ds.Len() < targetSize {
		l := pool[rng.Intn(len(pool))]
		opt, err := ilt.NewOptimizer(l, cfg.ILT)
		if err != nil {
			return nil, nil, err
		}
		// A handful of random decompositions per drawn layout.
		per := min(1+rng.Intn(4), targetSize-ds.Len())
		var group []int
		seen := map[string]bool{}
		for k := 0; k < per; k++ {
			assign := make([]uint8, len(l.Patterns))
			for i := range assign {
				assign[i] = uint8(rng.Intn(2))
			}
			d := decomp.New(l, assign).Canonicalize()
			if seen[d.Key()] {
				continue
			}
			seen[d.Key()] = true
			score := Label(opt, d, cfg.Weights)
			group = append(group, ds.Len())
			ds.Add(d.GrayImage(cfg.Res, cfg.ImageSize), score)
		}
		if cfg.CenterPerLayout {
			centerGroup(ds, group)
		}
		groups = append(groups, group)
		if log != nil {
			fmt.Fprintf(log, "random-labeled %4d/%d\n", ds.Len(), targetSize)
		}
	}
	return ds, groups, nil
}

// centerGroup subtracts the group's mean score from each member in place.
func centerGroup(ds *model.Dataset, group []int) {
	if len(group) == 0 {
		return
	}
	mean := 0.0
	for _, i := range group {
		mean += ds.Samples[i].Score
	}
	mean /= float64(len(group))
	for _, i := range group {
		ds.Samples[i].Score -= mean
	}
}
