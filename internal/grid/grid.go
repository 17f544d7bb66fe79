// Package grid implements the dense raster substrate of the LDMO framework.
//
// Every image-domain object in the pipeline — mask, aerial image, resist
// image, decomposition picture fed to the CNN — is a Grid: a dense row-major
// float64 raster with an attached physical resolution (nanometers per pixel)
// and origin, so layout-space geometry (package geom) can be rasterized onto
// it and raster-space measurements can be converted back to nanometers.
package grid

import (
	"fmt"
	"math"

	"ldmo/internal/geom"
)

// Grid is a dense W x H float64 raster. Data is row-major: pixel (x, y) is
// Data[y*W+x]. Res is the physical size of one pixel in nanometers and
// Origin is the layout-space coordinate of the lower-left corner of pixel
// (0, 0). The zero Grid is empty and unusable; construct with New.
type Grid struct {
	W, H   int
	Res    int // nanometers per pixel edge
	Origin geom.Point
	Data   []float64
}

// New returns a zero-filled w x h grid with resolution res nm/pixel and the
// given origin. It panics on non-positive dimensions or resolution, since a
// malformed raster indicates a programming error rather than bad input data.
func New(w, h, res int, origin geom.Point) *Grid {
	if w <= 0 || h <= 0 || res <= 0 {
		panic(fmt.Sprintf("grid.New: invalid dims %dx%d res %d", w, h, res))
	}
	return &Grid{W: w, H: h, Res: res, Origin: origin, Data: make([]float64, w*h)}
}

// NewLike returns a zero-filled grid with the same shape, resolution and
// origin as g.
func NewLike(g *Grid) *Grid { return New(g.W, g.H, g.Res, g.Origin) }

// Clone returns a deep copy of g.
func (g *Grid) Clone() *Grid {
	out := NewLike(g)
	copy(out.Data, g.Data)
	return out
}

// At returns the value at pixel (x, y). Out-of-bounds reads return 0, which
// matches the physical picture of an empty field beyond the simulated window.
func (g *Grid) At(x, y int) float64 {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return 0
	}
	return g.Data[y*g.W+x]
}

// Set writes v at pixel (x, y); out-of-bounds writes are dropped.
func (g *Grid) Set(x, y int, v float64) {
	if x < 0 || y < 0 || x >= g.W || y >= g.H {
		return
	}
	g.Data[y*g.W+x] = v
}

// Fill sets every pixel to v.
func (g *Grid) Fill(v float64) {
	for i := range g.Data {
		g.Data[i] = v
	}
}

// PixelRect converts a layout-space rectangle (nanometers) to the pixel index
// range it covers on g. A pixel is covered when its center lies inside the
// rectangle, which keeps feature widths consistent under translation.
// The returned range is inclusive and clipped to the grid; ok is false when
// the rectangle misses the grid entirely.
func (g *Grid) PixelRect(r geom.Rect) (x0, y0, x1, y1 int, ok bool) {
	// Pixel (x, y) center in layout space: Origin + (x+0.5)*Res.
	fx0 := float64(r.X0-g.Origin.X)/float64(g.Res) - 0.5
	fy0 := float64(r.Y0-g.Origin.Y)/float64(g.Res) - 0.5
	fx1 := float64(r.X1-g.Origin.X)/float64(g.Res) - 0.5
	fy1 := float64(r.Y1-g.Origin.Y)/float64(g.Res) - 0.5
	x0 = int(math.Ceil(fx0))
	y0 = int(math.Ceil(fy0))
	x1 = int(math.Floor(fx1))
	y1 = int(math.Floor(fy1))
	x0 = max(x0, 0)
	y0 = max(y0, 0)
	x1 = min(x1, g.W-1)
	y1 = min(y1, g.H-1)
	if x0 > x1 || y0 > y1 {
		return 0, 0, 0, 0, false
	}
	return x0, y0, x1, y1, true
}

// FillRect rasterizes the layout-space rectangle r onto g with value v.
func (g *Grid) FillRect(r geom.Rect, v float64) {
	x0, y0, x1, y1, ok := g.PixelRect(r)
	if !ok {
		return
	}
	for y := y0; y <= y1; y++ {
		row := g.Data[y*g.W : y*g.W+g.W]
		for x := x0; x <= x1; x++ {
			row[x] = v
		}
	}
}

// Threshold returns a binary copy of g: 1 where the value is >= th, else 0.
func (g *Grid) Threshold(th float64) *Grid {
	out := NewLike(g)
	for i, v := range g.Data {
		if v >= th {
			out.Data[i] = 1
		}
	}
	return out
}

// Sum returns the sum of all pixel values.
func (g *Grid) Sum() float64 {
	s := 0.0
	for _, v := range g.Data {
		s += v
	}
	return s
}

// MinMax returns the smallest and largest pixel values.
func (g *Grid) MinMax() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range g.Data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return lo, hi
}

// L2Diff returns the squared L2 distance between g and h, the paper's
// Definition 2 printability metric. It panics on shape mismatch.
func (g *Grid) L2Diff(h *Grid) float64 {
	g.mustMatch(h)
	s := 0.0
	for i := range g.Data {
		d := g.Data[i] - h.Data[i]
		s += d * d
	}
	return s
}

func (g *Grid) mustMatch(h *Grid) {
	if g.W != h.W || g.H != h.H {
		panic(fmt.Sprintf("grid: shape mismatch %dx%d vs %dx%d", g.W, g.H, h.W, h.H))
	}
}

// Resample returns g resampled to w x h by box averaging (downsampling) or
// nearest-neighbor replication (upsampling). Resolution metadata is scaled by
// the width ratio; the caller is responsible for keeping aspect ratios sane.
func (g *Grid) Resample(w, h int) *Grid {
	out := New(w, h, max(1, g.Res*g.W/w), g.Origin)
	sx := float64(g.W) / float64(w)
	sy := float64(g.H) / float64(h)
	for y := 0; y < h; y++ {
		gy0 := int(float64(y) * sy)
		gy1 := int(float64(y+1) * sy)
		if gy1 <= gy0 {
			gy1 = gy0 + 1
		}
		gy1 = min(gy1, g.H)
		for x := 0; x < w; x++ {
			gx0 := int(float64(x) * sx)
			gx1 := int(float64(x+1) * sx)
			if gx1 <= gx0 {
				gx1 = gx0 + 1
			}
			gx1 = min(gx1, g.W)
			s := 0.0
			for yy := gy0; yy < gy1; yy++ {
				for xx := gx0; xx < gx1; xx++ {
					s += g.Data[yy*g.W+xx]
				}
			}
			out.Data[y*w+x] = s / float64((gy1-gy0)*(gx1-gx0))
		}
	}
	return out
}

// Rot90 returns g rotated by a quarter turn (clockwise in the y-up raster
// convention: pixel (x, y) maps to (y, W-1-x)). Resolution carries over and
// the origin is kept — rotations are raster-space operations used for
// training-set augmentation, where physical placement is irrelevant.
func (g *Grid) Rot90() *Grid {
	out := New(g.H, g.W, g.Res, g.Origin)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			out.Data[(g.W-1-x)*out.W+y] = g.Data[y*g.W+x]
		}
	}
	return out
}

// FlipH returns g mirrored about the vertical axis.
func (g *Grid) FlipH() *Grid {
	out := NewLike(g)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			out.Data[y*g.W+x] = g.Data[y*g.W+(g.W-1-x)]
		}
	}
	return out
}

// SampleNM returns the bilinearly interpolated value of g at the layout-space
// point (x, y) in nanometers. Pixel (i, j) is treated as a sample at its
// center, Origin + (i+0.5, j+0.5)*Res; points beyond the outermost pixel
// centers clamp to the border sample. The EPE meter uses this to locate the
// printed contour with sub-pixel accuracy.
func (g *Grid) SampleNM(x, y float64) float64 {
	fx := (x-float64(g.Origin.X))/float64(g.Res) - 0.5
	fy := (y-float64(g.Origin.Y))/float64(g.Res) - 0.5
	x0 := int(math.Floor(fx))
	y0 := int(math.Floor(fy))
	tx := fx - float64(x0)
	ty := fy - float64(y0)
	clamp := func(v, hi int) int {
		if v < 0 {
			return 0
		}
		if v > hi {
			return hi
		}
		return v
	}
	xa, xb := clamp(x0, g.W-1), clamp(x0+1, g.W-1)
	ya, yb := clamp(y0, g.H-1), clamp(y0+1, g.H-1)
	v00 := g.Data[ya*g.W+xa]
	v10 := g.Data[ya*g.W+xb]
	v01 := g.Data[yb*g.W+xa]
	v11 := g.Data[yb*g.W+xb]
	return v00*(1-tx)*(1-ty) + v10*tx*(1-ty) + v01*(1-tx)*ty + v11*tx*ty
}

// Equal reports whether g and h have identical shape and pixel data within
// tolerance eps.
func (g *Grid) Equal(h *Grid, eps float64) bool {
	if g.W != h.W || g.H != h.H {
		return false
	}
	for i := range g.Data {
		if math.Abs(g.Data[i]-h.Data[i]) > eps {
			return false
		}
	}
	return true
}
