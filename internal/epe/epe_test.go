package epe

import (
	"math"
	"testing"

	"ldmo/internal/geom"
	"ldmo/internal/grid"
	"ldmo/internal/litho"
)

func TestGenerateCheckpointsContact(t *testing.T) {
	// A 70nm contact with 40nm spacing gets one site per edge (midpoints).
	cps := GenerateCheckpoints([]geom.Rect{geom.RectWH(100, 100, 70, 70)}, 40)
	if len(cps) != 4 {
		t.Fatalf("checkpoints = %d, want 4 (one midpoint per edge)", len(cps))
	}
	// All on the rect boundary, normals outward.
	r := geom.RectWH(100, 100, 70, 70)
	for _, cp := range cps {
		onEdge := cp.Pos.X == r.X0 || cp.Pos.X == r.X1 || cp.Pos.Y == r.Y0 || cp.Pos.Y == r.Y1
		if !onEdge {
			t.Fatalf("checkpoint %v not on edge", cp.Pos)
		}
		if cp.Pattern != 0 {
			t.Fatalf("pattern index = %d", cp.Pattern)
		}
		n := cp.Normal
		if (n.X == 0) == (n.Y == 0) || abs(n.X)+abs(n.Y) != 1 {
			t.Fatalf("bad normal %v", n)
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestGenerateCheckpointsLongBar(t *testing.T) {
	// A 200nm bar at 40nm spacing gets a comb along its long edges.
	cps := GenerateCheckpoints([]geom.Rect{geom.RectWH(0, 0, 200, 40)}, 40)
	long := 0
	for _, cp := range cps {
		if cp.Normal.Y != 0 {
			long++
		}
	}
	if long < 8 {
		t.Fatalf("long-edge checkpoints = %d, want >= 8", long)
	}
}

func TestEdgeStopsCentered(t *testing.T) {
	stops := edgeStops(0, 70, 40)
	if len(stops) != 1 || stops[0] != 35 {
		t.Fatalf("stops = %v", stops)
	}
	stops = edgeStops(0, 120, 40)
	if len(stops) != 4 {
		t.Fatalf("stops = %v", stops)
	}
	for i := 1; i < len(stops); i++ {
		if stops[i] <= stops[i-1] {
			t.Fatalf("stops not increasing: %v", stops)
		}
	}
}

// syntheticEdge builds a resist image whose printed region is x <= xedge
// (sharp sigmoid in x), on a 128x128 raster at 4nm/px.
func syntheticEdge(xedge float64) *grid.Grid {
	g := grid.New(128, 128, 4, geom.Point{})
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			xc := float64(x)*4 + 2
			g.Data[y*g.W+x] = 1 / (1 + math.Exp((xc-xedge)/2))
		}
	}
	return g
}

func TestMeasureKnownOffset(t *testing.T) {
	m := NewMeter()
	for _, off := range []float64{-8, -3, 0, 3, 8, 14} {
		img := syntheticEdge(200 + off)
		cps := []Checkpoint{{Pos: geom.Point{X: 200, Y: 256}, Normal: geom.Point{X: 1}}}
		res := m.Measure(img, cps)
		if math.Abs(res.EPEs[0]-off) > 1.0 {
			t.Errorf("offset %g measured as %g", off, res.EPEs[0])
		}
		wantViol := 0
		if math.Abs(off) > m.Threshold {
			wantViol = 1
		}
		if res.Violations != wantViol {
			t.Errorf("offset %g: violations = %d, want %d", off, res.Violations, wantViol)
		}
	}
}

func TestMeasureMissingPattern(t *testing.T) {
	m := NewMeter()
	img := grid.New(64, 64, 4, geom.Point{}) // nothing printed
	cps := GenerateCheckpoints([]geom.Rect{geom.RectWH(100, 100, 70, 70)}, 40)
	res := m.Measure(img, cps)
	if res.Violations != len(cps) {
		t.Fatalf("violations = %d, want all %d", res.Violations, len(cps))
	}
	for _, e := range res.EPEs {
		if e != -m.SearchRange {
			t.Fatalf("missing-pattern EPE = %g, want %g", e, -m.SearchRange)
		}
	}
}

func TestMeasureOverprintBeyondRange(t *testing.T) {
	m := NewMeter()
	img := grid.New(64, 64, 4, geom.Point{})
	img.Fill(1) // everything printed
	cps := []Checkpoint{{Pos: geom.Point{X: 128, Y: 128}, Normal: geom.Point{X: 1}}}
	res := m.Measure(img, cps)
	if res.EPEs[0] != m.SearchRange {
		t.Fatalf("overprint EPE = %g, want %g", res.EPEs[0], m.SearchRange)
	}
}

func TestMeasureStats(t *testing.T) {
	m := NewMeter()
	img := syntheticEdge(200)
	cps := []Checkpoint{
		{Pos: geom.Point{X: 200, Y: 256}, Normal: geom.Point{X: 1}},
		{Pos: geom.Point{X: 188, Y: 256}, Normal: geom.Point{X: 1}}, // sees +12nm
	}
	res := m.Measure(img, cps)
	if res.Violations != 1 {
		t.Fatalf("violations = %d", res.Violations)
	}
	if res.MaxAbs < 10 || res.MaxAbs > 14 {
		t.Fatalf("maxabs = %g", res.MaxAbs)
	}
	if res.MeanAbs <= 0 || res.MeanAbs > res.MaxAbs {
		t.Fatalf("meanabs = %g", res.MeanAbs)
	}
}

func TestEndToEndEPEOnSimulatedContact(t *testing.T) {
	// A well-printed isolated contact must have no EPE violations after
	// simulation with the calibrated default process.
	p := litho.DefaultParams()
	s, err := litho.NewSimulator(128, 128, p)
	if err != nil {
		t.Fatal(err)
	}
	target := geom.RectWH(223, 223, 65, 65)
	mask := grid.New(128, 128, p.Resolution, geom.Point{})
	mask.FillRect(target, 1)
	printed := s.PrintedImage(mask)
	m := NewMeter()
	res := m.Measure(printed, GenerateCheckpoints([]geom.Rect{target}, 40))
	if res.Violations != 0 {
		t.Fatalf("isolated contact has %d EPE violations (max %giu nm)", res.Violations, res.MaxAbs)
	}
}

func TestCheckPrintViolationsClean(t *testing.T) {
	g := grid.New(64, 64, 4, geom.Point{})
	targets := []geom.Rect{geom.RectWH(20, 20, 60, 60), geom.RectWH(150, 150, 60, 60)}
	for _, r := range targets {
		g.FillRect(r, 1)
	}
	v := CheckPrintViolations(g, targets, 0.5)
	if v.Any() {
		t.Fatalf("clean print flagged: %+v", v)
	}
}

func TestCheckPrintViolationsBridge(t *testing.T) {
	g := grid.New(64, 64, 4, geom.Point{})
	targets := []geom.Rect{geom.RectWH(20, 20, 60, 60), geom.RectWH(120, 20, 60, 60)}
	g.FillRect(geom.RectWH(20, 20, 160, 60), 1) // one blob over both
	v := CheckPrintViolations(g, targets, 0.5)
	if v.Bridges != 1 || v.Missing != 0 {
		t.Fatalf("bridge not detected: %+v", v)
	}
	if v.Total() != 1 || !v.Any() {
		t.Fatalf("totals wrong: %+v", v)
	}
}

func TestCheckPrintViolationsMissing(t *testing.T) {
	g := grid.New(64, 64, 4, geom.Point{})
	targets := []geom.Rect{geom.RectWH(20, 20, 60, 60), geom.RectWH(150, 150, 60, 60)}
	g.FillRect(targets[0], 1)
	v := CheckPrintViolations(g, targets, 0.5)
	if v.Missing != 1 || v.Bridges != 0 {
		t.Fatalf("missing not detected: %+v", v)
	}
}

func TestCheckPrintViolationsExtra(t *testing.T) {
	g := grid.New(64, 64, 4, geom.Point{})
	targets := []geom.Rect{geom.RectWH(20, 20, 60, 60)}
	g.FillRect(targets[0], 1)
	g.FillRect(geom.RectWH(180, 180, 40, 40), 1) // spurious blob
	v := CheckPrintViolations(g, targets, 0.5)
	if v.Extra != 1 {
		t.Fatalf("extra not detected: %+v", v)
	}
}

func TestCheckPrintViolationsAllMissing(t *testing.T) {
	g := grid.New(32, 32, 4, geom.Point{})
	targets := []geom.Rect{geom.RectWH(20, 20, 60, 60), geom.RectWH(80, 20, 30, 30)}
	v := CheckPrintViolations(g, targets, 0.5)
	if v.Missing != 2 {
		t.Fatalf("blank image: %+v", v)
	}
}
