package layout

import (
	"fmt"

	"ldmo/internal/geom"
)

// Geometry of the synthetic standard-cell tile. Contacts are 65nm squares
// (the NanGate FreePDK45 contact size) on an asymmetric pitch chosen so the
// slot grid exercises all three of the paper's interaction bands:
//
//   - column pitch 130nm -> 65nm horizontal gaps: SP pairs (<= nmin = 80),
//     which a legal decomposition must separate;
//   - row pitch 160nm -> 95nm vertical gaps: VP pairs (80 < d <= 98 = nmax),
//     printable on one mask but with visible proximity distortion;
//   - diagonal neighbors sit at ~115nm and two-apart slots at >= 195nm: NP.
//
// Same-row runs of contacts therefore form the SP conflict components whose
// MSTs anchor decomposition generation, lone contacts above/below a run are
// the VP free factors, and isolated corners are NP factors.
const (
	// TileNM is the edge of the simulation window in nanometers.
	TileNM = 544
	// ContactNM is the contact edge length in nanometers.
	ContactNM = 65
	// SlotOriginNM is the origin of slot column/row 0.
	SlotOriginNM = 66
	// SlotPitchXNM is the column pitch in nanometers.
	SlotPitchXNM = 130
	// SlotPitchYNM is the row pitch in nanometers.
	SlotPitchYNM = 160
)

// slot places a contact at grid slot (c, r) with an optional nudge.
type slot struct {
	c, r   int
	dx, dy int
}

func slotRect(s slot) geom.Rect {
	x := SlotOriginNM + SlotPitchXNM*s.c + s.dx
	y := SlotOriginNM + SlotPitchYNM*s.r + s.dy
	return geom.RectWH(x, y, ContactNM, ContactNM)
}

func cellFromSlots(name string, slots []slot) Layout {
	l := Layout{
		Name:   name,
		Window: geom.RectWH(0, 0, TileNM, TileNM),
	}
	for _, s := range slots {
		l.Patterns = append(l.Patterns, slotRect(s))
	}
	return l
}

// cellDefs is the 13-cell synthetic library backing Table I, in ID order.
// The three cells the paper's Fig. 7 names — BUF_X1, NAND3_X2, AOI211_X1 —
// are among them. Pattern counts and decomposition-candidate richness grow
// roughly with the ID, mirroring the difficulty spread of the paper's suite.
var cellDefs = []struct {
	name  string
	slots []slot
}{
	{"BUF_X1", []slot{{c: 0, r: 1}, {c: 1, r: 1}, {c: 2, r: 0}, {c: 2, r: 2}}},
	{"INV_X1", []slot{{c: 0, r: 0}, {c: 1, r: 0}, {c: 1, r: 1}}},
	{"NAND2_X1", []slot{{c: 0, r: 0}, {c: 1, r: 0}, {c: 2, r: 0}, {c: 0, r: 1}, {c: 1, r: 1}}},
	{"NOR2_X1", []slot{{c: 0, r: 0}, {c: 0, r: 1}, {c: 0, r: 2}, {c: 2, r: 0}, {c: 2, r: 1}}},
	{"OAI21_X1", []slot{{c: 0, r: 0}, {c: 1, r: 0}, {c: 0, r: 1}, {c: 2, r: 1}, {c: 1, r: 2}, {c: 2, r: 2}}},
	{"NAND3_X2", []slot{{c: 0, r: 0}, {c: 1, r: 0}, {c: 2, r: 0}, {c: 1, r: 1}, {c: 0, r: 2}, {c: 1, r: 2}, {c: 2, r: 2}}},
	{"AOI21_X1", []slot{{c: 0, r: 0}, {c: 1, r: 0}, {c: 0, r: 2}, {c: 1, r: 2}, {c: 2, r: 1}, {c: 0, r: 1}}},
	{"AOI211_X1", []slot{{c: 0, r: 0}, {c: 1, r: 0}, {c: 2, r: 0}, {c: 0, r: 1}, {c: 2, r: 1}, {c: 0, r: 2}, {c: 1, r: 2}, {c: 2, r: 2}}},
	{"OAI211_X1", []slot{{c: 0, r: 0}, {c: 1, r: 0}, {c: 2, r: 0}, {c: 1, r: 1}, {c: 2, r: 1}, {c: 0, r: 2}, {c: 1, r: 2}, {c: 2, r: 2}}},
	{"AOI22_X1", []slot{{c: 0, r: 0}, {c: 1, r: 0}, {c: 2, r: 0}, {c: 0, r: 1}, {c: 1, r: 1}, {c: 2, r: 1}, {c: 0, r: 2}, {c: 1, r: 2}, {c: 2, r: 2}}},
	{"NOR3_X1", []slot{{c: 0, r: 0}, {c: 0, r: 1}, {c: 0, r: 2}, {c: 1, r: 1}, {c: 2, r: 0}, {c: 2, r: 1}, {c: 2, r: 2}}},
	{"OAI22_X1", []slot{{c: 0, r: 0}, {c: 1, r: 0}, {c: 2, r: 0}, {c: 0, r: 1}, {c: 1, r: 1}, {c: 0, r: 2}, {c: 1, r: 2}, {c: 2, r: 2}}},
	{"DFF_X1", []slot{{c: 0, r: 0}, {c: 1, r: 0}, {c: 2, r: 0}, {c: 0, r: 1}, {c: 2, r: 1}, {c: 0, r: 2}, {c: 1, r: 2}, {c: 2, r: 2, dx: 20}, {c: 1, r: 1, dx: 20}}},
}

// Cell returns the named library cell, or an error listing the known names.
func Cell(name string) (Layout, error) {
	for _, def := range cellDefs {
		if def.name == name {
			return cellFromSlots(def.name, def.slots), nil
		}
	}
	return Layout{}, fmt.Errorf("layout: unknown cell %q (known: %v)", name, CellNames())
}

// Cells returns the full 13-cell library in Table I order (IDs 1-13).
func Cells() []Layout {
	out := make([]Layout, len(cellDefs))
	for i, def := range cellDefs {
		out[i] = cellFromSlots(def.name, def.slots)
	}
	return out
}

// CellNames returns the library cell names in Table I order.
func CellNames() []string {
	out := make([]string, len(cellDefs))
	for i, def := range cellDefs {
		out[i] = def.name
	}
	return out
}
