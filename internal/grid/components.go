package grid

// Components labels the 4-connected components of the nonzero pixels of g.
// It returns a label raster (same shape as g, stored in an int slice,
// 0 = background, components numbered from 1) and the component count.
//
// The ILT print-violation detector uses this to decide whether a printed
// resist image bridges two target patterns or drops one entirely.
func (g *Grid) Components() (labels []int, n int) {
	labels = make([]int, len(g.Data))
	// Iterative flood fill with an explicit stack to stay safe on large
	// rasters (224x224 and up).
	stack := make([]int, 0, 256)
	for start, v := range g.Data {
		if v == 0 || labels[start] != 0 {
			continue
		}
		n++
		labels[start] = n
		stack = append(stack[:0], start)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			x, y := i%g.W, i/g.W
			for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || ny < 0 || nx >= g.W || ny >= g.H {
					continue
				}
				j := ny*g.W + nx
				if g.Data[j] != 0 && labels[j] == 0 {
					labels[j] = n
					stack = append(stack, j)
				}
			}
		}
	}
	return labels, n
}
