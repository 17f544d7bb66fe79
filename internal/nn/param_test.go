package nn

// newParam returns a trainable parameter with its gradient buffer already
// allocated, for tests that drive the optimizer by hand.
func newParam(name string, n int) *Param {
	p := newLazyParam(name, n)
	p.Grad = make([]float64, n)
	return p
}
