package litho

// sigmoidAVXFMA computes dst[i] = 1/(1+exp((src[i]-b)*a)) four lanes at a
// time for i < n (n a multiple of 4) with math.Exp's FMA branch, stopping at
// the first vector with an argument outside [-708, 709]. It returns the
// number of elements finished. Implemented in sigmoid_amd64.s.
//
//go:noescape
func sigmoidAVXFMA(dst, src *float64, n int, a, b float64) int
