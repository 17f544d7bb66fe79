package fft

// Vector-engine selection. The hot loops of the spectral engine — butterfly
// stages, pointwise complex multiplies, and the half-spectrum
// untangle/repack — have amd64 AVX forms (asm_amd64.s) that are
// bit-identical to the scalar Go reference on finite inputs: products use
// separate mul and add (no FMA), every element's accumulation order is
// unchanged, and only commutative additions are reordered. The engine is
// chosen by the CPU probe alone: the vector kernels run wherever the host
// can run them, and the scalar code is the only path on non-amd64 or
// pre-AVX2 hosts. The package's tests build scalar plans next to vector ones
// and compare them bit for bit; a 386 build of the tests exercises the
// scalar engine end to end.

// ASMEnabled reports whether the vector engine is in effect on this host
// (amd64 with AVX2 and OS-saved YMM state).
func ASMEnabled() bool { return haveFFTASM }

// CPUFeatures lists the detected vector capabilities ("avx", "avx2") for
// bench records, so timing numbers are interpretable across hosts.
func CPUFeatures() []string {
	var f []string
	if haveAVX {
		f = append(f, "avx")
	}
	if haveAVX2 {
		f = append(f, "avx2")
	}
	return f
}

// cmulInto computes dst[i] = a[i] * b[i] on the vector engine, peeling the
// odd tail bin to the scalar expression. Callers guarantee equal lengths.
func cmulInto(dst, a, b []complex128) {
	n := len(dst)
	if v := n &^ 1; v > 0 {
		cmulAVX(&dst[0], &a[0], &b[0], v)
	}
	if n&1 == 1 {
		dst[n-1] = a[n-1] * b[n-1]
	}
}

// cmulConjInto computes dst[i] = a[i] * conj(b[i]) on the vector engine,
// peeling the odd tail bin.
func cmulConjInto(dst, a, b []complex128) {
	n := len(dst)
	if v := n &^ 1; v > 0 {
		cmulConjAVX(&dst[0], &a[0], &b[0], v)
	}
	if n&1 == 1 {
		k := b[n-1]
		dst[n-1] = a[n-1] * complex(real(k), -imag(k))
	}
}

// accumConjInto computes acc[i] += a[i] * conj(b[i]) on the vector engine,
// peeling the odd tail bin.
func accumConjInto(acc, a, b []complex128) {
	n := len(acc)
	if v := n &^ 1; v > 0 {
		accumConjAVX(&acc[0], &a[0], &b[0], v)
	}
	if n&1 == 1 {
		k := b[n-1]
		acc[n-1] += a[n-1] * complex(real(k), -imag(k))
	}
}
