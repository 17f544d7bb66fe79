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

// HasFMA reports whether the host can execute 256-bit FMA3 instructions
// (CPUID FMA with OS-saved YMM state). The spectral kernels never fuse; the
// litho sigmoid kernel reads this to learn which of its variants the CPU
// can run.
func HasFMA() bool { return haveFMA }

// HasAVX512F reports whether the host can execute AVX-512F instructions
// (CPUID AVX512F with OS-saved opmask and ZMM state). The spectral kernels
// never use them; the GEMM engine reads this to pick its 4x16 register
// tile, so the probe that picks the tile is the one CPUFeatures lists.
func HasAVX512F() bool { return haveAVX512F }

// CPUFeatures lists the detected vector capabilities ("avx", "avx2",
// "fma", "avx512f") for bench records, so timing numbers are interpretable
// across hosts: the spectral kernels need AVX2, the litho sigmoid kernel
// FMA3 as well, and the GEMM engine runs its AVX-512 tile on "avx512f"
// hosts and its AVX tile on the others that list "avx".
func CPUFeatures() []string {
	var f []string
	if haveAVX {
		f = append(f, "avx")
	}
	if haveAVX2 {
		f = append(f, "avx2")
	}
	if haveFMA {
		f = append(f, "fma")
	}
	if haveAVX512F {
		f = append(f, "avx512f")
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
