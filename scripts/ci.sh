#!/bin/sh
# CI gate: clean-tree guard, vet, build, a reachability guard over the
# internal packages, full test suite, the race detector over the packages
# with concurrent hot paths (worker pool, FFT scratch sharing, the mask-lane
# ILT session, candidate fan-out, predictor lanes reading one shared frozen
# weight set and the pooled GEMM scratch, the slots' calls on one shared
# predictor), and short fuzz smokes on the GDS
# and CSV readers, the artifact envelope, the serve job-spec decode and
# content hash, the serve job store's recovery of spec and state payloads
# inside sealed envelopes, and the predictor file, the training checkpoint
# and the dataset shard inside theirs, so hostile-input regressions surface
# before a long fuzz campaign would find them. The repository benchmark
# module under bench/ imports the flow, ILT, litho, FFT, serve, model and
# sampling packages, so it is vetted and tested here too: an API change that
# would break bench/run.sh fails CI instead.
set -eux

cd "$(dirname "$0")/.."
tmpout="$(mktemp -d)"
trap 'rm -rf "$tmpout"' EXIT

# Generated files, gofmt drift, or test litter in the tree fail fast.
git diff --exit-code

go vet ./...
go build ./...

# Reachability guard: every internal package must be imported, directly or
# not, by a command or by package ldmo. A package only an example or a test
# reaches ships in no binary; delete it or wire it in. grep prints the
# unreached packages.
go list ./internal/... > "$tmpout/internal"
go list -deps ./cmd/... . > "$tmpout/reached"
if grep -vxF -f "$tmpout/reached" "$tmpout/internal"; then
	echo "ci: the internal packages above are unreachable from ./cmd/... and package ldmo" >&2
	exit 1
fi

go test -timeout 300s -shuffle=on ./...
(cd bench && go vet ./... && go test ./...)

go test -timeout 600s -race ./internal/ilt ./internal/litho ./internal/fft ./internal/core ./internal/par ./internal/sampling ./internal/runx ./internal/faultinject ./internal/artifact ./internal/tensor ./internal/nn ./internal/model ./internal/serve
# The slot scheduler's tests depend on goroutine timing: its bitwise
# pipeline tests, a free slot admitting a job past a slow one, a forced
# retry while the other slots keep scoring, the running count, and
# concurrent calls on one predictor, whose lock keeps them from
# overlapping. One race run can pass on lucky timing, so they run ten
# times.
go test -timeout 600s -race -count=10 -run='Pipeline|RunStream|FreeSlot|Overlap|RunningCount|PredictBatchConcurrentMatchesSerial' ./internal/core ./internal/serve ./internal/model
go test -run='^$' -fuzz='^FuzzReadGDS$' -fuzztime=10s ./internal/gds
go test -run='^$' -fuzz='^FuzzReadCSV$' -fuzztime=10s ./internal/layout
go test -run='^$' -fuzz='^FuzzUnseal$' -fuzztime=10s ./internal/artifact
go test -run='^$' -fuzz='^FuzzJobSpec$' -fuzztime=10s ./internal/serve
# Each FuzzStoreRecover input writes, fsyncs and recovers a job store (about
# 2 ms), so the default minimizer spent the whole smoke on its first
# interesting inputs (10 to 15 executions); capped at 20 runs per input the
# smoke makes ~2,500.
go test -run='^$' -fuzz='^FuzzStoreRecover$' -fuzztime=10s -fuzzminimizetime=20x ./internal/serve
# The predictor seeds are 37 KB and 531 KB Write payloads. Left at its
# default, the minimizer spends the smoke deleting their bytes one at a
# time (4 executions in 10 s); capped at 20 runs per input, the smoke makes
# ~75,000. The training checkpoint seeds are 96 KB, and each checkpoint and
# shard input is sealed into a file and read back: at the default those two
# smokes made 6 executions in 15 s and 4 in 10 s; capped, ~6,500 to 8,600
# and ~15,000 to 23,000 in 10 s.
go test -run='^$' -fuzz='^FuzzPredictorRead$' -fuzztime=10s -fuzzminimizetime=20x ./internal/model
go test -run='^$' -fuzz='^FuzzTrainCheckpoint$' -fuzztime=10s -fuzzminimizetime=20x ./internal/model
go test -run='^$' -fuzz='^FuzzReadShard$' -fuzztime=10s -fuzzminimizetime=20x ./internal/sampling

# Compute-engine gates: alloc-regression tests on the ILT and NN hot paths,
# the frozen lanes' memory gate (TestResNet18LaneUnder15MB: a new 224²
# ResNet-18 lane adds at most 15 MB of live heap with its first forward),
# and 100-iteration smokes of the FFT and GEMM benchmarks, which include the
# A/B comparisons against the reference engines the tests keep as oracles
# (full-complex FFT, naive GEMM). The frozen lanes' activation arena is
# also held, in the full suite and under -race above, by the arena tests:
# TestFusedConvReLUMatchesUnfused (the ReLU fused into a conv's output pass
# against conv then frozen ReLU, on planted ±0, NaN, ±Inf and subnormals),
# TestFrozenBatchMatchesSingles (the in-place batch-1 GEMM against the
# batch permute pass), TestFrozenForwardLeavesInput and
# TestFrozenLanesForwardConcurrently. BenchmarkAerialCell, one Aerial plus
# one AerialBackward on the 4 nm and 8 nm cell rasters, is the benchmark
# that sizes a row- or column-pass FFT change and a change to the per-pixel
# kernels of Aerial and AerialBackward, and BenchmarkPredictR18, two
# 224² ResNet-18 candidates on two lanes, the one that sizes a GEMM or
# frozen-layer change; their smokes keep them running.
go test -timeout 120s -run='ZeroAlloc|SteadyStateAllocs|HotPathZeroAlloc|Under15MB' ./internal/fft ./internal/litho ./internal/ilt ./internal/nn ./internal/tensor ./internal/model
go test -run='^$' -bench='^BenchmarkFFT' -benchtime=100x ./internal/fft
go test -run='^$' -bench='^BenchmarkAerialCell$' -benchtime=20x ./internal/litho
go test -run='^$' -bench='^BenchmarkGEMM' -benchtime=100x ./internal/tensor
go test -run='^$' -bench='^BenchmarkPredictR18$' -benchtime=2x ./internal/model

# Vector-kernel gates. go vet's asmdecl pass cross-checks every assembly
# function against its Go declaration (frame size, argument offsets); run it
# explicitly over the packages carrying the .s files (FFT, litho's sigmoid
# and per-pixel kernels, GEMM) so the gate is visible even if the repo-wide
# vet above ever narrows. The FFT row core (fftFirstSweepAVX's bit-reversed
# reads and radix-2x2 first sweep, fftStage2AVX's two stages per sweep) is
# held to the scalar transformWith by TestVecTransformBitIdentical and
# TestVecRFFTRowBitIdentical on rows planted with signed zeros and
# subnormals, and on zero-only rows, in the full suite above; the column kernels fftRows2AVX/fftRows1AVX, Nyquist
# column included, by TestColumnPassMatchesStripOracle. The GEMM engine has
# three strip kernels, picked by the CPU probe: the AVX-512 4x16 tile
# kern4x16AVX512 (opmask column tail), the AVX 4x8 tile kern4x8AVX (masked
# 1..3-column tail) and the Go kern4. On an AVX-512 host the engine never
# reaches the AVX tile, so TestStripKernelsBitIdentical runs every kernel
# the host has on the same panels planted with signed zeros, subnormals and
# ±1e300, bitwise and with no write past the last column, and
# TestBlockedMatMulMatchesNaive, TestConvPackedMatchesNaive (the frozen
# conv's entry, which fills each B panel straight from the NCHW input, held
# to Im2ColBatch+MatMul over strides, padding, kernel sizes, batches and
# panel edges) and FuzzGEMM switch the engine through each of them. The
# per-pixel kernels of the ILT iteration (accumSquaresAVX and weightFieldAVX
# around the aerial image, resistBackwardAVX, composeDoubleAVX with its
# clamp bools, composeBackwardAVX, finiteAVX and maskStepAVX) are held to
# their Go loops by TestPixelKernelsMatchScalar over every length 0-11,
# unaligned starts and the cell rasters with ±0, subnormals, ±1e300, ±Inf
# and NaN planted, by TestFiniteMatchesFiniteSlice and by
# TestPixelWrappersPanicOnShortSlice, in the full suite above. The FFT
# engine-equivalence, sigmoid, per-pixel and GEMM fuzz seeds get a smoke
# run; FuzzGEMM holds every GEMM entry on every engine to the naive loops
# bitwise, and FuzzPixelKernels every per-pixel kernel to its loop. The
# sigmoid kernel mirrors math.Exp's FMA branch; GODEBUG=cpu.fma=off moves
# math.Exp to its SSE branch, and the second litho run checks that the init
# probe then falls back to the scalar loop. Then the spectral and NN suites
# and their consumers run as a 386 build, which compiles the pure-Go FFT,
# GEMM, sigmoid and per-pixel loops — the only ones on non-amd64 hosts — so that
# fallback cannot rot; the nn and model suites hold it to the same
# predictor score golden as the vector engines. The artifact
# reader rides along: 32-bit ints are where a length claim overflows a slice.
# TestFlowMaskBitsGolden keys the whole flow's mask bits by engine; the
# default suite runs the FMA key, the GODEBUG line the SSE-exp key and the
# 386 leg the pure-Go key.
go vet ./internal/fft
go vet ./internal/litho
go vet ./internal/tensor
go test -run='^$' -fuzz='^FuzzVecEquivalence$' -fuzztime=10s ./internal/fft
go test -run='^$' -fuzz='^FuzzSigmoid$' -fuzztime=10s ./internal/litho
go test -run='^$' -fuzz='^FuzzPixelKernels$' -fuzztime=10s ./internal/litho
go test -run='^$' -fuzz='^FuzzGEMM$' -fuzztime=10s ./internal/tensor
GODEBUG=cpu.fma=off go test -timeout 300s ./internal/litho
GODEBUG=cpu.fma=off go test -timeout 300s -run FlowMaskBitsGolden ./internal/core
GOARCH=386 go test -timeout 300s ./internal/fft ./internal/tensor ./internal/nn ./internal/model ./internal/litho ./internal/ilt ./internal/core ./internal/artifact
