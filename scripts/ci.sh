#!/bin/sh
# CI gate: clean-tree guard, vet, build, full test suite, the race detector
# over the packages with concurrent hot paths (worker pool, FFT scratch
# sharing, the mask-lane ILT session, candidate fan-out, predictor lanes
# reading one shared frozen weight set and the pooled GEMM scratch), and
# short fuzz smokes on the GDS and CSV readers, the artifact envelope and the
# serve job-spec decode and content hash so hostile-input regressions surface
# before a long fuzz campaign would find them.
set -eux

cd "$(dirname "$0")/.."

# Generated files, gofmt drift, or test litter in the tree fail fast.
git diff --exit-code

go vet ./...
go build ./...
go test -timeout 300s -shuffle=on ./...
go test -timeout 600s -race ./internal/ilt ./internal/litho ./internal/fft ./internal/core ./internal/par ./internal/sampling ./internal/runx ./internal/faultinject ./internal/artifact ./internal/tensor ./internal/nn ./internal/model ./internal/serve ./internal/factory
go test -run='^$' -fuzz='^FuzzReadGDS$' -fuzztime=10s ./internal/gds
go test -run='^$' -fuzz='^FuzzReadCSV$' -fuzztime=10s ./internal/layout
go test -run='^$' -fuzz='^FuzzUnseal$' -fuzztime=10s ./internal/artifact
go test -run='^$' -fuzz='^FuzzJobSpec$' -fuzztime=10s ./internal/serve

# Compute-engine gates: alloc-regression tests on the ILT and NN hot paths,
# and 100-iteration smokes of the FFT and GEMM benchmarks, which include the
# A/B comparisons against the reference engines the tests keep as oracles
# (full-complex FFT, naive GEMM).
go test -timeout 120s -run='ZeroAlloc|SteadyStateAllocs|HotPathZeroAlloc' ./internal/fft ./internal/litho ./internal/ilt ./internal/nn ./internal/tensor ./internal/par ./internal/model
go test -run='^$' -bench='^BenchmarkFFT' -benchtime=100x ./internal/fft
go test -run='^$' -bench='^BenchmarkGEMM' -benchtime=100x ./internal/tensor

# Vector-kernel gates. go vet's asmdecl pass cross-checks every assembly
# function against its Go declaration (frame size, argument offsets); run it
# explicitly over the packages carrying the .s files (FFT, sigmoid, GEMM) so
# the gate is visible even if the repo-wide vet above ever narrows. The FFT
# engine-equivalence, sigmoid and GEMM fuzz seeds get a smoke run; FuzzGEMM
# holds the register-tiled GEMM kernel, masked column tail included, to the
# naive loops bitwise. The sigmoid kernel mirrors math.Exp's FMA branch;
# GODEBUG=cpu.fma=off moves math.Exp to its SSE branch, and the second litho
# run checks that the init probe then falls back to the scalar loop. Then the
# spectral and NN suites and their consumers run as a 386 build, which
# compiles the pure-Go FFT, GEMM and sigmoid engines — the only ones on
# non-amd64 hosts — so that fallback cannot rot; the nn and model suites hold
# it to the same predictor score golden as the vector engine. The artifact
# reader rides along: 32-bit ints are where a length claim overflows a slice.
go vet ./internal/fft
go vet ./internal/litho
go vet ./internal/tensor
go test -run='^$' -fuzz='^FuzzVecEquivalence$' -fuzztime=10s ./internal/fft
go test -run='^$' -fuzz='^FuzzSigmoid$' -fuzztime=10s ./internal/litho
go test -run='^$' -fuzz='^FuzzGEMM$' -fuzztime=10s ./internal/tensor
GODEBUG=cpu.fma=off go test -timeout 300s ./internal/litho
GOARCH=386 go test -timeout 300s ./internal/fft ./internal/tensor ./internal/nn ./internal/model ./internal/litho ./internal/ilt ./internal/core ./internal/artifact
tmpout="$(mktemp -d)"
trap 'rm -rf "$tmpout"' EXIT

# Pipeline gates: the bitwise serial==pipelined golden, the coalescer, and the
# mid-pipeline cancellation/fault-injection drains already run under -race via
# ./internal/core ./internal/par above, and the alloc line asserts the
# coalescing queue and shared prediction buffers add zero steady-state
# allocations; here the quick stage-at-a-time vs pipelined A/B bench
# cross-checks identity end to end and records the coalescing factor.
go run ./cmd/ldmo-bench -exp pipebench -fast -deadline 120s -out "$tmpout"

# Serving gates: the httptest endpoint smoke (submit -> poll -> result, 429
# shed, dedupe) and both crash drills — including a real SIGKILL'd daemon —
# run under -race via ./internal/serve above; the quick service bench drives
# a multi-client overload burst and records latency percentiles, throughput,
# and shed rate to BENCH_serve.json.
go run ./cmd/ldmo-bench -exp servebench -fast -deadline 120s -out "$tmpout"

# Factory gates: lease claiming, reclaim, hung-worker kill, poison quarantine,
# and both re-exec'd chaos drills (SIGKILL mid-build converging byte-identical
# to the serial reference) run under -race via ./internal/factory above; the
# quick bench repeats the chaos drill in-process, measures scaling, reclaim and
# resume cost, and fails if the chaos manifest diverges from the serial one.
go run ./cmd/ldmo-bench -exp factorybench -fast -deadline 180s -out "$tmpout"

# Warm-start gates. The zero-alloc line proves warm inference stays
# allocation-free in steady state (the WarmMasksInto gate also runs inside
# the SteadyStateAllocs sweep above), and the quick warmbench smoke trains a
# small surrogate and compares cold and warm ILT end to end, writing
# BENCH_warmstart.json outside the tree.
go test -timeout 120s -run='WarmMasksIntoSteadyStateAllocs' ./internal/model
go run ./cmd/ldmo-bench -exp warmbench -fast -deadline 600s -out "$tmpout"
