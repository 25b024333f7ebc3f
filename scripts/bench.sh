#!/bin/sh
# Benchmark runner: measures the specialized element kernels and the stream
# optimizer, archiving the raw results.
#
#   scripts/bench.sh [kernels-output.json] [streamopt-output.json] \
#                    [binstream-output.json] [dispatch-output.json] \
#                    [server-output.json] [recovery-output.json]
#
# Step 1 runs BenchmarkExecKernels (micro kernel-vs-reference loops plus the
# device-level vecadd at each worker count) and BenchmarkBuildCached (compile
# cache hit vs fresh compilation), writing to BENCH_kernels.json by default.
# Step 2 runs BenchmarkStreamOptimize (optimizer wall-clock per recorded
# paper-scale stream, plus sim-speedup / sim-ms-saved / sim-mJ-saved /
# records-removed custom metrics from the optimized replay) and
# BenchmarkReplayOptimized (baseline vs optimized replay wall-clock),
# writing to BENCH_streamopt.json. Step 3 runs the stream-encoding
# benchmarks (BenchmarkBinaryStream*/BenchmarkJSONStream*: encode and decode
# throughput plus bytes/record for the bit-packed binary format vs JSON over
# a payload-heavy recorded stream), writing to BENCH_binstream.json. Step 4
# runs the dispatch-path benchmarks (BenchmarkDispatch and BenchmarkParFor:
# dispatch-path ns/op + allocs/op and the reusable worker pool), writing to
# BENCH_dispatch.json. Step 5 runs the stream-execution
# server load benchmark (cmd/pimload against an in-process cmd/pimserved
# core: concurrent tenant sessions with bit-identical verification),
# writing sessions/sec and latency percentiles to BENCH_server.json — this
# output is a single JSON report, not test2json JSONL. Step 6 runs the
# checkpoint/recovery benchmarks (BenchmarkCheckpointOverhead: uninterrupted
# replay vs the same replay snapshotting at quarter-stream intervals, with
# snapshot-bytes and checkpoints/op custom metrics; BenchmarkRecoveryResume:
# time-to-recover from each captured checkpoint vs replaying from scratch),
# writing to BENCH_recovery.json. All other
# outputs are JSONL in test2json format: one JSON object per line with
# Action/Package/Test/Output fields; benchmark measurements appear in the
# Output field of "output" actions. Summarized numbers live in
# EXPERIMENTS.md.
set -eu

cd "$(dirname "$0")/.."

out="${1:-BENCH_kernels.json}"
sout="${2:-BENCH_streamopt.json}"
bout="${3:-BENCH_binstream.json}"
pout="${4:-BENCH_dispatch.json}"
svout="${5:-BENCH_server.json}"
rout="${6:-BENCH_recovery.json}"

echo "==> go test -bench ExecKernels|BuildCached -> $out"
go test -run='^$' -bench='^(BenchmarkExecKernels|BenchmarkBuildCached)$' \
    -benchtime=1s -count=1 -json \
    ./internal/device/ ./internal/bitserial/ >"$out"

echo "==> wrote $out"
grep -o '"Output":"Benchmark[^"]*ns/op[^"]*' "$out" | sed 's/"Output":"//; s/\\t/\t/g; s/\\n$//' || true

echo "==> go test -bench StreamOptimize|ReplayOptimized -> $sout"
go test -run='^$' -bench='^(BenchmarkStreamOptimize|BenchmarkReplayOptimized)$' \
    -benchtime=100x -count=1 -json \
    ./internal/streamopt/difftest/ >"$sout"

echo "==> wrote $sout"
grep -o '"Output":"Benchmark[^"]*ns/op[^"]*' "$sout" | sed 's/"Output":"//; s/\\t/\t/g; s/\\n$//' || true

echo "==> go test -bench BinaryStream|JSONStream -> $bout"
go test -run='^$' -bench='^(BenchmarkBinaryStream|BenchmarkJSONStream)' \
    -benchtime=5x -count=1 -json \
    ./internal/cmdstream/ >"$bout"

echo "==> wrote $bout"
grep -o '"Output":"[^"]*\(Benchmark[^"]*\|ns/op[^"]*\)' "$bout" | sed 's/"Output":"//; s/\\t/\t/g; s/\\n$//' | grep -v '^Benchmark[A-Za-z]*$' || true

echo "==> go test -bench Dispatch|ParFor -> $pout"
go test -run='^$' -bench='^(BenchmarkDispatch|BenchmarkParFor)$' \
    -benchtime=1s -count=1 -json \
    . ./internal/par/ >"$pout"

echo "==> wrote $pout"
grep -o '"Output":"[^"]*\(Benchmark[^"]*\|ns/op[^"]*\)' "$pout" | sed 's/"Output":"//; s/\\t/\t/g; s/\\n$//' | grep -v '^Benchmark[A-Za-z]*$' || true

echo "==> pimload server benchmark -> $svout"
go run ./cmd/pimload -benchmarks vecadd,axpy,gemv \
    -sessions 256 -concurrency 64 -tenants 16 -devices 8 -verify \
    -out "$svout"

echo "==> wrote $svout"

echo "==> go test -bench CheckpointOverhead|RecoveryResume -> $rout"
go test -run='^$' -bench='^(BenchmarkCheckpointOverhead|BenchmarkRecoveryResume)$' \
    -benchtime=20x -count=1 -json \
    ./benchmarks/suite/replaytest/ >"$rout"

echo "==> wrote $rout"
grep -o '"Output":"[^"]*\(Benchmark[^"]*\|ns/op[^"]*\)' "$rout" | sed 's/"Output":"//; s/\\t/\t/g; s/\\n$//' | grep -v '^Benchmark[A-Za-z]*$' || true
