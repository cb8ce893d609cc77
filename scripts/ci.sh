#!/usr/bin/env bash
# Minimal CI gate: static analysis, the tier-1 test suite, and the smoke
# benchmarks — the serving layer (fixed batching misses the p99 SLO at
# overload while the SLO-aware policy holds it; the multi-stream sweep
# must scale QPS within its pinned band and keep recall bit-identical),
# and the out-of-core tier (a 10x-over-budget dataset served under SLO,
# with prefetch beating serial demand fetches inside a pinned band).
# Each smoke runs in well under 60 s.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

# All six analysis engines in one launch, warnings failing too
# (--strict), against the committed findings baseline (currently empty):
# kernel sanitizer, hot-path lint, static verifier (abstract
# interpretation of every registered kernel + the Theorem 1-3
# search-invariant proofs), stream-hazard checker, array-program
# verifier (shape/dtype/overflow + nondeterminism sweep) and the
# async-concurrency analyzer over the serving layer (DESIGN.md Sec. 15).
# The text report prints per-engine wall times; any engine over 60 s
# warns on stderr.
python -m repro.analysis \
    --engines sanitizer,lint,verifier,streams,arrays,aio --strict \
    --baseline scripts/analysis_baseline.json

# Negative controls: every engine that ships known-bad fixtures (broken
# kernels, a stream program missing its event deps, overflowing/aliased
# array kernels, racy coroutines) must FAIL the strict gate on them, or
# its proof obligations are not actually being checked.
for engine in verifier streams arrays aio; do
    if python -m repro.analysis --engines "$engine" --strict --include-known-bad \
            >/dev/null 2>&1; then
        echo "ci: $engine accepted its known-bad fixtures — gate is broken" >&2
        exit 1
    fi
done

# ruff is a pinned dev dependency (pyproject.toml extra `dev`); the gate
# is unconditional — a missing install fails CI instead of skipping.
if command -v ruff >/dev/null 2>&1; then
    ruff check .
else
    python -m ruff check .
fi

# A serving test that parks forever fails CI here instead of stalling it.
timeout 900 python -m pytest -x -q

# The repository's benchmark (BENCHMARK.json) at smoke scale, untraced and
# traced: it calls or wraps a dozen src/ signatures (trace.py forwards
# meter=, stats=, entry_points= ...), so one that drifts breaks here and
# not in the pipeline.  About 16 s each; the timeout turns a lockstep loop
# that stopped terminating into a failure within minutes, not a stall.
timeout 300 python3 benchmarks/e2e/run.py --smoke --trace 0
timeout 300 python3 benchmarks/e2e/run.py --smoke --trace 1

# Same lockstep loop underneath, same guard.
timeout 300 python -m benchmarks.bench_serving --smoke
timeout 300 python -m benchmarks.bench_outofcore --smoke

# The examples are promised to run as shipped (5-40 s each; none writes
# files), and scripts/reachability.py counts them as callers.
for example in examples/*.py; do
    timeout 300 python "$example" >/dev/null
done

# The serving and out-of-core smokes must have produced every gated
# artifact (bench_outofcore pins the prefetch-vs-serial overlap band in
# BENCH_outofcore.json).  Construction has no smoke of its own: the
# benchmark's build_index workload (host_cost_ref, graphs.*) measures it.
for artifact in BENCH_serve.json BENCH_streams.json BENCH_outofcore.json; do
    if [ ! -f "benchmarks/results/$artifact" ]; then
        echo "ci: missing benchmark artifact $artifact" >&2
        exit 1
    fi
done
