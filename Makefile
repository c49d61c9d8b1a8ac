# Convenience wrappers around the canonical commands (see README.md).
# Everything assumes the repo root as working directory.

PY := PYTHONPATH=src python

.PHONY: test unit bench doctest docs-check batch-bench serve-bench kernel-bench chaos recovery-bench integrity-bench sched-bench cluster-bench cluster-chaos cluster-demo plan-dump profile hotpath profile-server layerbench layerbench-compare loc reach lint coverage all

# Tier-1: the full unit + benchmark suite.
test:
	$(PY) -m pytest -x -q

# Unit tests only (fast).
unit:
	$(PY) -m pytest tests -q

# Figure/table regeneration + throughput benchmarks.
bench:
	$(PY) -m pytest benchmarks -q

# Doctest-style examples in the public runtime + plan APIs.
doctest:
	$(PY) -m pytest --doctest-modules src/repro/runtime src/repro/plan -q

# Documentation health: doctests + markdown link checker.
docs-check:
	$(PY) -m pytest tests/test_docs.py -q

# The batched-engine acceptance gate (>=5x over looped exec_mvm).
batch-bench:
	$(PY) -m pytest benchmarks/test_batch_throughput.py -q

# The serving acceptance gate (>=3x over request-at-a-time at 16+ concurrent).
# Writes benchmarks/artifacts/serving_throughput.json (the CI artifact) and
# the server-round rows (us and calls per steady-state request; recorded,
# never asserted); set REPRO_BENCH_RECORD=1 (as the CI benchmarks job does)
# to also append those rows to BENCH_serving.json.
serve-bench:
	$(PY) -m pytest benchmarks/test_serving_throughput.py -q

# The vectorized-backend acceptance gate (>=10x over backend="reference" on
# a 64x64 batch-32 MVM).  Writes benchmarks/artifacts/kernel_speedup.json;
# set REPRO_BENCH_RECORD=1 (as the CI benchmarks job does) to also append
# the headline numbers to BENCH_kernels.json.
kernel-bench:
	$(PY) -m pytest benchmarks/test_kernel_speedup.py -q

# The resilience gates: fault-injection chaos suite (kill a device under
# open-loop load; zero lost futures, bit-identical responses), the fault
# framework's own suite (seeded-campaign digest, typed edge inputs on the
# device and ring tiers), the 200+-schedule conservation harness and the
# queue's differential suite (wave runs vs the flat-list oracle).  Sweep
# schedules with REPRO_TEST_SEED=<n> make chaos (as the CI chaos job does).
chaos:
	$(PY) -m pytest tests/test_chaos.py tests/test_faults.py tests/test_invariants.py tests/test_queueing.py -q

# Degraded-mode recovery benchmark (drain wall-clock with a mid-load kill
# vs fault-free; back-to-primary after heal).  Writes
# benchmarks/artifacts/recovery.json; set REPRO_BENCH_RECORD=1 (as the CI
# benchmarks job does) to also append to BENCH_recovery.json.
recovery-bench:
	$(PY) -m pytest benchmarks/test_recovery.py -q

# Integrity acceptance gate: ABFT verification overhead (verify="full"
# within 1.15x of the fault-free drain) and the wall-clock cost of a live
# band rebuild after losing every replica.  The test records the ratio
# (benchmarks/artifacts/integrity.json; tier-1 asserts counts, not clocks);
# this target judges it.  Set REPRO_BENCH_RECORD=1 (as the CI chaos job
# does) to also append to BENCH_recovery.json.
integrity-bench:
	$(PY) -m pytest benchmarks/test_recovery.py::test_integrity_benchmark -q
	$(PY) -c "import json, sys; row = json.load(open('benchmarks/artifacts/integrity.json')); \
	print('verify_overhead %.3f (bound %.2f)' % (row['verify_overhead'], row['max_verify_overhead'])); \
	sys.exit(row['verify_overhead'] > row['max_verify_overhead'])"

# Cost-aware scheduling gate (CostAwarePolicy beats StaticBatchingPolicy on
# p99 latency AND deadline sheds at equal open-loop load).  Writes
# benchmarks/artifacts/scheduling.json; set REPRO_BENCH_RECORD=1 (as the CI
# benchmarks job does) to also append to BENCH_scheduling.json.
sched-bench:
	$(PY) -m pytest benchmarks/test_scheduling.py -q

# Cluster scaling gate: multi-process workers vs the GIL (>=2x aggregate
# throughput 1 -> 4 workers on the noisy preset when >=4 cores are
# available; transport sanity floor otherwise), open-loop Poisson p50/p99,
# and the kill-one-worker recovery blip.  Writes
# benchmarks/artifacts/cluster.json; set REPRO_BENCH_RECORD=1 (as the CI
# cluster job does) to also append to BENCH_cluster.json.
cluster-bench:
	$(PY) -m pytest benchmarks/test_cluster_scaling.py -q

# Cluster chaos gate: one open-loop run absorbing the seeded transport
# fault campaign (drop/dup/delay/corrupt), an induced straggler, and a
# SIGKILL at replication=2 -- zero lost futures, answers bit-identical to
# a fault-free twin, supervised restart observed, p99 recovery blip
# bounded.  Writes benchmarks/artifacts/cluster_chaos.json; set
# REPRO_BENCH_RECORD=1 (as the CI cluster-chaos job does, sweeping
# REPRO_TEST_SEED over {12345, 1, 31337}) to also append to
# BENCH_cluster.json.
cluster-chaos:
	$(PY) -m pytest benchmarks/test_cluster_chaos_gate.py tests/test_cluster_chaos.py -q

# Run the scale-out quickstart (gateway + 2 replicated worker processes).
cluster-demo:
	$(PY) examples/cluster.py

# Pretty-print a sample compiled execution plan (MvmPlan + ShardedPlan).
plan-dump:
	$(PY) -m repro.plan

# cProfile the serving benchmark and print the top-20 cumulative hot spots.
profile:
	$(PY) benchmarks/profile_serving.py

# Five more modes of the same script.  device-call: one steady-state
# exact-path DarthPumDevice.exec_mvm_batch at the three paper shapes and an
# 8-tile row band (128x16 on HctConfig.small()) -- untraced us and function
# calls per call and per tile, and the time spent in the accumulator sync,
# input validation, the cost ledger and the matmul itself.  pool-call: one
# steady-state DevicePool.exec_mvm_batch at batch 16 on a one-band 64x64
# allocation and on the pool_sharded layout (256x16, 2 bands x 2 replicas,
# verify="full") -- us and Python-level calls, split into the pool's own
# frames and the device calls under them.  server-round: one steady-state
# submit_batch(64) per tenant + run_until_idle() at 1 and 32 tenants -- us
# and calls per request, the same batches through the pool alone, the
# server's share, pool frames per batch, and what an idle and a waiting tick
# cost -- and the same 64 vectors through 64 submit() calls (the ingress a
# wave record does not help).  cluster-wave: one 16-row cluster_saturate wave
# through a scripted gateway and one worker's functions in one process, on
# real rings, doorbells and heartbeat board -- us and sys.setprofile events
# (Python + C calls) for gateway submit, the worker's turn (whole, outside its
# pool calls, and split into peek / decode / answer / RESULTS frame /
# advance+push / two beats; copy+submit and drain stand for answer on a src/
# whose worker queued the wave and ticked it idle) and gateway resolve.
# registration: one 64x64 4-bit PumServer.register_matrix with new bytes (the
# tenant_churn tenant, reprogrammed in place) and the first wave against it,
# then the same with the shape alternating (released and placed anew) --
# untraced us for each, minor faults, Python calls, planner builds and
# crossbars built per round, and stopwatch self time of memo compare / in-place
# bookkeeping / release / encode+slice+map / crossbar construct / program /
# tile-plan compile / shard-kernel build / device-plan compile / the rest of
# the registration / the first call itself.
hotpath:
	$(PY) benchmarks/profile_serving.py device-call
	$(PY) benchmarks/profile_serving.py pool-call
	$(PY) benchmarks/profile_serving.py server-round
	$(PY) benchmarks/profile_serving.py cluster-wave
	$(PY) benchmarks/profile_serving.py registration

# The server-round rows followed by the cProfile listing (top-25 cumulative)
# of the tick loop at 32 tenants x 64 bulk-admitted requests.
profile-server:
	$(PY) benchmarks/profile_serving.py server-round --profile

# The repo's benchmark (BENCHMARK.json): every layerbench workload, untraced
# then traced, each pass in a fresh subprocess (~2 min).  Writes
# layerbench/results/latest.json (ignored by git; the CI layerbench job
# uploads it).
layerbench:
	python3 -m layerbench --out layerbench/results/latest.json

# Judge result file B against baseline A with the bounds in BENCHMARK.json:
#   make layerbench-compare A=base.json B=layerbench/results/latest.json
layerbench-compare:
	python3 -m layerbench compare $(A) $(B)

# Size baseline for simplicity PRs: src/ total and code lines, the largest
# files, and the constructor parameter counts of ClusterGateway, PumServer,
# DevicePool, CircuitBreaker and IntegrityChecker (from inspect.signature).
loc:
	$(PY) benchmarks/loc.py

# Which src/ functions no run ever enters: the six examples, pytest
# benchmarks, every layerbench workload at --trace 0 and 1 (--seconds 1) and
# python -m repro.plan, each under a sys.setprofile call recorder; prints the
# never-entered functions per file, those benchmarks/reach_kept.txt keeps on
# purpose apart from the candidates (2-3 min; the benchmark gates take about
# twice as long under the recorder).  Exits 1 first if a kept line names a
# function that is gone.  Writes benchmarks/artifacts/reach.json; with
# BASE=<another run's reach.json> it also prints the functions this tree
# newly strands.
reach:
	$(PY) benchmarks/reach.py $(if $(BASE),--against $(BASE))

# Lint/format gate (needs ruff: pip install -r requirements-dev.txt).
lint:
	ruff check .
	ruff format --check .

# Coverage gate (needs pytest-cov: pip install -r requirements-dev.txt).
coverage:
	$(PY) -m pytest tests benchmarks -q --cov=repro --cov-report=term --cov-fail-under=80

all: test doctest docs-check
