#!/usr/bin/env bash
# CI gate: build + ctest four times — plain (warnings are errors), under
# address sanitizer, a thread-sanitizer leg focused on the context/hook
# synchronization hot path, and an undefined-behaviour leg over the
# byte-level code — so the wdg_lint static checks and all three sanitizers
# run on every PR.
#
#   tools/ci.sh [extra ctest args...]
#
# Build trees land in build-ci/, build-ci-asan/, build-ci-tsan/, and
# build-ci-ubsan/ next to the source tree.
set -euo pipefail

cd "$(dirname "$0")/.."

# Guard: build trees must never be tracked. The seed once committed build/
# (743 generated files); fail loudly if any build artifact sneaks back into
# the index so it cannot land again.
if tracked_build=$(git ls-files -- 'build/*' 'build-*/*' 2>/dev/null) \
    && [[ -n "${tracked_build}" ]]; then
  echo "ci: build artifacts are tracked in git — run 'git rm -r --cached <dir>':" >&2
  echo "${tracked_build}" | head -20 >&2
  exit 1
fi

run_leg() {
  local build_dir=$1 sanitize=$2
  shift 2
  local cmake_args=(-B "${build_dir}" -S .)
  if [[ -n "${sanitize}" ]]; then
    cmake_args+=("-DWDG_SANITIZE=${sanitize}")
  else
    # The plain build must stay warning-free. Only this leg: under TSan,
    # libstdc++ itself warns (-Wtsan) on atomic_thread_fence.
    cmake_args+=("-DCMAKE_CXX_FLAGS=-Werror")
  fi
  echo "=== configure ${build_dir} (sanitize='${sanitize}') ==="
  cmake "${cmake_args[@]}"
  echo "=== build ${build_dir} ==="
  cmake --build "${build_dir}" -j "$(nproc)"
  echo "=== ctest ${build_dir} ==="
  # until-pass:2 absorbs timing flakes in the concurrency-stress and campaign
  # suites under sanitizer slowdown + full parallelism; real failures fail twice.
  ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)" \
    --repeat until-pass:2 "$@"
}

run_leg build-ci "" "$@"
echo "=== lint leg: shipped IR models, warnings as errors ==="
# The ctest wdg_lint_models entry runs with default policy; this leg raises
# the bar for the shipped models — any warning (iso.*, race.hook-context,
# hook.dead, ...) fails CI. Per-system invocations keep the failure pinpointed.
for system in kvs minizk minihdfs; do
  ./build-ci/tools/wdg_lint --system "${system}" --warnings-as-errors --summary
done
# The seeded-broken fixture must still fail under the same flags; a lint that
# stops catching its own regression fixtures is worse than no lint.
if ./build-ci/tools/wdg_lint --fixture bad --warnings-as-errors --summary; then
  echo "ci: wdg_lint accepted the bad fixture — the gate is broken" >&2
  exit 1
fi
echo "=== bench smoke: driver scale ==="
# Quick pass over the pooled-executor bench so a scheduler/executor regression
# fails loudly here. Runs in the build tree: the quick-mode JSON lacks the 1M
# rows, and written at the repo root it would clobber the committed full-run
# BENCH_driver_scale.json that the trend gate below reads.
(cd build-ci/bench && ./bench_driver_scale --quick)
echo "=== bench smoke: 10k sharded fleet ==="
# Fast fleet-scale tier: the 10k-checker sharded config must hold p99 queue
# delay <= 500 us with live workers capped at shards x per-shard pool size.
# The binary self-checks (--smoke-10k) and exits nonzero on a budget miss, so
# no JSON parsing is needed here; it also writes no JSON, but run it in the
# build tree anyway to keep it away from the committed artifact.
(cd build-ci/bench && ./bench_driver_scale --smoke-10k)
echo "=== bench smoke: 1M-shape sharded fleet (downscaled) ==="
# The million-checker driver shape (dispatch_batch 64, ring 8192), downscaled
# to 200k checkers at the same ~500k/sec offered rate so the gate stays
# sub-second per round: the allocation-free dispatch path must sustain at
# least half the offered rate with p99 queue delay in budget, and
# registering and starting the fleet must stay within 1.10 heap allocations
# per checker (a count, so host load does not move it).
(cd build-ci/bench && ./bench_driver_scale --smoke-1m)
echo "=== bench smoke: kvs driver shape wake-ups ==="
# The kvs watchdog's shape (11 checkers at 25 ms, 1 shard x 2 workers,
# default options) for 2 s. Gates on counts, not wall time: the co-due
# checkers must ride one batch (>= 8 checks per batch) and the scheduler
# must wake at most 2.5 times per interval. Also prints watchdog CPU-ns per
# check (schedstat), ungated. Self-checks and exits nonzero on a miss.
(cd build-ci/bench && ./bench_driver_scale --smoke-kvs)
echo "=== bench smoke: context read path ==="
# Runs in the build tree so the quick-mode JSON can't clobber the committed
# full-run artifact the trend gate below reads.
(cd build-ci/bench && ./bench_context_read --quick)
echo "=== bench smoke: table paths and the SimNet round trip ==="
# One short pass over the table-path micro benches (compaction, the merge,
# index.lookup and partition-validate mimics, at 1x and 10x data) and the
# SimNet Call round trip under every kvs request, so a crash, a hang or a
# failing op in those paths fails CI. Gates on the exit status only: the
# timings and the round trip's wake-ups per call print but are not judged.
timeout 300 ./build-ci/bench/bench_micro_overhead \
  --benchmark_filter='BM_(CompactOnce|PartitionValidateProbe|MergeProbe|IndexGet|SimNetCallRoundTrip)' \
  --benchmark_min_time=0.01
echo "=== campaign smoke: fusion fault matrix ==="
# Downscaled fault-matrix campaign (1 seed per class): the fused detector must
# detect all four fault classes, beat-or-tie the best single family on >= 3/4,
# and fire zero false positives anywhere (the binary self-checks and exits
# nonzero). Runs in the build tree so no JSON lands near the committed
# BENCH_fusion.json the trend gate reads.
(cd build-ci && ./tools/wdg_campaign --smoke-fusion)
echo "=== campaign smoke: ZOOKEEPER-2201 on minizk ==="
# Paper §4.2's case study: the first watchdog signature after the sync-link
# hang must pinpoint ProcessWrite @ lock.zk.commit while session ping acks
# keep flowing and the ruok probe stays quiet. The binary self-checks and
# exits nonzero when any of the three fails.
./build-ci/bench/bench_zk2201_gray_failure
echo "=== supervised smoke: wdogd escalation under a wedged process ==="
# The §3.3 scenario the in-process plane cannot catch for itself: a kvs,
# minizk and minihdfs node in turn, each with its watchdog driver, wedge on
# an injected disk hang, kicks stop, and the out-of-process wdogd must walk
# its ladder. wdogd exits nonzero when any system's trial fails to escalate.
# Runs in the build tree so the quick-mode JSON can't clobber the committed
# full-run artifact the trend gate reads.
(cd build-ci && ./tools/wdogd --quick --all)
echo "=== bench trend gate ==="
# Headline metrics from the committed full-run artifacts; fails the build if
# one regressed >25% against its best of the last three BENCH_TREND.json
# entries (WDG_BENCH_TREND_THRESHOLD overrides). --dry-run: CI gates but only
# a deliberate full bench run appends to the trend. The adaptive-pool row was
# retired when the executor pool became fixed-size; drop --allow-missing once
# that metric has left the last three BENCH_TREND.json entries.
python3 tools/bench_trend.py --dry-run \
  --allow-missing driver_adaptive_p99_queue_delay_us_256
run_leg build-ci-asan address "$@"
# TSan leg: the concurrency suites that hammer the seqlock context cells and
# batched hook flush (spill-block growth included), plus the pooled
# scheduler/executor scale suite (abandonment, backpressure, and shutdown
# races, plus the hook-plane allocation guard), the chaos/soak tier that
# storms the fixed pools with injected faults, and
# the signal-suite/fusion tests (FusionDetector::OnFailure runs on scheduler
# threads; the suite test drives a live driver against a publisher thread),
# the kvs unit suite (MergeProbe against a concurrent CompactOnce, the
# background flusher, compaction and replication loops), the suites that
# run the bounded lock mimic against live threads (minizk, kvs integration,
# autowd), and the core watchdog suite, whose live drivers exercise the
# completion-wake handshake between workers and the scheduler (a batch
# stamps finished_at before its worker_released release store, and wakes the
# scheduler only when it fails, is abandoned or is due before the planned
# wake), and the SimNet suite, whose senders re-arm a parked receiver's
# per-thread timer through the endpoint's waiter list while Calls list and
# unlist themselves around their sends.
run_leg build-ci-tsan thread \
  -R 'context_concurrency|stress_test|driver_scale|driver_chaos|supervisor|detectors_signal|kvs_test|minizk_test|kvs_integration_test|autowd_test|watchdog_test|sim_test' \
  "$@"
# UBSan leg: the byte-level code (CRC fold kernel and sliced tail, SSTable
# record walker, block map and merge cursors, WAL framing, block store, the standard mimic executors'
# stamped probe blocks and read-backs) and the suites that feed it
# adversarial bytes. halt_on_error turns the first report into a failing test
# instead of a log line.
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  run_leg build-ci-ubsan undefined -R 'common_test|property_test|kvs_test|sim_test|minihdfs_test|autowd_test' "$@"

echo "ci: all four legs green"
