#!/usr/bin/env bash
# Build and run the test suite under sanitizers.
#
#   scripts/check.sh            # ASan + UBSan (full suite) + TSan (parallel
#                               # tests) + plain-build perf gate
#   scripts/check.sh address    # just one pass
#   scripts/check.sh thread     # just the TSan pass
#   scripts/check.sh perf       # just the Fig-4 perfdiff gate
#
# Each sanitizer gets its own build tree (build-asan/, build-ubsan/,
# build-tsan/) so the regular build/ stays untouched. address and
# undefined build and run everything; thread builds only the parallel test
# binaries and runs the thread-pool/experiment/fault-validator/scenario-
# matrix suites plus the admission-service suite, the PARSEC surface
# table's concurrent-generator test and the min-budget memo pins (whose
# inner-jobs case stripes a batch over a shared pool; the rest of the
# test suite is
# single-threaded, and TSan's ~10x slowdown buys nothing there).
# The scenario-matrix suite matters for TSan specifically: it drives
# run_matrix with checkpointing at --jobs 2+, where worker-thread slot
# writes and the checkpoint snapshot must stay serialized; the service
# and telemetry suites ride along because `vc2m serve` shares the
# signal-flag / cancellation plumbing with the matrix runner and the
# stats-signal latch is read from the decision loop. The address pass also runs
# the serve smoke: crash-kill the service at every injected crash point
# and require --recover to reproduce the uninterrupted report byte for
# byte, fuzz torn/corrupted journals (recovery must warn, never crash),
# schema-validate the vc2m-serve-report/1 artifact, and sweep the strict
# numeric-flag matrix. The address pass also runs the telemetry smoke:
# telemetry must not perturb the report or the journal, the metrics
# timeline must be schema-valid, bit-identical across --inner-jobs and
# across crash + --recover, `vc2m timeline --diff` must pass a
# self-compare, SIGUSR1 must render a stats snapshot mid-run, and a
# corrupted-timeline fuzz loop must exit cleanly, never crash. The address pass also runs the scenario smoke: the curated
# corpus under scenarios/ (all four enforcement policies under fault plans,
# the infeasible-by-constraint pins, the stress scenarios) must pass through
# `vc2m scenario run`, a 2-way-sharded run merged back together must be
# byte-identical to the unsharded report, the report must be schema-valid
# (scripts/scenarios_validate.py), and two fuzz loops — corrupted taskset
# CSVs and corrupted/truncated scenario files — must exit with a clean
# util::Error, never an ASan report/crash. The address pass additionally
# re-runs the golden-equivalence suite explicitly (allocation engine
# bit-identical to the pre-registry seed, with strictly fewer dbf
# evaluations) and the bench_micro_ops --smoke memoization-counter check.
# Finally the address pass runs the perf smoke: bench_micro_ops --smoke
# --json must emit a schema-valid BENCH_*.json, `vc2m perfdiff` must pass a
# self-compare and must flag a synthetic 3x phase-time regression — and
# test_explain (golden digests bit-identical with decision recording on).
# The former fault-policy and feasible/infeasible explain smokes live in
# the scenario corpus now (fault-policy-*.json, infeasible-*.json).
# Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

sanitizers=("$@")
[ $# -eq 0 ] && sanitizers=(address undefined thread perf)

scenario_smoke() {
  # $1 = build dir with a tools/vc2m binary. Runs the curated corpus (which
  # carries the former fault-policy and explain verdict smokes as pinned
  # scenarios), checks shard/merge byte-identity, and schema-validates both
  # the corpus and the merged report from the outside.
  local vc2m="$1/tools/vc2m"
  local work; work="$(mktemp -d)"
  trap 'rm -rf "$work"' RETURN

  echo "--- scenario corpus is schema-valid ---"
  python3 scripts/scenarios_validate.py scenarios/

  echo "--- scenario corpus passes (full matrix run) ---"
  "$vc2m" scenario run scenarios/ --jobs "$(nproc)" \
    --json "$work/full.json" \
    || { echo "scenario corpus failed"; return 1; }

  echo "--- 2-way-sharded merge is byte-identical to the unsharded run ---"
  "$vc2m" scenario run scenarios/ --jobs 2 --shard 0/2 \
    --json "$work/shard0.json" > /dev/null
  "$vc2m" scenario run scenarios/ --jobs 2 --shard 1/2 \
    --json "$work/shard1.json" > /dev/null
  "$vc2m" scenario merge "$work/shard0.json" "$work/shard1.json" \
    --json "$work/merged.json" > /dev/null
  cmp "$work/merged.json" "$work/full.json" \
    || { echo "merged shard report differs from the unsharded run"; return 1; }

  echo "--- scenario report is schema-valid ---"
  python3 scripts/scenarios_validate.py --report "$work/full.json"

  echo "--- fuzz: corrupted scenario files must fail cleanly ---"
  local seed_file=scenarios/cache-thrash-storm.json
  local ssize; ssize="$(wc -c < "$seed_file")"
  RANDOM=20260809
  for i in $(seq 1 24); do
    cp "$seed_file" "$work/fuzzed.json"
    for _ in 1 2 3; do
      local off=$((RANDOM % ssize)) byte=$((RANDOM % 255 + 1))
      printf "$(printf '\\%03o' "$byte")" |
        dd of="$work/fuzzed.json" bs=1 seek="$off" count=1 conv=notrunc status=none
    done
    local rc=0
    ASAN_OPTIONS=abort_on_error=1 "$vc2m" scenario validate "$work/fuzzed.json" \
      > /dev/null 2> "$work/fuzz-err.txt" || rc=$?
    if [ "$rc" -ge 128 ]; then
      echo "scenario fuzz iteration $i crashed (rc=$rc):"
      cat "$work/fuzz-err.txt"
      return 1
    fi
  done
  # Truncations walk the parser's every EOF path.
  for n in 0 1 17 60 120 200; do
    head -c "$n" "$seed_file" > "$work/truncated.json"
    local rc=0
    ASAN_OPTIONS=abort_on_error=1 "$vc2m" scenario validate "$work/truncated.json" \
      > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ge 128 ] || [ "$rc" -eq 0 ]; then
      echo "truncated scenario (${n} bytes) rc=$rc (want clean nonzero exit)"
      return 1
    fi
  done
  echo "--- scenario smoke passed ---"
}

taskset_fuzz() {
  # $1 = build dir with a tools/vc2m binary.
  local vc2m="$1/tools/vc2m"
  local work; work="$(mktemp -d)"
  trap 'rm -rf "$work"' RETURN
  "$vc2m" generate --util 0.6 --seed 3 > "$work/tasks.csv"

  echo "--- fuzz: corrupted taskset CSVs must fail cleanly ---"
  # abort_on_error makes ASan die with a signal (rc >= 128) instead of
  # exit(1), so a crash is distinguishable from a clean util::Error exit.
  local size; size="$(wc -c < "$work/tasks.csv")"
  RANDOM=20260806
  for i in $(seq 1 32); do
    cp "$work/tasks.csv" "$work/fuzzed.csv"
    for _ in 1 2 3; do
      local off=$((RANDOM % size)) byte=$((RANDOM % 255 + 1))
      printf "$(printf '\\%03o' "$byte")" |
        dd of="$work/fuzzed.csv" bs=1 seek="$off" count=1 conv=notrunc status=none
    done
    local rc=0
    ASAN_OPTIONS=abort_on_error=1 "$vc2m" solve --file "$work/fuzzed.csv" \
      > /dev/null 2> "$work/fuzz-err.txt" || rc=$?
    if [ "$rc" -ge 128 ]; then
      echo "fuzz iteration $i crashed (rc=$rc):"
      cat "$work/fuzz-err.txt"
      return 1
    fi
  done
  echo "--- taskset fuzz passed ---"
}

serve_smoke() {
  # $1 = build dir with a tools/vc2m binary. Exercises the crash-safety
  # story of `vc2m serve` from the outside: a journaled baseline run, a
  # real crash-kill at every injected crash point followed by --recover
  # (the recovered report must be byte-identical to the baseline), a
  # torn/corrupted-journal fuzz loop (recovery must warn and finish, never
  # crash), and the strict-flag matrix (malformed numeric flag values must
  # exit 2 with a 'bad value' message, not feed garbage to the service).
  local vc2m="$1/tools/vc2m"
  local work; work="$(mktemp -d)"
  trap 'rm -rf "$work"' RETURN
  # remove/resize traffic keeps commits flowing (admit-only traces stop
  # committing once the platform fills), so snapshots keep rotating.
  local trace="poisson:requests=600,interarrival-us=300,util=0.1..0.4,remove-frac=0.35,resize-frac=0.1"
  local args=(--trace "$trace" --seed 7 --snapshot-every 20)

  echo "--- serve: journaled baseline run ---"
  "$vc2m" serve "${args[@]}" --journal "$work/base.wal" \
    --json "$work/base.json" > /dev/null

  echo "--- serve report is schema-valid ---"
  python3 scripts/scenarios_validate.py --serve-report "$work/base.json"

  echo "--- serve: crash-kill + --recover at every crash point ---"
  # std::_Exit(137) at the kill site: distinguishable both from a clean
  # exit and from an ASan abort (134).
  for crash in before-append:300 after-append:300 mid-snapshot:2; do
    rm -f "$work/j.wal" "$work/j.wal.snap"
    local rc=0
    ASAN_OPTIONS=abort_on_error=1 "$vc2m" serve "${args[@]}" \
      --journal "$work/j.wal" --crash-at "$crash" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 137 ]; then
      echo "crash point $crash: expected rc 137, got $rc"
      return 1
    fi
    "$vc2m" serve "${args[@]}" --journal "$work/j.wal" --recover \
      --json "$work/recovered.json" > /dev/null 2> "$work/recover-err.txt" \
      || { echo "recovery after $crash failed:"
           cat "$work/recover-err.txt"; return 1; }
    cmp "$work/recovered.json" "$work/base.json" \
      || { echo "recovered report after $crash differs from baseline"
           return 1; }
  done

  echo "--- fuzz: corrupted/truncated journals must recover cleanly ---"
  # base.wal (+ its snapshot) is a complete run; recovery replays it in
  # full. Any torn tail or flipped byte may cost records — recovery then
  # recomputes them live — but must warn and finish, never crash, and the
  # final report must still be byte-identical (replay == recompute).
  local jsize; jsize="$(wc -c < "$work/base.wal")"
  RANDOM=20260808
  for i in $(seq 1 16); do
    cp "$work/base.wal" "$work/fuzz.wal"
    cp "$work/base.wal.snap" "$work/fuzz.wal.snap" 2>/dev/null || true
    if [ $((i % 2)) -eq 0 ]; then
      truncate -s $((RANDOM % jsize)) "$work/fuzz.wal"
    else
      local off=$((RANDOM % jsize)) byte=$((RANDOM % 255 + 1))
      printf "$(printf '\\%03o' "$byte")" |
        dd of="$work/fuzz.wal" bs=1 seek="$off" count=1 conv=notrunc status=none
    fi
    local rc=0
    ASAN_OPTIONS=abort_on_error=1 "$vc2m" serve "${args[@]}" \
      --journal "$work/fuzz.wal" --recover --json "$work/fuzzed.json" \
      > /dev/null 2> "$work/fuzz-err.txt" || rc=$?
    if [ "$rc" -ge 128 ]; then
      echo "journal fuzz iteration $i crashed (rc=$rc):"
      cat "$work/fuzz-err.txt"
      return 1
    fi
    if [ "$rc" -eq 0 ]; then
      cmp "$work/fuzzed.json" "$work/base.json" \
        || { echo "journal fuzz iteration $i: recovered report differs"
             return 1; }
    fi
  done

  echo "--- --inner-jobs 1 and 3: byte-identical report and timeline ---"
  local j
  for j in 1 3; do
    "$vc2m" serve "${args[@]}" --inner-jobs "$j" --json "$work/ij$j.json" \
      --timeline "$work/ij$j.bin" --sample-every 50 > /dev/null
  done
  cmp "$work/ij1.json" "$work/ij3.json" \
    || { echo "serve report differs between --inner-jobs 1 and 3"; return 1; }
  cmp "$work/ij1.bin" "$work/ij3.bin" \
    || { echo "timeline differs between --inner-jobs 1 and 3"; return 1; }

  echo "--- strict flags: malformed values must exit 2 with no output ---"
  local bad rc flag value
  # --inner-jobs must be >= 0; a seed of 2^53 or more would not survive
  # the report's JSON number; a trace spec may not hold an empty item.
  for bad in "--seed 12x" "--util nan" "--vms 1e3" "--jobs 2.5" \
             "--snapshot-every -1" "--deadline-us 5ms" "--backoff-us abc" \
             "--max-retries two" "--queue-cap 0x10" "--inner-jobs -1" \
             "--seed 9007199254740992" "--vms +5" \
             "--trace poisson:requests=5,"; do
    flag="${bad% *}" value="${bad#* }"
    rc=0
    "$vc2m" serve --trace "$trace" "$flag" "$value" \
      > "$work/flag-out.txt" 2> "$work/flag-err.txt" || rc=$?
    if [ "$rc" -ne 2 ] || [ -s "$work/flag-out.txt" ] \
        || ! grep -q "bad value" "$work/flag-err.txt"; then
      echo "flag '$flag $value': expected rc 2 + 'bad value' and no output," \
           "got rc $rc:"
      cat "$work/flag-out.txt" "$work/flag-err.txt"
      return 1
    fi
  done
  echo "--- serve smoke passed ---"
}

telemetry_smoke() {
  # $1 = build dir with a tools/vc2m binary. Exercises the runtime
  # telemetry (docs/telemetry.md) from the outside: instrumentation must
  # not perturb the deterministic artifacts, the timeline must be
  # schema-valid and bit-identical across --inner-jobs and across a real
  # crash + --recover, the `vc2m timeline` reader must survive corrupted
  # input, and SIGUSR1 must render a stats snapshot mid-run.
  local vc2m="$1/tools/vc2m"
  local work; work="$(mktemp -d)"
  trap 'rm -rf "$work"' RETURN
  local trace="poisson:requests=600,interarrival-us=300,util=0.1..0.4,remove-frac=0.35,resize-frac=0.1"
  local args=(--trace "$trace" --seed 7 --snapshot-every 20)

  echo "--- telemetry: fully instrumented run ---"
  "$vc2m" serve "${args[@]}" --journal "$work/telem.wal" \
    --timeline "$work/t.bin" --sample-every 50 --stats-every 200 \
    --span-trace "$work/spans.json" --json "$work/telem.json" \
    > /dev/null 2> "$work/stats.txt"
  grep -q "\[vc2m serve\]" "$work/stats.txt" \
    || { echo "--stats-every rendered no snapshots"; return 1; }

  echo "--- telemetry leaves the report and the journal byte-identical ---"
  "$vc2m" serve "${args[@]}" --journal "$work/plain.wal" \
    --json "$work/plain.json" > /dev/null
  cmp "$work/telem.json" "$work/plain.json" \
    || { echo "telemetry perturbed the serve report"; return 1; }
  cmp "$work/telem.wal" "$work/plain.wal" \
    || { echo "telemetry perturbed the journal"; return 1; }

  echo "--- timeline is schema-valid ---"
  python3 scripts/scenarios_validate.py --timeline "$work/t.bin"

  echo "--- vc2m timeline: summary, csv, and self-diff ---"
  "$vc2m" timeline "$work/t.bin" > /dev/null
  "$vc2m" timeline "$work/t.bin" --csv | head -1 | grep -q "^file,sample," \
    || { echo "timeline --csv header missing"; return 1; }
  "$vc2m" timeline "$work/t.bin" --diff "$work/t.bin" \
    | grep -q "byte-identical" \
    || { echo "timeline self-diff failed"; return 1; }

  echo "--- timeline is bit-identical across --inner-jobs ---"
  "$vc2m" serve "${args[@]}" --inner-jobs 2 --timeline "$work/t_j2.bin" \
    --sample-every 50 > /dev/null
  "$vc2m" timeline "$work/t.bin" --diff "$work/t_j2.bin" > /dev/null \
    || { echo "timeline differs at --inner-jobs 2"; return 1; }

  echo "--- crash + --recover reproduces the timeline at every crash point ---"
  local crash rc
  for crash in before-append:300 after-append:300 mid-snapshot:2; do
    rm -f "$work/c.wal" "$work/c.wal.snap" "$work/c.wal.spans" "$work/c.bin"
    rc=0
    ASAN_OPTIONS=abort_on_error=1 "$vc2m" serve "${args[@]}" \
      --journal "$work/c.wal" --timeline "$work/c.bin" --sample-every 50 \
      --crash-at "$crash" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 137 ]; then
      echo "telemetry crash run $crash: expected rc 137, got $rc"; return 1
    fi
    [ -s "$work/c.wal.spans" ] \
      || { echo "$crash left no span-ring dump next to the journal"
           return 1; }
    "$vc2m" serve "${args[@]}" --journal "$work/c.wal" \
      --timeline "$work/c.bin" --sample-every 50 --recover \
      --json "$work/crec.json" > /dev/null 2>&1 \
      || { echo "telemetry recovery after $crash failed"; return 1; }
    cmp "$work/c.bin" "$work/t.bin" \
      || { echo "recovered timeline after $crash differs from the" \
                "uninterrupted run"; return 1; }
    cmp "$work/crec.json" "$work/plain.json" \
      || { echo "recovered report after $crash differs from baseline"
           return 1; }
  done

  echo "--- recover with the timeline deleted: warn, no index gap ---"
  # The snapshot folds samples the deleted file held; recovery cannot
  # reproduce them, so it must say so and write no samples, not a file
  # that starts mid-stream.
  rm -f "$work/c.wal" "$work/c.wal.snap" "$work/c.wal.spans" "$work/c.bin"
  rc=0
  "$vc2m" serve "${args[@]}" --journal "$work/c.wal" \
    --timeline "$work/c.bin" --sample-every 50 \
    --crash-at after-append:300 > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 137 ] || { echo "deleted-timeline crash run: rc $rc"; return 1; }
  rm -f "$work/c.bin"
  "$vc2m" serve "${args[@]}" --journal "$work/c.wal" \
    --timeline "$work/c.bin" --sample-every 50 --recover \
    > /dev/null 2> "$work/gap-err.txt" \
    || { echo "recovery with the timeline deleted failed:"
         cat "$work/gap-err.txt"; return 1; }
  grep -q "cannot be reproduced" "$work/gap-err.txt" \
    || { echo "no can't-reproduce warning for a deleted timeline"
         cat "$work/gap-err.txt"; return 1; }
  if [ -e "$work/c.bin" ]; then
    "$vc2m" timeline "$work/c.bin" > /dev/null 2> "$work/gap-read.txt" || true
    if grep -q "has index" "$work/gap-read.txt"; then
      echo "recovery wrote a timeline with an index gap:"
      cat "$work/gap-read.txt"; return 1
    fi
  fi

  echo "--- SIGUSR1 renders a stats snapshot mid-run ---"
  # A trace far longer than the probe needs, so the run is still live when
  # the signal lands however fast the service is; once the snapshot shows
  # up (or after 10 s), SIGTERM ends the run with its interrupted exit 130.
  local slow="poisson:requests=200000,interarrival-us=300,util=0.1..0.4"
  "$vc2m" serve --trace "$slow" --seed 7 \
    > /dev/null 2> "$work/usr1.txt" &
  local pid=$!
  sleep 0.5
  kill -USR1 "$pid" 2>/dev/null || true
  for _ in $(seq 1 100); do
    grep -q "\[vc2m serve\]" "$work/usr1.txt" && break
    sleep 0.1
  done
  kill -TERM "$pid" 2>/dev/null || true
  rc=0
  wait "$pid" || rc=$?
  if [ "$rc" -ne 0 ] && [ "$rc" -ne 130 ]; then
    echo "serve under SIGUSR1 failed (rc=$rc)"; return 1
  fi
  grep -q "\[vc2m serve\]" "$work/usr1.txt" \
    || { echo "SIGUSR1 rendered no stats snapshot"; return 1; }

  echo "--- fuzz: corrupted timelines must be read cleanly ---"
  local tsize; tsize="$(wc -c < "$work/t.bin")"
  RANDOM=20260810
  for i in $(seq 1 16); do
    cp "$work/t.bin" "$work/fuzz.bin"
    if [ $((i % 2)) -eq 0 ]; then
      truncate -s $((RANDOM % tsize)) "$work/fuzz.bin"
    else
      local off=$((RANDOM % tsize)) byte=$((RANDOM % 255 + 1))
      printf "$(printf '\\%03o' "$byte")" |
        dd of="$work/fuzz.bin" bs=1 seek="$off" count=1 conv=notrunc status=none
    fi
    rc=0
    ASAN_OPTIONS=abort_on_error=1 "$vc2m" timeline "$work/fuzz.bin" \
      > /dev/null 2> "$work/fuzz-err.txt" || rc=$?
    if [ "$rc" -ge 128 ]; then
      echo "timeline fuzz iteration $i crashed (rc=$rc):"
      cat "$work/fuzz-err.txt"
      return 1
    fi
  done
  echo "--- telemetry smoke passed ---"
}

perf_smoke() {
  # $1 = build dir with bench/bench_micro_ops, bench/bench_fig4_runtime and
  # tools/vc2m binaries.
  local work; work="$(mktemp -d)"
  trap 'rm -rf "$work"' RETURN

  echo "--- bench flags: out-of-range counts exit 2 before any sweep ---"
  # Both once narrowed silently: 2^32 + 1 tasksets ran one per point and
  # 2^32 jobs became 0 (hardware concurrency).
  local bad rc
  for bad in "--tasksets 4294967297" "--jobs 4294967296"; do
    rc=0
    "$1/bench/bench_fig4_runtime" ${bad} --csv-dir "$work/csv" \
      > "$work/flag-out.txt" 2> "$work/flag-err.txt" || rc=$?
    if [ "$rc" -ne 2 ] || [ -s "$work/flag-out.txt" ] || [ -e "$work/csv" ] \
        || ! grep -q "bad value" "$work/flag-err.txt"; then
      echo "bench flag '$bad': expected rc 2 before any sweep, got rc $rc:"
      cat "$work/flag-err.txt"
      return 1
    fi
  done

  "$1/bench/bench_micro_ops" --smoke --json "$work/BENCH_smoke.json" \
    > /dev/null

  echo "--- bench report is schema-valid JSON ---"
  python3 - "$work/BENCH_smoke.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
required = ["schema", "name", "git_rev", "config", "counters", "phases",
            "histograms", "pool"]
missing = [k for k in required if k not in r]
assert not missing, f"missing top-level keys: {missing}"
assert r["schema"].startswith("vc2m-bench-report/"), r["schema"]
assert r["phases"], "empty phase profile"
assert "solve_seconds" in r["histograms"], "missing solve_seconds histogram"
EOF

  echo "--- perfdiff: self-compare must pass ---"
  "$1/tools/vc2m" perfdiff "$work/BENCH_smoke.json" "$work/BENCH_smoke.json" \
    > /dev/null \
    || { echo "perfdiff self-compare reported a regression"; return 1; }

  echo "--- perfdiff: synthetic 3x phase regression must fail ---"
  python3 - "$work/BENCH_smoke.json" "$work/BENCH_regressed.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
for p in r["phases"]:
    p["total_sec"] *= 3
json.dump(r, open(sys.argv[2], "w"))
EOF
  if "$1/tools/vc2m" perfdiff "$work/BENCH_smoke.json" \
      "$work/BENCH_regressed.json" > /dev/null; then
    echo "perfdiff failed to flag a 3x phase-time regression"
    return 1
  fi
  echo "--- perf smoke passed ---"
}

perf_gate() {
  # Plain (non-sanitized, RelWithDebInfo) build: sanitizer overhead would
  # drown the wall time the gate compares. Runs the committed Fig-4
  # configuration (50 tasksets/point, step 0.05, seed 42, --jobs 1) and
  # holds wall time, phase times, and effort counters to within
  # --max-regress of the checked-in baseline report.
  local dir=build-perf
  echo "=== perf: configure (${dir}/) ==="
  cmake -B "$dir" -S . >/dev/null
  echo "=== perf: build ==="
  cmake --build "$dir" -j "$(nproc)" --target bench_fig4_runtime vc2m
  local work; work="$(mktemp -d)"
  trap 'rm -rf "$work"' RETURN
  echo "=== perf: Fig-4 runtime sweep ==="
  "$dir/bench/bench_fig4_runtime" --jobs 1 --csv-dir "$work" \
    --json "$work/BENCH_fig4_current.json" > /dev/null
  echo "=== perf: perfdiff vs bench_results/BENCH_fig4_baseline.json ==="
  # --min-abs-sec 0.01: sub-10ms bookkeeping phases (fork_streams,
  # assemble) jitter past any sane relative threshold; the phases this
  # gate exists for (experiment, sweep, min_budget) are seconds-scale.
  "$dir/tools/vc2m" perfdiff bench_results/BENCH_fig4_baseline.json \
    "$work/BENCH_fig4_current.json" --max-regress 10% --min-abs-sec 0.01 \
    || { echo "Fig-4 sweep regressed past the committed baseline"; return 1; }
  echo "--- perf gate passed ---"
}

for san in "${sanitizers[@]}"; do
  if [ "$san" = perf ]; then
    perf_gate
    continue
  fi
  case "$san" in
    address)   dir=build-asan ;;
    undefined) dir=build-ubsan ;;
    thread)    dir=build-tsan ;;
    *)         dir="build-$san" ;;
  esac
  build_args=()
  ctest_args=(--output-on-failure -j "$(nproc)")
  if [ "$san" = thread ]; then
    build_args=(--target test_parallel test_faults test_scenario test_service
                test_telemetry test_golden test_workload test_analysis)
    ctest_args+=(-R '^(ThreadPool|ParallelExperiment|ExperimentResultGuards|FaultValidatorParallel|ScenarioMatrix|TraceGen|Journal|CrashSpec|ShedPolicy|Decider|Service|ServeReport|Timeline|TelemetryText|SpanRing|Spans|StatsSnapshot|SurfaceTable|AnalysisContextMemo)')
  fi
  echo "=== ${san}: configure (${dir}/) ==="
  cmake -B "$dir" -S . -DVC2M_SANITIZE="$san" >/dev/null
  echo "=== ${san}: build ==="
  cmake --build "$dir" -j "$(nproc)" ${build_args[@]+"${build_args[@]}"}
  echo "=== ${san}: ctest ==="
  (cd "$dir" && ctest ${ctest_args[@]+"${ctest_args[@]}"})
  if [ "$san" = thread ]; then
    # The intra-solve min-budget striping (--inner-jobs) shares checkpoint
    # cache references and per-stripe arenas across the inner pool; the
    # golden grid drives sweeps at jobs x inner-jobs combinations under
    # TSan to prove the batch latch + serial reduction are race-free.
    echo "=== ${san}: inner-parallel min-budget sweeps (golden grid) ==="
    "$dir/tests/test_golden" --gtest_filter='*JobsByInner*'
  fi
  if [ "$san" = address ]; then
    echo "=== ${san}: scenario smoke (corpus + shard/merge + fuzz) ==="
    scenario_smoke "$dir"
    echo "=== ${san}: serve smoke (crash-kill/recover + journal fuzz + flags) ==="
    serve_smoke "$dir"
    echo "=== ${san}: telemetry smoke (timeline + spans + SIGUSR1 + fuzz) ==="
    telemetry_smoke "$dir"
    echo "=== ${san}: taskset fuzz ==="
    taskset_fuzz "$dir"
    echo "=== ${san}: golden equivalence (engine vs seed digests) ==="
    "$dir/tests/test_golden"
    echo "=== ${san}: memoization smoke (bench_micro_ops --smoke) ==="
    "$dir/bench/bench_micro_ops" --smoke
    echo "=== ${san}: perf smoke (bench report + perfdiff gate) ==="
    perf_smoke "$dir"
    echo "=== ${san}: explain recording stays bit-identical (test_explain) ==="
    "$dir/tests/test_explain"
  fi
done

echo "All sanitizer runs passed."
