#!/usr/bin/env bash
# Build and run the test suite under sanitizers.
#
#   scripts/check.sh            # ASan + UBSan (full suite) + TSan (parallel
#                               # tests) + plain-build perf gate + dead-code
#                               # probe
#   scripts/check.sh address    # just one pass
#   scripts/check.sh thread     # just the TSan pass
#   scripts/check.sh perf       # just the same-host Fig-4 perf gate, against
#                               # the merge-base with the branch's upstream
#   scripts/check.sh perf=REF   # the same, against the merge-base with REF
#   scripts/check.sh deadcode   # just the section-GC dead-code probe
#
# Each sanitizer gets its own build tree (build-asan/, build-ubsan/,
# build-tsan/) so the regular build/ stays untouched. address and
# undefined build and run everything. thread builds only the binaries of
# the multi-threaded suites (thread pool, experiment, fault validator,
# scenario matrix with checkpointing at --jobs 2+, the service and
# telemetry suites that share the signal and cancellation plumbing, the
# concurrent surface-table generator and the inner-jobs memo pins); the
# rest is single-threaded and TSan's ~10x slowdown buys nothing there.
#
# The address pass also drives the real binaries; each function below
# says what it checks: scenario_smoke (corpus, shard/merge byte-identity,
# `vc2m validate`, scenario-file fuzz), serve_smoke (crash-kill at every
# crash point + --recover byte-identity, journal fuzz, `vc2m validate`,
# the strict-flag matrix, the help path), telemetry_smoke (timeline
# byte-identity and validation, SIGUSR1, timeline fuzz), taskset_fuzz,
# trace_check_fuzz and
# perf_smoke (preset and bench flags, a preset's CSVs and report, bench
# report + perfdiff gate), plus the golden-equivalence
# suite, the bench_micro_ops --smoke memoization check and test_explain.
# Each negative row (a byte-flipped serve report, a truncated timeline, a
# scenario report out of order) must make `vc2m validate` exit 1.
# Exits non-zero on the first failure.
set -euo pipefail

cd "$(dirname "$0")/.."

# Overwrite one random byte of file $1 (of $2 bytes) with a random
# non-zero byte.
flip_random_byte() {
  local off=$((RANDOM % $2)) byte=$((RANDOM % 255 + 1))
  printf "$(printf '\\%03o' "$byte")" |
    dd of="$1" bs=1 seek="$off" count=1 conv=notrunc status=none
}

# Each argument after the first two is a vc2m word list that must exit 2
# with nothing on stdout and $2 on stderr. $1 = the vc2m binary.
expect_exit_2() {
  local vc2m="$1" want="$2" row rc out err
  shift 2
  out="$(mktemp)" err="$(mktemp)"
  for row in "$@"; do
    rc=0
    # shellcheck disable=SC2086  # the row is split into words on purpose
    "$vc2m" $row > "$out" 2> "$err" || rc=$?
    if [ "$rc" -ne 2 ] || [ -s "$out" ] || ! grep -q "$want" "$err"; then
      echo "'$row': expected rc 2 + '$want' and no output, got rc $rc:"
      cat "$out" "$err"
      rm -f "$out" "$err"
      return 1
    fi
  done
  rm -f "$out" "$err"
}

sanitizers=("$@")
[ $# -eq 0 ] && sanitizers=(address undefined thread perf deadcode)

scenario_smoke() {
  # $1 = build dir with a tools/vc2m binary. Runs the curated corpus (which
  # carries the former fault-policy and explain verdict smokes as pinned
  # scenarios), checks shard/merge byte-identity, and validates both the
  # corpus and the merged report with `vc2m validate`.
  local vc2m="$1/tools/vc2m"
  local work; work="$(mktemp -d)"
  trap 'rm -rf "$work"' RETURN

  echo "--- scenario corpus passes vc2m validate ---"
  "$vc2m" validate scenarios/

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

  echo "--- merged scenario report passes vc2m validate ---"
  "$vc2m" validate "$work/merged.json"
  # Renaming the first record past the others breaks the name order.
  sed '0,/"name": "/s//"name": "zzz-/' "$work/merged.json" \
    > "$work/unsorted.json"
  rc=0
  "$vc2m" validate "$work/unsorted.json" > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 1 ] \
    || { echo "out-of-order scenario report: validate rc $rc, want 1"
         return 1; }

  echo "--- fuzz: corrupted scenario files must fail cleanly ---"
  local seed_file=scenarios/cache-thrash-storm.json
  local ssize; ssize="$(wc -c < "$seed_file")"
  RANDOM=20260809
  for i in $(seq 1 24); do
    cp "$seed_file" "$work/fuzzed.json"
    for _ in 1 2 3; do
      flip_random_byte "$work/fuzzed.json" "$ssize"
    done
    local rc=0
    ASAN_OPTIONS=abort_on_error=1 "$vc2m" validate "$work/fuzzed.json" \
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
    ASAN_OPTIONS=abort_on_error=1 "$vc2m" validate "$work/truncated.json" \
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
      flip_random_byte "$work/fuzzed.csv" "$size"
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

trace_check_fuzz() {
  # $1 = build dir with a tools/vc2m binary. A simulator trace whose id
  # cells (core, vcpu, task, job) are overwritten with negative, huge and
  # out-of-range integers must make `vc2m check` exit 0 or 1 (a reported
  # violation or a clean reader error), never crash or trip ASan.
  local vc2m="$1/tools/vc2m"
  local work; work="$(mktemp -d)"
  trap 'rm -rf "$work"' RETURN
  "$vc2m" generate --util 1.2 --vms 2 --seed 5 > "$work/tasks.csv"
  "$vc2m" simulate --file "$work/tasks.csv" --trace "$work/trace.csv" \
    > /dev/null
  "$vc2m" check --trace "$work/trace.csv" > /dev/null \
    || { echo "the unmodified trace fails vc2m check"; return 1; }

  echo "--- fuzz: out-of-range trace ids must be reported, not crash ---"
  local rows; rows="$(wc -l < "$work/trace.csv")"
  local rejected=0
  RANDOM=20260817
  for i in $(seq 1 32); do
    awk -F, -v OFS=, -v seed="$RANDOM" -v rows="$rows" '
      BEGIN {
        srand(seed)
        rate = 4 / rows
        n = split("-1 -2 -2147483648 2147483647 2000000000 65535 65536 7", ids, " ")
        m = split("-1 -9223372036854775808 9223372036854775807 " \
                  "1152921504606846976 70 4096", jobs, " ")
      }
      NR > 1 && rand() < rate {
        col = 3 + int(rand() * 4)
        $col = col == 6 ? jobs[1 + int(rand() * m)] : ids[1 + int(rand() * n)]
      }
      { print }' "$work/trace.csv" > "$work/fuzzed.csv"
    local rc=0
    ASAN_OPTIONS=abort_on_error=1 "$vc2m" check --trace "$work/fuzzed.csv" \
      > "$work/fuzz-out.txt" 2> "$work/fuzz-err.txt" || rc=$?
    if [ "$rc" -gt 1 ] || grep -q Sanitizer "$work/fuzz-err.txt"; then
      echo "trace-check fuzz iteration $i failed (rc=$rc):"
      cat "$work/fuzz-err.txt"
      return 1
    fi
    grep -q "references invalid" "$work/fuzz-out.txt" && rejected=$((rejected + 1))
  done
  # The loop is only worth something if the checker saw the bad ids.
  [ "$rejected" -gt 0 ] \
    || { echo "no fuzzed trace reached the id checks"; return 1; }
  echo "--- trace-check fuzz passed ($rejected of 32 rejected by the checker) ---"
}

serve_smoke() {
  # $1 = build dir with a tools/vc2m binary. Exercises the crash-safety
  # story of `vc2m serve` from the outside: a journaled baseline run, a
  # real crash-kill at every injected crash point followed by --recover
  # (the recovered report must be byte-identical to the baseline), a
  # torn/corrupted-journal fuzz loop (recovery must warn and finish, never
  # crash), and the strict-flag matrix (malformed numeric flag values must
  # exit 2 with a 'bad value' message, not feed garbage to the service;
  # a flag the subcommand does not read must exit 2 too).
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

  echo "--- serve report passes vc2m validate ---"
  "$vc2m" validate "$work/base.json"
  # One flipped byte: the lowercase platform older CLIs wrote.
  sed 's/"platform": "A"/"platform": "a"/' "$work/base.json" \
    > "$work/flipped.json"
  cmp -s "$work/flipped.json" "$work/base.json" \
    && { echo "byte flip did not apply"; return 1; }
  rc=0
  "$vc2m" validate "$work/flipped.json" > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 1 ] \
    || { echo "byte-flipped serve report: validate rc $rc, want 1"
         return 1; }

  echo "--- serve --profile: phase tree printed, artifacts unchanged ---"
  "$vc2m" serve "${args[@]}" --journal "$work/prof.wal" \
    --json "$work/prof.json" --profile > "$work/prof.txt"
  for phase in serve decide materialize vm_level cluster vcpu_analysis place \
               surface commit journal snapshot; do
    grep -Eq "^ *${phase} +[1-9][0-9]* " "$work/prof.txt" \
      || { echo "serve --profile printed no '${phase}' row:"
           cat "$work/prof.txt"; return 1; }
  done
  cmp "$work/prof.json" "$work/base.json" \
    && cmp "$work/prof.wal" "$work/base.wal" \
    || { echo "serve --profile changed the report or the journal"; return 1; }

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

  echo "--- serve: a doctored, re-signed snapshot is discarded on --recover ---"
  # A c-line member index past the VCPU count, with a valid fnv= line: the
  # checksum passes, the strict reader refuses it, and recovery recomputes.
  cp "$work/base.wal" "$work/doc.wal"
  python3 - "$work/base.wal.snap" "$work/doc.wal.snap" <<'EOF'
import sys
text = open(sys.argv[1], "rb").read()
body = text[:text.rindex(b"\nfnv=") + 1]
lines = body.split(b"\n")
vcpus = int(next(l for l in lines if l.startswith(b"vcpus="))[6:])
c = next(i for i, l in enumerate(lines) if l.startswith(b"c "))
words = lines[c].split(b" ")
words[-1] = str(vcpus).encode()
lines[c] = b" ".join(words)
body = b"\n".join(lines)
h = 0xcbf29ce484222325
for byte in body:
    h = ((h ^ byte) * 0x100000001b3) % 2**64
open(sys.argv[2], "wb").write(body + b"fnv=%016x\n" % h)
EOF
  rc=0
  ASAN_OPTIONS=abort_on_error=1 "$vc2m" serve "${args[@]}" \
    --journal "$work/doc.wal" --recover --json "$work/doctored.json" \
    > /dev/null 2> "$work/doc-err.txt" || rc=$?
  [ "$rc" -eq 0 ] && grep -q "snapshot .* did not parse" "$work/doc-err.txt" \
    && cmp "$work/doctored.json" "$work/base.json" \
    || { echo "doctored snapshot: rc $rc, want 0, a warning and the baseline:"
         cat "$work/doc-err.txt"; return 1; }

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
      flip_random_byte "$work/fuzz.wal" "$jsize"
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
  # --inner-jobs must be >= 0; a seed of 2^53 or more would not survive
  # the report's JSON number; a trace spec may not hold an empty item.
  expect_exit_2 "$vc2m" "bad value" \
    "serve --trace $trace --seed 12x" "generate --util nan" \
    "generate --vms 1e3" "experiment --jobs 2.5" \
    "serve --trace $trace --snapshot-every -1" \
    "serve --trace $trace --deadline-us 5ms" \
    "serve --trace $trace --backoff-us abc" \
    "serve --trace $trace --max-retries two" \
    "serve --trace $trace --queue-cap 0x10" \
    "serve --trace $trace --inner-jobs -1" \
    "serve --trace $trace --seed 9007199254740992" \
    "generate --vms +5" "serve --trace poisson:requests=5," \
    "experiment --preset nope"

  echo "--- strict flags: a flag the subcommand does not read exits 2 ---"
  # experiment reads --json (a bench report); a preset fixes the sweep
  # flags; --csv-dir needs a preset and --fault-horizon needs --faults.
  expect_exit_2 "$vc2m" "does not apply" \
    "experiment --tasksets 1 --journal $work/exp.wal" \
    "experiment --preset fig4 --platform B --csv-dir $work/csv" \
    "experiment --tasksets 1 --csv-dir $work/csv" \
    "experiment --tasksets 1 --fault-horizon 2" \
    "profiles --journal $work/x.wal --crash-at bogus" \
    "solutions --jobs 3 --trace $work/x" \
    "perfdiff $work/base.json $work/base.json --jobs 3" \
    "generate --util 0.5 --journal $work/x.wal" \
    "scenario show scenarios/cache-thrash-storm.json --jobs 2" \
    "validate $work/base.json --json $work/v.json"
  for f in exp.wal x.wal x v.json csv; do
    [ ! -e "$work/$f" ] || { echo "a refused command wrote $f"; return 1; }
  done

  echo "--- help: --help, -h and help print the usage to stdout, exit 0 ---"
  # The same text a usage error prints to stderr.
  "$vc2m" > /dev/null 2> "$work/usage.txt" || true
  local h
  for h in --help -h help "serve --help"; do
    # shellcheck disable=SC2086  # the row is split into words on purpose
    "$vc2m" $h > "$work/help.out" 2> "$work/help.err" \
      || { echo "vc2m $h: exit $?, want 0"; return 1; }
    cmp -s "$work/help.out" "$work/usage.txt" && [ ! -s "$work/help.err" ] \
      || { echo "vc2m $h: stdout is not the usage text"; return 1; }
  done
  echo "--- serve smoke passed ---"
}

telemetry_smoke() {
  # $1 = build dir with a tools/vc2m binary. Exercises the runtime
  # telemetry (docs/telemetry.md) from the outside: instrumentation must
  # not perturb the deterministic artifacts, the timeline must pass
  # `vc2m validate` and be bit-identical across --inner-jobs and across a
  # real crash + --recover, the `vc2m timeline` reader must survive corrupted
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

  echo "--- timeline passes vc2m validate ---"
  "$vc2m" validate "$work/t.bin"
  head -c -5 "$work/t.bin" > "$work/t_torn.bin"
  rc=0
  "$vc2m" validate "$work/t_torn.bin" > /dev/null 2>&1 || rc=$?
  [ "$rc" -eq 1 ] \
    || { echo "truncated timeline: validate rc $rc, want 1"; return 1; }

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
    "$vc2m" validate "$work/c.wal.spans" > /dev/null \
      || { echo "$crash: the span dump fails vc2m validate"; return 1; }
    # A header count off by one and a dump cut mid-line must both fail: a
    # flipped byte need not, since a flipped digit in a span still parses.
    awk 'NR == 1 { $2 += 1 } { print }' "$work/c.wal.spans" \
      > "$work/spans_miscounted"
    head -c -3 "$work/c.wal.spans" > "$work/spans_cut"
    for bad in spans_miscounted spans_cut; do
      rc=0
      "$vc2m" validate "$work/$bad" > /dev/null 2>&1 || rc=$?
      [ "$rc" -eq 1 ] \
        || { echo "$crash: $bad: validate rc $rc, want 1"; return 1; }
    done
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
      flip_random_byte "$work/fuzz.bin" "$tsize"
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
  # $1 = build dir with bench/bench_micro_ops,
  # bench/bench_table1_regulator_overhead and tools/vc2m binaries.
  local vc2m="$1/tools/vc2m"
  local work; work="$(mktemp -d)"
  trap 'rm -rf "$work"' RETURN

  echo "--- preset flags: out-of-range counts exit 2 before any sweep ---"
  # Both once narrowed silently: 2^32 + 1 tasksets ran one per point and
  # 2^32 jobs became 0 (hardware concurrency).
  expect_exit_2 "$vc2m" "bad value" \
    "experiment --preset fig4 --tasksets 4294967297 --csv-dir $work/csv" \
    "experiment --preset fig4 --jobs 4294967296 --csv-dir $work/csv"
  [ ! -e "$work/csv" ] || { echo "a refused preset made its CSV dir"; return 1; }

  echo "--- a bench refuses a flag it does not read ---"
  expect_exit_2 "$1/bench/bench_table1_regulator_overhead" "does not apply" \
    "--json $work/t1.json"
  [ ! -e "$work/t1.json" ] || { echo "a refused bench wrote t1.json"; return 1; }

  echo "--- --preset fig2 writes its CSVs and a valid bench report ---"
  "$vc2m" experiment --preset fig2 --tasksets 2 --step 0.5 \
    --csv-dir "$work/fig2" --json "$work/BENCH_fig2.json" > /dev/null 2>&1
  for f in fig2a_platform_A fig2b_platform_B fig2c_platform_C; do
    [ -s "$work/fig2/$f.csv" ] || { echo "--preset fig2 wrote no $f.csv"; return 1; }
  done
  "$vc2m" validate "$work/BENCH_fig2.json"

  echo "--- a multi-sweep preset's pool covers every sweep ---"
  local p
  for p in A B C; do
    "$vc2m" experiment --platform "$p" --tasksets 2 --step 0.5 \
      --json "$work/BENCH_$p.json" > /dev/null 2>&1
  done
  python3 - "$work"/BENCH_{fig2,A,B,C}.json <<'EOF'
import json, sys
executed = [sum(w["executed"] for w in json.load(open(f))["pool"]["workers"])
            for f in sys.argv[1:]]
if executed[0] != sum(executed[1:]):
    sys.exit(f"fig2 pool executed {executed[0]}, its three sweeps "
             f"{executed[1:]}")
EOF

  echo "--- perfdiff: plain experiments of different sweeps differ in config ---"
  "$vc2m" experiment --tasksets 2 --step 0.5 --jobs 1 \
    --json "$work/BENCH_uniform.json" > /dev/null 2>&1
  "$vc2m" experiment --tasksets 2 --step 0.5 --jobs 1 --dist heavy --vms 4 \
    --json "$work/BENCH_heavy.json" > /dev/null 2>&1
  rc=0
  "$vc2m" perfdiff "$work/BENCH_uniform.json" "$work/BENCH_heavy.json" \
    > "$work/sweeps.out" 2>&1 || rc=$?
  [ "$rc" -eq 2 ] && grep -q "dist: 'uniform' vs 'heavy'" "$work/sweeps.out" \
    && grep -q "vms: '1' vs '4'" "$work/sweeps.out" \
    || { echo "perfdiff compared unlike sweeps (exit $rc):"
         cat "$work/sweeps.out"; return 1; }

  "$1/bench/bench_micro_ops" --smoke --json "$work/BENCH_smoke.json" \
    > /dev/null

  echo "--- bench report passes vc2m validate ---"
  "$vc2m" validate "$work/BENCH_smoke.json"
  grep -q '^  {"name": ' "$work/BENCH_smoke.json" \
    || { echo "empty phase profile"; return 1; }
  grep -q '"solve_seconds": {' "$work/BENCH_smoke.json" \
    || { echo "missing solve_seconds histogram"; return 1; }

  echo "--- perfdiff: self-compare must pass ---"
  "$vc2m" perfdiff "$work/BENCH_smoke.json" "$work/BENCH_smoke.json" \
    > /dev/null \
    || { echo "perfdiff self-compare reported a regression"; return 1; }

  echo "--- perfdiff: unlike reports are refused unless --force ---"
  python3 - "$work/BENCH_smoke.json" "$work/BENCH_jobs1.json" \
      "$work/BENCH_jobs4.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
for path, jobs in ((sys.argv[2], "1"), (sys.argv[3], "4")):
    r["config"] = dict(sorted({**r["config"], "jobs": jobs}.items()))
    json.dump(r, open(path, "w"))
EOF
  rc=0
  "$vc2m" perfdiff "$work/BENCH_jobs1.json" "$work/BENCH_jobs4.json" \
    > "$work/unlike.out" 2>&1 || rc=$?
  [ "$rc" -eq 2 ] && grep -q "jobs: '1' vs '4'" "$work/unlike.out" \
    || { echo "perfdiff compared reports of unlike configs (exit $rc)"; \
         return 1; }
  "$vc2m" perfdiff "$work/BENCH_jobs1.json" "$work/BENCH_jobs4.json" \
    --force > /dev/null 2>&1 \
    || { echo "perfdiff --force refused unlike reports"; return 1; }

  echo "--- perfdiff: synthetic 3x phase regression must fail ---"
  python3 - "$work/BENCH_smoke.json" "$work/BENCH_regressed.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
for p in r["phases"]:
    p["total_sec"] *= 3
json.dump(r, open(sys.argv[2], "w"))
EOF
  # The smoke phases are milliseconds long, under perfdiff's default
  # 10 ms floor; 0.1 ms keeps the synthetic regression above it.
  if "$vc2m" perfdiff "$work/BENCH_smoke.json" \
      "$work/BENCH_regressed.json" --min-abs-sec 0.0001 > /dev/null; then
    echo "perfdiff failed to flag a 3x phase-time regression"
    return 1
  fi
  echo "--- perf smoke passed ---"
}

perf_gate() {
  # A same-host gate on the Fig-4 sweep (50 tasksets/point, step 0.05,
  # seed 42, --jobs 1, plain RelWithDebInfo builds: sanitizer overhead
  # would drown the wall time it compares). The change under test is the
  # working tree; its base is the merge-base of HEAD with the branch the
  # change targets ($1, else the current branch's upstream), so a change
  # of several commits is gated as a whole. With no target, or nothing
  # between the base and the working tree, the stage fails rather than
  # guess a base. The base commit is built from a temporary git worktree,
  # and the two sides run the sweep n times each, alternating which goes
  # first.
  #
  # A phase fails when its fastest run is slower than the base's fastest
  # by more than the larger of 10% and 1 ms, below which a whole-sweep
  # phase total is scheduler jitter. Other load on the host only adds
  # time, so each side's fastest of n runs is its least disturbed one;
  # on a shared 4-core VM, medians of five runs moved up to 12% between
  # two builds of the same code, past any spread allowance that still
  # caught a 20% slowdown of one phase. The deterministic effort
  # counters of the change's first run must equal the committed current
  # report exactly. On 4 shared cores the stage takes 65–85 s with
  # build-perf/ built and about 2.5 minutes with both builds from scratch.
  local dir=build-perf n=5 target="${1:-}" base
  if [ -z "$target" ]; then
    target="$(git rev-parse --abbrev-ref --symbolic-full-name '@{upstream}' \
      2>/dev/null)" \
      || { echo "perf: the branch has no upstream; name the target branch" \
                "with perf=REF"; exit 1; }
  fi
  base="$(git merge-base HEAD "$target")" \
    || { echo "perf: no merge-base of HEAD and '$target'"; exit 1; }
  if [ "$base" = "$(git rev-parse HEAD)" ] && git diff --quiet HEAD --; then
    echo "perf: nothing to gate: HEAD is the merge-base with '$target'" \
         "and no tracked file is edited"
    exit 1
  fi
  local work; work="$(mktemp -d)"
  # An EXIT trap, not RETURN: under set -e a failing step leaves the
  # script without returning, and the worktree must go either way.
  local cleanup="git worktree remove --force '$work/base-src' \
    >/dev/null 2>&1 || true; rm -rf '$work'"
  trap "$cleanup" EXIT
  local start=$SECONDS
  echo "=== perf: build the change (${dir}/) ==="
  cmake -B "$dir" -S . >/dev/null
  cmake --build "$dir" -j "$(nproc)" --target vc2m >/dev/null
  echo "=== perf: build the base ${base:0:12}, merge-base with ${target} (temporary worktree) ==="
  git worktree add --detach "$work/base-src" "$base" >/dev/null 2>&1
  cmake -B "$work/base-build" -S "$work/base-src" >/dev/null
  cmake --build "$work/base-build" -j "$(nproc)" --target vc2m >/dev/null
  echo "=== perf: Fig-4 sweep, ${n} alternating runs per side ==="
  local i side bin order
  mkdir -p "$work/csv"
  for ((i = 0; i < n; ++i)); do
    order="base head"
    [ $((i % 2)) -eq 1 ] && order="head base"
    for side in $order; do
      bin="$dir/tools/vc2m"
      [ "$side" = base ] && bin="$work/base-build/tools/vc2m"
      # stderr holds the sweep's progress line; show it only on failure.
      "$bin" experiment --preset fig4 --jobs 1 --csv-dir "$work/csv" \
        --json "$work/$side$i.json" > /dev/null 2> "$work/err" \
        || { cat "$work/err" >&2; exit 1; }
    done
  done
  echo "=== perf: deterministic counters vs bench_results/BENCH_fig4_current.json ==="
  # Effort counters do not depend on the host or the clock: any change in
  # them is a change in what the allocator does, so they must match the
  # committed report exactly.
  python3 - bench_results/BENCH_fig4_current.json "$work/head0.json" <<'EOF'
import json, sys
want = json.load(open(sys.argv[1]))["counters"]
got = json.load(open(sys.argv[2]))["counters"]
exact = ["dbf_evaluations", "budget_evaluations", "budget_cache_hits",
         "admission_tests", "admission_passed",
         "kmeans_runs", "kmeans_iterations", "kmeans_final_shift",
         "load_cache_hits", "partition_grants", "candidate_packings",
         "vcpu_migrations", "soa_rebuilds", "arena_bytes"]
moved = [f"{k}: committed {want.get(k)}, fresh {got.get(k)}"
         for k in exact if k not in want or want.get(k) != got.get(k)]
if moved:
    print("deterministic counters moved:\n  " + "\n  ".join(moved))
    sys.exit(1)
EOF
  echo "=== perf: fastest phase times of ${n} runs, change vs base ==="
  python3 - "$work" "$n" <<'EOF'
import json, sys
work, n = sys.argv[1], int(sys.argv[2])

def phases(path):
    out = {}
    def walk(nodes, prefix):
        for p in nodes:
            name = prefix + "/" + p["name"]
            out[name] = p["total_sec"]
            walk(p.get("children", []), name)
    walk(json.load(open(path))["phases"], "")
    return out

base = [phases(f"{work}/base{i}.json") for i in range(n)]
head = [phases(f"{work}/head{i}.json") for i in range(n)]
failed = []
print(f"{'phase':56} {'base s':>8} {'change s':>8} {'limit s':>8}")
for name in sorted(set.intersection(*map(set, base + head))):
    mb = min(r[name] for r in base)
    mh = min(r[name] for r in head)
    allowed = max(0.10 * mb, 0.001)
    regressed = mh - mb > allowed
    if regressed:
        failed.append(name)
    if mb >= 0.01 or regressed:
        print(f"{name:56} {mb:8.4f} {mh:8.4f} {mb + allowed:8.4f}"
              + ("  REGRESS" if regressed else ""))
if failed:
    print("regressed past max(10%, 1 ms): " + ", ".join(failed))
    sys.exit(1)
EOF
  eval "$cleanup"
  trap - EXIT
  echo "--- perf gate passed ($((SECONDS - start)) s) ---"
}

deadcode_probe() {
  # The libraries hold only what the product runs. Builds the product
  # binaries (vc2m, the five table benches, and perfbench_runner from
  # perfbench/CMakeLists.txt) at -O0 with one section per function and
  # --gc-sections, in a temporary directory, then lists every strong
  # function of libvc2m_*.a that no binary keeps. -O0, because inlining
  # hides callers: at RelWithDebInfo a function whose every call was
  # inlined also drops out. Tests, examples and bench_micro_ops do not
  # count as callers; the reference kernels they use live in
  # tests/oracle/ and examples/vcat.*. Fails on any name outside the
  # exceptions below, each kept on purpose.
  local allowed=(
    vc2m::sim::profile_surface  # for `vc2m audit --exec physical`
    vc2m::sim::Simulation::schedule_cache_update  # DES mechanics, pinned by
    vc2m::sim::Simulation::schedule_vcpu_update   # GoldenTrace and vCAT
  )
  local benches=(bench_table1_regulator_overhead
                 bench_table2_scheduler_overhead bench_wcet_isolation
                 bench_ablation_allocator bench_optimality_gap)
  local flags=(-DCMAKE_BUILD_TYPE=Debug
               "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -ffunction-sections -fdata-sections"
               "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
  local work; work="$(mktemp -d)"
  trap 'rm -rf "$work"' RETURN
  echo "=== deadcode: build at -O0 with --gc-sections (${work}/) ==="
  cmake -B "$work/main" -S . "${flags[@]}" > /dev/null
  cmake --build "$work/main" -j "$(nproc)" --target vc2m "${benches[@]}" \
    > /dev/null
  cmake -B "$work/perf" -S perfbench "${flags[@]}" > /dev/null
  cmake --build "$work/perf" -j "$(nproc)" --target perfbench_runner \
    > /dev/null
  local bins=("$work/main/tools/vc2m" "$work/perf/perfbench_runner") b
  for b in "${benches[@]}"; do bins+=("$work/main/bench/$b"); done

  echo "=== deadcode: library functions no product binary keeps ==="
  nm --defined-only "$work"/main/src/*/libvc2m_*.a |
    awk '$2 == "T" { print $3 }' | sort -u > "$work/library.txt"
  for b in "${bins[@]}"; do nm --defined-only "$b"; done |
    awk '{ print $NF }' | sort -u > "$work/kept.txt"
  comm -23 "$work/library.txt" "$work/kept.txt" | c++filt | sort -u \
    > "$work/unreached.txt"
  echo "$(c++filt < "$work/library.txt" | sort -u | wc -l) strong" \
    "functions, $(wc -l < "$work/unreached.txt") unreached:"
  sed 's/^/  /' "$work/unreached.txt"
  # A name is the signature up to its parameter list.
  local unlisted
  unlisted="$(printf '%s\n' "${allowed[@]}" |
    awk 'NR == FNR { ok[$0] = 1; next }
         { name = $0; sub(/\(.*/, "", name); if (!(name in ok)) print }' \
      - "$work/unreached.txt")"
  if [ -n "$unlisted" ]; then
    echo "unreached library functions outside the exceptions:"
    echo "$unlisted"
    echo "delete each, move it to its test or example, or give it a caller"
    return 1
  fi
  echo "--- deadcode probe passed ---"
}

for san in "${sanitizers[@]}"; do
  case "$san" in
    perf)   perf_gate; continue ;;
    perf=*) perf_gate "${san#perf=}"; continue ;;
  esac
  if [ "$san" = deadcode ]; then
    deadcode_probe
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
    # The intra-solve min-budget striping (--inner-jobs) shares a group's
    # stream, job counts and memo keys, read-only, and per-stripe arenas
    # across the inner pool; the golden grid drives sweeps at jobs x
    # inner-jobs combinations under TSan to prove the surface pass's latch
    # + serial reduction are race-free.
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
    echo "=== ${san}: trace-check fuzz ==="
    trace_check_fuzz "$dir"
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
