#!/usr/bin/env bash
# Offline CI gate, structured as named stages.
#
#   scripts/ci.sh                 run every stage, print a summary table
#   scripts/ci.sh --list          list stages with one-line descriptions
#   scripts/ci.sh --stage NAME    run one stage (repeatable, in order)
#
# Every stage runs in its own subshell under `set -euo pipefail`; the
# driver keeps going after a failure so one run reports every broken
# stage, then exits 1 if any failed. No network access required —
# proptest/criterion resolve to the in-tree shim crates (crates/proptest,
# crates/criterion).
#
# Baseline refresh knobs (intentional, reviewed updates only):
#   UPDATE_GOLDEN=1            scripts/ci.sh --stage golden-traces
#   UPDATE_SECURITY_BASELINE=1 scripts/ci.sh --stage security
#   UPDATE_MODEL_LOCK=1        scripts/ci.sh --stage model-lock
set -euo pipefail
SELF="$(cd "$(dirname "$0")" && pwd)/$(basename "$0")"
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

# ---------------------------------------------------------------------------
# Shared artifact helpers: stages that consume another stage's output call
# these so any stage also works standalone via --stage.
# ---------------------------------------------------------------------------

ensure_demo_metrics() {
    [ -s "$smoke_dir/metrics.json" ] && return 0
    cargo run -q --release -p ms-cli --bin minesweeper-sim -- run demo \
        --system ms --trace-out "$smoke_dir/run.jsonl" \
        --metrics-out "$smoke_dir/metrics.json" > /dev/null
}

ensure_off_metrics() {
    [ -s "$smoke_dir/off_metrics.json" ] && return 0
    cargo run -q --release -p ms-bench --bin sweep_bandwidth -- \
        --pages 256 --reps 8 --out "$smoke_dir/off.json" \
        --metrics-out "$smoke_dir/off_metrics.json" > /dev/null
}

ensure_security_matrix() {
    [ -s "$smoke_dir/SECURITY_matrix.json" ] && return 0
    cargo run -q --release -p ms-cli --bin minesweeper-sim -- \
        exploit --corpus --seed 42 --fuzz 3 \
        --out "$smoke_dir/SECURITY_matrix.json" > /dev/null
}

# ---------------------------------------------------------------------------
# Stages. Each is a function stage_<name> (hyphens become underscores) with
# a `# desc:` line the --list output and the summary table pick up.
# ---------------------------------------------------------------------------

# desc: tier-1 release build
stage_build() {
    cargo build --release
}

# desc: tier-1 root-package tests
stage_root_tests() {
    cargo test -q
}

# desc: full workspace tests
stage_workspace_tests() {
    cargo test --workspace -q
}

# desc: core suite pinned to the portable SWAR scan tier
stage_swar_tests() {
    # The portable SWAR tier is what non-x86 targets run. Pinning the
    # dispatcher to it re-runs the whole core suite — including the
    # tier-differential proptests — without any platform SIMD.
    MS_SCAN_TIER=swar cargo test -q -p minesweeper > /dev/null \
        || { echo "core tests fail under the SWAR scan tier"; exit 1; }
}

# desc: traced run JSONL parses and reconciles with metrics
stage_telemetry_smoke() {
    ensure_demo_metrics
    test -s "$smoke_dir/run.jsonl" || { echo "empty trace"; exit 1; }
    test -s "$smoke_dir/metrics.json" || { echo "empty metrics"; exit 1; }
    cargo run -q --release -p ms-cli --bin ms-report -- "$smoke_dir/run.jsonl" \
        --metrics "$smoke_dir/metrics.json" --check \
        | grep -q "reconcile: trace totals match metrics counters" \
        || { echo "trace/metrics reconciliation failed"; exit 1; }
}

# desc: sharded-arena metrics render and reconcile
stage_arena_smoke() {
    # N tenants over one sharded pool: the metrics-only ms-report mode must
    # render the per-arena table, and --check must reconcile the per-shard
    # counters (copied from each layer) exactly against the independently
    # accumulated arena/total_* globals — a lost update on either path fails.
    cargo run -q --release -p ms-cli --bin minesweeper-sim -- run demo \
        --system ms --arenas 4 \
        --metrics-out "$smoke_dir/arena_metrics.json" > /dev/null
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --metrics "$smoke_dir/arena_metrics.json" --check \
        | grep -q "reconcile: arena shard counters match global totals" \
        || { echo "arena shard/global reconciliation failed"; exit 1; }
    # The qratio objective judges each shard separately on sharded
    # snapshots; a generous ceiling must still pass through that path.
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --slo qratio=1000 --metrics "$smoke_dir/arena_metrics.json" > /dev/null \
        || { echo "per-arena qratio SLO must pass a generous ceiling"; exit 1; }
}

# desc: forensic trace schema, pinner table and ledger reconcile
stage_forensics_smoke() {
    cargo run -q --release -p ms-cli --bin minesweeper-sim -- run demo \
        --system ms --forensics full --trace-out "$smoke_dir/forensic.jsonl" \
        --metrics-out "$smoke_dir/forensic_metrics.json" > /dev/null
    grep -q '"ledger_entries"' "$smoke_dir/forensic.jsonl" \
        || { echo "forensic trace missing ledger snapshots"; exit 1; }
    cargo run -q --release -p ms-cli --bin ms-report -- "$smoke_dir/forensic.jsonl" \
        --metrics "$smoke_dir/forensic_metrics.json" --pinners --failed-frees --check \
        > "$smoke_dir/forensic_report.txt" \
        || { echo "forensic report failed"; exit 1; }
    grep -q "pinned sites" "$smoke_dir/forensic_report.txt" \
        || { echo "forensic report missing pinner table"; exit 1; }
    grep -q "reconcile: trace totals match metrics counters" \
        "$smoke_dir/forensic_report.txt" \
        || { echo "forensic reconciliation failed"; exit 1; }
}

# desc: JSONL wire format matches committed fixtures (UPDATE_GOLDEN=1)
stage_golden_traces() {
    cargo test -q -p minesweeper --test golden_trace > /dev/null \
        || { echo "golden trace fixtures drifted"; exit 1; }
}

# desc: sim run outputs match pinned sha256 sums (UPDATE_MODEL_LOCK=1)
stage_model_lock() {
    # Every system on two SPEC profiles, printed by the CLI: a change meant
    # to be behaviour-neutral must leave every byte alone. The scan-tier
    # counter names the host's SIMD level, so it is left out of the sum.
    local fixture=crates/sim/tests/fixtures/model_lock.sha256
    local sums="$smoke_dir/model_lock.sha256" bench system
    : > "$sums"
    for bench in gcc omnetpp; do
        for system in baseline minesweeper minesweeper-mostly markus ffmalloc \
            scudo minesweeper-scudo crcount oscar psweeper dangsan; do
            cargo run -q --release -p ms-cli --bin minesweeper-sim -- \
                run "$bench" --system "$system" \
                | grep -v '^engine/scan_tier_' | sha256sum \
                | sed "s/-\$/$bench $system/" >> "$sums"
        done
    done
    if [ "${UPDATE_MODEL_LOCK:-0}" = "1" ]; then
        cp "$sums" "$fixture"
        echo "model lock regenerated — review and commit the diff"
    fi
    diff "$fixture" "$sums" \
        || { echo "sim run output drifted from $fixture" \
             "(regenerate with UPDATE_MODEL_LOCK=1)"; exit 1; }
}

# desc: bench schema keys present and degraded rows honest
stage_bench_smoke() {
    # One rep on the small fixture: asserts the bench runs end to end and
    # the JSON carries the expected schema. Explicitly NOT a perf gate.
    cargo run -q --release -p ms-bench --bin sweep_bandwidth -- \
        --quick --reps 1 --out "$smoke_dir/bench.json" \
        --metrics-out "$smoke_dir/bench_metrics.json" > /dev/null
    for key in requested_helpers effective_helpers degraded dirty_pct \
        incremental_d5 incremental_filtered_d5 words_per_sec forensics_off \
        forensics_sampled_s8 forensics_full simd_serial swar_serial \
        steal_parallel simd_vs_scalar \
        arenas_n4_serial arenas_n16_barrier_h6 arenas_n64_sched_h6 \
        n16_sched_vs_serial; do
        grep -q "$key" "$smoke_dir/bench.json" \
            || { echo "bench JSON missing $key"; exit 1; }
    done
    # Honesty gate: a parallel row the hardware clamped to zero helpers
    # ran serially and must say so via "degraded": true.
    if grep '"requested_helpers": [1-9]' "$smoke_dir/bench.json" \
        | grep '"effective_helpers": 0' \
        | grep -qv '"degraded": true'; then
        echo "bench rows with zero effective helpers must be flagged degraded"
        exit 1
    fi
    test -s "$smoke_dir/bench_metrics.json" || { echo "empty bench metrics"; exit 1; }
}

# desc: end-to-end benchmark quick run passes its own checks
stage_e2e_bench_smoke() {
    # All five BENCHMARK.json workloads, one stream and one rep each: the
    # benchmark builds from this checkout, replays every workload and
    # exits non-zero if any rep fails a digest, span or schema check.
    # Explicitly NOT a perf gate.
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        run --quick --out "$smoke_dir/bench" > /dev/null
}

# desc: profiler on/off bench pair within noise; appends trajectory
stage_profiler_pair() {
    # Off-vs-on bench pair over the same fixture: enabling the profiler
    # must not slow any non-degraded row beyond threshold + the pair's
    # measured noise (the disabled path is a single branch). The off run
    # also appends this CI run to the append-only bench trajectory.
    # Only the serial configs enter the gating history: parallel rows on
    # this shared host can run degraded (zero helpers), and degraded
    # samples would poison every later drift comparison.
    cargo run -q --release -p ms-bench --bin sweep_bandwidth -- \
        --pages 256 --reps 8 --out "$smoke_dir/off.json" \
        --metrics-out "$smoke_dir/off_metrics.json" \
        --trajectory BENCH_trajectory.jsonl \
        --trajectory-configs simd_serial,swar_serial > /dev/null
    grep -q '"git_rev"' BENCH_trajectory.jsonl \
        || { echo "trajectory line missing host metadata"; exit 1; }
    tail -n 1 BENCH_trajectory.jsonl | grep -q '"name": "simd_serial"' \
        || { echo "trajectory gating row simd_serial missing"; exit 1; }
    if tail -n 1 BENCH_trajectory.jsonl | grep -q '"degraded": true'; then
        echo "filtered trajectory line must not carry degraded rows"; exit 1
    fi
    # The whole history (old unfiltered lines included) must still render.
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --trajectory BENCH_trajectory.jsonl > /dev/null \
        || { echo "trajectory history failed to render"; exit 1; }
    cargo run -q --release -p ms-bench --bin sweep_bandwidth -- \
        --pages 256 --reps 8 --profiler --out "$smoke_dir/on.json" \
        --metrics-out "$smoke_dir/on_metrics.json" > /dev/null
    grep -q '"profiler": true' "$smoke_dir/on.json" \
        || { echo "bench JSON missing profiler host field"; exit 1; }
    # The off and on runs are minutes apart on a shared 1-CPU host, so a
    # multi-second contention window can swallow a whole block of configs
    # in one run only. One retry with a fresh pair tells drift from real
    # overhead: genuine profiler cost regresses both pairs.
    if ! cargo run -q --release -p ms-cli --bin ms-report -- \
        --compare "$smoke_dir/off_metrics.json" "$smoke_dir/on_metrics.json" \
        --threshold 10 > /dev/null; then
        echo "profiler pair regressed once — retrying with a fresh pair"
        cargo run -q --release -p ms-bench --bin sweep_bandwidth -- \
            --pages 256 --reps 8 --out "$smoke_dir/off.json" \
            --metrics-out "$smoke_dir/off_metrics.json" > /dev/null
        cargo run -q --release -p ms-bench --bin sweep_bandwidth -- \
            --pages 256 --reps 8 --profiler --out "$smoke_dir/on.json" \
            --metrics-out "$smoke_dir/on_metrics.json" > /dev/null
        cargo run -q --release -p ms-cli --bin ms-report -- \
            --compare "$smoke_dir/off_metrics.json" "$smoke_dir/on_metrics.json" \
            --threshold 10 > /dev/null \
            || { echo "profiler-on bench regressed beyond noise vs profiler-off"; exit 1; }
    fi
}

# desc: compare gate rejects an injected 2x slowdown (exit 2)
stage_bench_selftest() {
    ensure_off_metrics
    cargo run -q --release -p ms-bench --bin sweep_bandwidth -- \
        --pages 256 --reps 8 --handicap simd_serial:2.0 \
        --out "$smoke_dir/slow.json" \
        --metrics-out "$smoke_dir/slow_metrics.json" > /dev/null
    local rc=0
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --compare "$smoke_dir/off_metrics.json" "$smoke_dir/slow_metrics.json" \
        > "$smoke_dir/gate.txt" || rc=$?
    [ "$rc" -eq 2 ] \
        || { echo "compare gate must exit 2 on an injected 2x regression (got $rc)"; exit 1; }
    grep -q "REGRESSED" "$smoke_dir/gate.txt" \
        || { echo "gate output missing the REGRESSED verdict"; exit 1; }
}

# desc: noise-aware compare against the committed bench baseline
stage_bench_baseline() {
    # Same-host regressions beyond 25% + noise gate the build; cross-host
    # pairs (different CPU count or scan tier) downgrade to warnings. The
    # baseline was recorded minutes-to-months before this run on a shared
    # 1-CPU host, so one contention window can fake a regression in a
    # single rep block — a retry with a fresh measurement tells drift
    # from real cost, exactly like the profiler pair above.
    ensure_off_metrics
    if ! cargo run -q --release -p ms-cli --bin ms-report -- \
        --compare BENCH_baseline_metrics.json "$smoke_dir/off_metrics.json" \
        --threshold 25; then
        echo "baseline compare regressed once — retrying with a fresh run"
        cargo run -q --release -p ms-bench --bin sweep_bandwidth -- \
            --pages 256 --reps 8 --out "$smoke_dir/off.json" \
            --metrics-out "$smoke_dir/off_metrics.json" > /dev/null
        cargo run -q --release -p ms-cli --bin ms-report -- \
            --compare BENCH_baseline_metrics.json "$smoke_dir/off_metrics.json" \
            --threshold 25 \
            || { echo "bench regressed against the committed baseline"; exit 1; }
    fi
}

# desc: generous SLO passes, impossible SLO breaches (exit 2)
stage_slo_smoke() {
    ensure_demo_metrics
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --slo stw=999999999999,sweep=999999999999,qratio=1000 \
        --metrics "$smoke_dir/metrics.json" > /dev/null \
        || { echo "generous SLO policy must pass"; exit 1; }
    local rc=0
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --slo sweep=1 --metrics "$smoke_dir/metrics.json" > /dev/null || rc=$?
    [ "$rc" -eq 2 ] \
        || { echo "impossible SLO policy must breach with exit 2 (got $rc)"; exit 1; }
}

# desc: security matrix regenerates byte-identically and passes the gate
stage_security() {
    # The adversarial corpus is deterministic: the same seed must
    # reproduce the committed SECURITY_matrix.json byte for byte, and the
    # fresh matrix must show no verdict regression against the committed
    # SECURITY_baseline.json (minesweeper cells must stay non-Compromised
    # — the gate's hard floor). Refresh both intentionally with
    # UPDATE_SECURITY_BASELINE=1 after reviewing the verdict diff.
    ensure_security_matrix
    if [ "${UPDATE_SECURITY_BASELINE:-0}" = "1" ]; then
        cp "$smoke_dir/SECURITY_matrix.json" SECURITY_matrix.json
        cp "$smoke_dir/SECURITY_matrix.json" SECURITY_baseline.json
        echo "security baseline regenerated — review and commit the diff"
    fi
    cmp -s SECURITY_matrix.json "$smoke_dir/SECURITY_matrix.json" \
        || { echo "SECURITY_matrix.json drifted from the committed copy" \
             "(regenerate with UPDATE_SECURITY_BASELINE=1)"; exit 1; }
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --security "$smoke_dir/SECURITY_matrix.json" \
        --baseline SECURITY_baseline.json --check \
        || { echo "security verdict regression against the baseline"; exit 1; }
}

# desc: gate self-test — weakened run exits 2, bad input exits 1
stage_security_selftest() {
    # Prove the gate can actually fail: a corpus run with the quarantine
    # weakened must flip minesweeper cells to Compromised and the
    # ms-report gate must reject it with exactly exit code 2 (the
    # documented gate-failure code; 1 would mean bad input).
    ensure_security_matrix
    cargo run -q --release -p ms-cli --bin minesweeper-sim -- \
        exploit --corpus --seed 42 --fuzz 3 --weaken quarantine-off \
        --out "$smoke_dir/SECURITY_weak.json" > /dev/null
    local rc=0
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --security "$smoke_dir/SECURITY_weak.json" \
        --baseline SECURITY_baseline.json > "$smoke_dir/sec_gate.txt" || rc=$?
    [ "$rc" -eq 2 ] \
        || { echo "weakened matrix must fail the gate with exit 2 (got $rc)"; exit 1; }
    grep -q "COMPROMISED (hard floor)" "$smoke_dir/sec_gate.txt" \
        || { echo "gate output must name the hard-floor violation"; exit 1; }
    grep -q "verdict regressed" "$smoke_dir/sec_gate.txt" \
        || { echo "gate output must name the regressed scenarios"; exit 1; }
    # Exit-code contract: unreadable input is 1, a clean pass is 0.
    rc=0
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --security "$smoke_dir/does_not_exist.json" > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 1 ] || { echo "bad input must exit 1 (got $rc)"; exit 1; }
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --security "$smoke_dir/SECURITY_matrix.json" \
        --baseline SECURITY_baseline.json > /dev/null \
        || { echo "clean matrix must pass with exit 0"; exit 1; }
}

# desc: cost ledger reconciles; injected leak fails the gate (exit 2)
stage_costs() {
    # The defence-cost observatory's acceptance gate: a clean run's
    # ledger must reconcile across every attribution dimension, the
    # regenerated security matrix must carry per-cell defence costs
    # (schema 2), and deliberately dropping one kind's counter must make
    # `--costs --check` fail with exactly exit 2, naming the kind.
    ensure_demo_metrics
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --costs "$smoke_dir/metrics.json" --check > "$smoke_dir/costs.txt" \
        || { echo "clean cost ledger failed to reconcile"; exit 1; }
    grep -q "defence cost ledger:" "$smoke_dir/costs.txt" \
        || { echo "cost report missing the ledger header"; exit 1; }
    grep -q "reconcile: kind/site/arena" "$smoke_dir/costs.txt" \
        || { echo "cost report missing the reconcile line"; exit 1; }
    ensure_security_matrix
    grep -q '"schema": 2' "$smoke_dir/SECURITY_matrix.json" \
        || { echo "security matrix must be schema 2"; exit 1; }
    grep -q '"defence_cycles"' "$smoke_dir/SECURITY_matrix.json" \
        || { echo "security matrix cells missing defence_cycles"; exit 1; }
    # Leak self-test: drop the zeroing counter, the gate must fire.
    cargo run -q --release -p ms-cli --bin minesweeper-sim -- run demo \
        --system ms --cost-drop zeroing \
        --metrics-out "$smoke_dir/leaky_metrics.json" > /dev/null
    local rc=0
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --costs "$smoke_dir/leaky_metrics.json" --check \
        > "$smoke_dir/cost_leak.txt" || rc=$?
    [ "$rc" -eq 2 ] \
        || { echo "dropped-kind ledger must fail with exit 2 (got $rc)"; exit 1; }
    grep -q "zeroing" "$smoke_dir/cost_leak.txt" \
        || { echo "leak report must name the dropped kind"; exit 1; }
    # Exit-code contract: unreadable input is 1, not a gate failure.
    rc=0
    cargo run -q --release -p ms-cli --bin ms-report -- \
        --costs "$smoke_dir/does_not_exist.json" > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 1 ] || { echo "bad costs input must exit 1 (got $rc)"; exit 1; }
}

# desc: rustdoc builds with no broken intra-doc links
stage_rustdoc() {
    RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --workspace --no-deps -q
}

# desc: DESIGN.md section 7 modules and backticked doc paths resolve
stage_doc_modules() {
    # One "dir<TAB>token" line per backticked all-lowercase identifier of
    # each numbered crate entry; "**name (dir)**" maps to crates/dir.
    local dir tok missing=0
    while IFS=$'\t' read -r dir tok; do
        [ -f "crates/$dir/src/$tok.rs" ] || [ -f "crates/$dir/src/$tok/mod.rs" ] || {
            echo "DESIGN.md section 7, $dir: no module \`$tok\` in crates/$dir/src"
            missing=1
        }
    done < <(awk '
        function flush(  rest, tok) {
            rest = text
            while (match(rest, /`[^`]*`/)) {
                tok = substr(rest, RSTART + 1, RLENGTH - 2)
                rest = substr(rest, RSTART + RLENGTH)
                if (tok ~ /^[a-z0-9_]+$/) print dir "\t" tok
            }
            text = ""
        }
        /^## / { flush(); dir = ""; on = ($0 ~ /^## 7\./); next }
        !on { next }
        /^[0-9]+\. \*\*[^*]+\*\*/ {
            flush()
            dir = $0
            sub(/^[0-9]+\. \*\*/, "", dir)
            sub(/\*\*.*/, "", dir)
            if (match(dir, /\([a-z0-9_]+\)/)) dir = substr(dir, RSTART + 1, RLENGTH - 2)
        }
        dir != "" { text = text " " $0 }
        END { flush() }
    ' DESIGN.md)
    # Backticked Rust paths (`a::b`, `a::b::c`) in DESIGN.md and README.md
    # whose first segment is a workspace crate, or a type defined in
    # crates/*/src, must end in a module file or in a pub fn, const,
    # static, type, field or enum variant of that crate (of the crate
    # defining the type). Other paths (`thread::scope`, `Instant::now`)
    # belong to std and are skipped.
    local loc path first last dirs d
    while IFS=$'\t' read -r loc path; do
        first=${path%%::*}
        last=${path##*::}
        case "$first" in
            core | minesweeper) dirs=crates/core/src ;;
            sim | vmem | jalloc | baselines | workloads | telemetry | scudo) dirs=crates/$first/src ;;
            *) dirs=$(grep -rlE "^\s*(pub(\([a-z]+\))? )?(struct|enum|trait|type) $first\b" \
                   crates/*/src | cut -d/ -f1-3 | sort -u || true) ;;
        esac
        [ -n "$dirs" ] || continue
        for d in $dirs; do
            [ -f "$d/$last.rs" ] || [ -f "$d/$last/mod.rs" ] && continue 2
        done
        # $dirs is a word list of directories: split it on purpose.
        grep -rqE "\bpub(\([a-z]+\))? +(((const |unsafe |async )*fn|const|static|struct|enum|trait|type|mod) +$last\b|$last *:)" \
            $dirs && continue
        # Enum variants carry no `pub`: a capitalised line head will do.
        [[ "$last" =~ ^[A-Z] ]] && grep -rqE "^\s*$last\s*([,({]|$)" $dirs && continue
        echo "$loc: \`$path\` names no module or pub item in crates/*/src"
        missing=1
    done < <(grep -onE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+`' DESIGN.md README.md \
        | sed -E 's/^([^:]+:[0-9]+):`(.*)`$/\1\t\2/')
    [ "$missing" -eq 0 ] || exit 1
    echo "DESIGN.md section 7 module names and doc paths all resolve"
}

# desc: clippy with warnings denied
stage_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings
}

# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

STAGES=(
    build
    root-tests
    workspace-tests
    swar-tests
    telemetry-smoke
    arena-smoke
    forensics-smoke
    golden-traces
    model-lock
    bench-smoke
    e2e-bench-smoke
    profiler-pair
    bench-selftest
    bench-baseline
    slo-smoke
    security
    security-selftest
    costs
    rustdoc
    doc-modules
    clippy
)

desc_of() {
    grep -B1 "^stage_${1//-/_}()" "$SELF" | head -1 | sed 's/^# desc: //'
}

list_stages() {
    for s in "${STAGES[@]}"; do
        printf '%-20s %s\n' "$s" "$(desc_of "$s")"
    done
}

run_stages() {
    local names=("$@") failed=0
    local results=()
    for s in "${names[@]}"; do
        echo "== $s: $(desc_of "$s") =="
        local t0 t1 rc=0
        t0=$(date +%s)
        ( set -euo pipefail; "stage_${s//-/_}" ) || rc=$?
        t1=$(date +%s)
        if [ "$rc" -eq 0 ]; then
            results+=("$(printf '%-20s %-6s %4ss' "$s" PASS "$((t1 - t0))")")
        else
            results+=("$(printf '%-20s %-6s %4ss' "$s" FAIL "$((t1 - t0))")")
            failed=1
        fi
    done
    echo
    echo "stage                status  wall"
    echo "-----------------------------------"
    printf '%s\n' "${results[@]}"
    if [ "$failed" -ne 0 ]; then
        echo "CI FAILED"
        exit 1
    fi
    echo "CI OK"
}

selected=()
while [ $# -gt 0 ]; do
    case "$1" in
        --list)
            list_stages
            exit 0
            ;;
        --stage)
            shift
            [ $# -gt 0 ] || { echo "--stage needs a name"; exit 1; }
            found=0
            for s in "${STAGES[@]}"; do
                [ "$s" = "$1" ] && found=1
            done
            [ "$found" -eq 1 ] \
                || { echo "unknown stage: $1 (see --list)"; exit 1; }
            selected+=("$1")
            ;;
        *)
            echo "unknown argument: $1 (usage: ci.sh [--list] [--stage NAME]...)"
            exit 1
            ;;
    esac
    shift
done

if [ ${#selected[@]} -gt 0 ]; then
    run_stages "${selected[@]}"
else
    run_stages "${STAGES[@]}"
fi
