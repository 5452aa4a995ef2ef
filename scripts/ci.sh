#!/usr/bin/env bash
# Offline CI gate, structured as named stages.
#
#   scripts/ci.sh                 run every stage, print a summary table
#   scripts/ci.sh --list          list stages with one-line descriptions
#   scripts/ci.sh --stage NAME    run one stage (repeatable, in order)
#
# Every stage runs in its own subshell under `set -euo pipefail`; the
# driver keeps going after a failure so one run reports every broken
# stage, then exits 1 if any failed. A full run must also leave
# `git status --porcelain` as it found it. No network access required —
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

# desc: sweep kernel gates pass clean, fire on a 2x slowdown (exit 2)
stage_kernel_gate() {
    # sweep_bandwidth gates its own run: the SIMD tier's speed-up over the
    # scalar loop and the profiler's cost, each a median of interleaved
    # pairs within the run. A clean run must pass both; an injected 2x
    # slowdown of one row must fail exactly its gate with exit 2 (1 would
    # mean bad input).
    local bench=(cargo run -q --release -p ms-bench --bin sweep_bandwidth --)
    "${bench[@]}" --pages 256 --reps 8 --out "$smoke_dir/bench.json" \
        > "$smoke_dir/bench.txt" \
        || { cat "$smoke_dir/bench.txt"; echo "clean run must pass both gates"; exit 1; }
    for key in requested_helpers effective_helpers degraded dirty_pct \
        incremental_d5 incremental_filtered_d5 words_per_sec forensics_off \
        forensics_sampled_s8 forensics_full simd_serial swar_serial \
        simd_serial_profiled steal_parallel simd_vs_scalar tier_ratio_floor \
        profiler_cost_ceiling arenas_n4_serial arenas_n16_barrier_h6 \
        arenas_n64_sched_h6 n16_sched_vs_serial; do
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
    local row gate rc
    for row in simd_serial:tier-ratio simd_serial_profiled:profiler-cost; do
        gate=${row#*:}
        rc=0
        "${bench[@]}" --pages 256 --reps 8 --handicap "${row%:*}:2.0" \
            --out "$smoke_dir/slow.json" > "$smoke_dir/slow.txt" || rc=$?
        [ "$rc" -eq 2 ] \
            || { echo "2x ${row%:*} must fail the $gate gate with exit 2 (got $rc)"; exit 1; }
        grep -q "^kernel gate failed: $gate\$" "$smoke_dir/slow.txt" \
            || { echo "2x ${row%:*} must fail exactly the $gate gate"; exit 1; }
    done
    # Exit-code contract: an unknown flag or a malformed value is 1.
    for bad in --bogus "--reps x" "--handicap simd_serial"; do
        rc=0
        # $bad is a word list of arguments: split it on purpose.
        "${bench[@]}" $bad > /dev/null 2>&1 || rc=$?
        [ "$rc" -eq 1 ] || { echo "sweep_bandwidth $bad must exit 1 (got $rc)"; exit 1; }
    done
}

# desc: end-to-end benchmark quick run passes its own checks; sampler smoke
stage_e2e_bench_smoke() {
    # All five BENCHMARK.json workloads, one stream and one rep each: the
    # benchmark builds from this checkout, replays every workload and
    # exits non-zero if any rep fails a digest, span or schema check.
    # Explicitly NOT a perf gate.
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
        run --quick --out "$smoke_dir/bench" > /dev/null
    # The SIGPROF sampler (x86-64 Linux only): a 1 s run must exit 0 with
    # at least one sampled leaf inside the executable's text mapping, and
    # a bad flag must exit 1.
    [ "$(uname -m)" = x86_64 ] || { echo "sampler smoke skipped: not x86-64"; return 0; }
    local sampler=(cargo run -q --release -p ms-bench --bin sample_profile --)
    "${sampler[@]}" --profile glibc-simple --system minesweeper --seconds 1 \
        > "$smoke_dir/samples.txt" 2> "$smoke_dir/samples.err" \
        || { cat "$smoke_dir/samples.err"; echo "sampler run must exit 0"; exit 1; }
    local text lo hi leaf rest in_text=0 rc=0
    text=$(sed -n 's/.*; text 0x\([0-9a-f]*\)-0x\([0-9a-f]*\);.*/\1 \2/p' "$smoke_dir/samples.err")
    [ -n "$text" ] || { cat "$smoke_dir/samples.err"; echo "sampler must name its text range"; exit 1; }
    read -r lo hi <<< "$text"
    while read -r leaf rest; do
        [ "$leaf" != "?" ] && (( 16#$leaf >= 16#$lo && 16#$leaf < 16#$hi )) \
            && { in_text=1; break; }
    done < "$smoke_dir/samples.txt"
    [ "$in_text" -eq 1 ] || { echo "no sampled leaf inside the text mapping"; exit 1; }
    "${sampler[@]}" --profile glibc-simple --system minesweeper --bogus 1 \
        > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 1 ] || { echo "sample_profile --bogus must exit 1 (got $rc)"; exit 1; }
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
    kernel-gate
    e2e-bench-smoke
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
    local tree_before
    tree_before=$(git status --porcelain)
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
    # A full run must leave the work tree as it found it: no stage may
    # write a tracked file or leave an untracked one behind. (Single
    # stages may: the UPDATE_* knobs refresh fixtures on purpose.)
    if [ "$full_run" -eq 1 ] && [ "$(git status --porcelain)" != "$tree_before" ]; then
        echo "work tree changed during the run:"
        diff <(echo "$tree_before") <(git status --porcelain) || true
        results+=("$(printf '%-20s %-6s' work-tree FAIL)")
        failed=1
    fi
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
    full_run=0
    run_stages "${selected[@]}"
else
    full_run=1
    run_stages "${STAGES[@]}"
fi
