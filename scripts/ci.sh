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
# Fixture refresh knobs (intentional, reviewed updates only):
#   UPDATE_GOLDEN=1      cargo test --workspace    (golden traces and
#                                                  SECURITY_matrix.json)
#   UPDATE_MODEL_LOCK=1  scripts/ci.sh --stage model-lock
set -euo pipefail
SELF="$(cd "$(dirname "$0")" && pwd)/$(basename "$0")"
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT

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

# desc: full workspace tests, golden traces and security matrix included (UPDATE_GOLDEN=1)
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

# desc: run dossiers pass every gate; doctored copies fail it (exit 2)
stage_dossier() {
    # One forensic run directory: ms-report renders every section its
    # files support and every gate passes (exit 0).
    # Each gate must then fail a doctored copy of a real run directory
    # with exactly exit 2, naming the gate and what broke; an impossible
    # SLO is a gate failure too, and a missing directory is bad input (1).
    local sim=(cargo run -q --release -p ms-cli --bin minesweeper-sim --)
    local report=(cargo run -q --release -p ms-cli --bin ms-report --)
    local run="$smoke_dir/run" line rc
    "${sim[@]}" run demo --system ms --forensics full --out "$run" > /dev/null
    test -s "$run/trace.jsonl" || { echo "run dir has no trace"; exit 1; }
    test -s "$run/metrics.json" || { echo "run dir has no metrics"; exit 1; }
    grep -q '"ledger_entries"' "$run/trace.jsonl" \
        || { echo "forensic trace missing ledger snapshots"; exit 1; }
    "${report[@]}" "$run" --check --slo stw=999999999999,sweep=999999999999,qratio=1000 \
        > "$smoke_dir/run.txt" \
        || { cat "$smoke_dir/run.txt"; echo "clean run dossier must exit 0"; exit 1; }
    for line in "== timeline ==" "== failed frees ==" "== quarantine ==" \
        "== pinners ==" "== failed-free detail ==" "== pauses ==" "== cost ledger ==" \
        "== slo ==" "pinned sites" "defence cost ledger:" "pinned bytes" \
        "trace-reconcile: ok" "mark-accounting: ok" "cost-conservation: ok" "slo: ok"; do
        grep -qF "$line" "$smoke_dir/run.txt" || { echo "run dossier missing: $line"; exit 1; }
    done
    # doctor NAME SRC FILE SED GATE_LINE: copy run dir SRC, edit FILE with
    # SED, and require --check to exit 2 printing GATE_LINE.
    doctor() {
        local bad="$smoke_dir/bad_$1" rc=0
        rm -rf "$bad"
        cp -r "$2" "$bad"
        sed -i "$4" "$bad/$3"
        ! cmp -s "$2/$3" "$bad/$3" || { echo "doctoring $1 changed nothing"; exit 1; }
        "${report[@]}" "$bad" --check > "$bad.txt" 2>&1 || rc=$?
        [ "$rc" -eq 2 ] || { cat "$bad.txt"; echo "doctored $1 must exit 2 (got $rc)"; exit 1; }
        grep -qF "$5" "$bad.txt" || { cat "$bad.txt"; echo "doctored $1 must name: $5"; exit 1; }
        ! grep -q USAGE "$bad.txt" || { echo "a failed gate prints no usage text"; exit 1; }
    }
    local counter='"subsystem": "%s", "name": "%s", "value": '
    doctor released "$run" metrics.json "s/\($(printf "$counter" layer released)\)/\11/" \
        "trace-reconcile: FAILED: released: events say"
    doctor words "$run" trace.jsonl '0,/"words": /s//"words": 1/' \
        "mark-accounting: FAILED: sweep 1:"
    doctor site "$run" metrics.json "s/\($(printf "$counter" cost site_none_cycles)\)/\11/" \
        "cost-conservation: FAILED: site dimension sums to"
    local hist='"subsystem": "%s", "name": "%s", "sum": '
    doctor kind "$run" metrics.json "s/\($(printf "$hist" cost kind_zeroing_cycles_hist)\)/\11/" \
        "cost-conservation: FAILED: kind dimension sums to"
    rc=0
    "${report[@]}" "$run" --slo sweep=1 > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 2 ] || { echo "impossible SLO policy must breach with exit 2 (got $rc)"; exit 1; }
    rc=0
    "${report[@]}" "$smoke_dir/no_such_run" --check > /dev/null 2>&1 || rc=$?
    [ "$rc" -eq 1 ] || { echo "a missing run dir must exit 1 (got $rc)"; exit 1; }
}

# desc: sim run outputs and full-length traces match pinned sha256 sums (UPDATE_MODEL_LOCK=1)
stage_model_lock() {
    # Every system on the four profiles the end-to-end benchmark runs,
    # printed by the CLI: a change meant to be behaviour-neutral must
    # leave every byte alone. The scan-tier counter names the host's SIMD
    # level, so it is left out of the sum.
    local fixture=crates/sim/tests/fixtures/model_lock.sha256
    local sums="$smoke_dir/model_lock.sha256" bench system
    local sim=(cargo run -q --release -p ms-cli --bin minesweeper-sim --)
    : > "$sums"
    for bench in gcc omnetpp perlbench glibc-simple; do
        for system in baseline minesweeper minesweeper-mostly markus ffmalloc \
            scudo minesweeper-scudo crcount oscar psweeper dangsan; do
            "${sim[@]}" run "$bench" --system "$system" \
                | grep -v '^engine/scan_tier_' | sha256sum \
                | sed "s/-\$/$bench $system/" >> "$sums"
        done
    done
    # The full-length op stream of every profile `list` names. The trace
    # digest test caps its streams at 10,000 allocations; this catches a
    # generator divergence that shows only at full length.
    local trace="$smoke_dir/record.trace"
    for bench in $("${sim[@]}" list | awk '/^  / && !seen[$1]++ { print $1 }'); do
        "${sim[@]}" record "$bench" --seed 42 --out "$trace" > /dev/null
        sha256sum < "$trace" | sed "s/-\$/record $bench/" >> "$sums"
    done
    if [ "${UPDATE_MODEL_LOCK:-0}" = "1" ]; then
        cp "$sums" "$fixture"
        echo "model lock regenerated — review and commit the diff"
    fi
    diff "$fixture" "$sums" \
        || { echo "sim run output drifted from $fixture" \
             "(regenerate with UPDATE_MODEL_LOCK=1)"; exit 1; }
}

# desc: sweep kernel gate passes clean, fires on a 2x slowdown (exit 2)
stage_kernel_gate() {
    # sweep_bandwidth gates its own run: the SIMD tier's speed-up over the
    # scalar loop, a median of interleaved pairs within the run. A clean
    # run must pass; an injected 2x slowdown of the SIMD row must fail
    # exactly that gate with exit 2 (1 would mean bad input).
    local bench=(cargo run -q --release -p ms-bench --bin sweep_bandwidth --)
    "${bench[@]}" --pages 256 --reps 8 --out "$smoke_dir/bench.json" \
        > "$smoke_dir/bench.txt" \
        || { cat "$smoke_dir/bench.txt"; echo "clean run must pass the gate"; exit 1; }
    for key in dirty_pct incremental_d5 incremental_filtered_d5 words_per_sec \
        forensics_off forensics_sampled_s8 forensics_full simd_serial swar_serial \
        scalar_serial indexed_serial simd_vs_scalar tier_ratio_floor; do
        grep -q "$key" "$smoke_dir/bench.json" \
            || { echo "bench JSON missing $key"; exit 1; }
    done
    local rc=0
    "${bench[@]}" --pages 256 --reps 8 --handicap simd_serial:2.0 \
        --out "$smoke_dir/slow.json" > "$smoke_dir/slow.txt" || rc=$?
    [ "$rc" -eq 2 ] \
        || { echo "2x simd_serial must fail the tier-ratio gate with exit 2 (got $rc)"; exit 1; }
    grep -q "^kernel gate failed: tier-ratio\$" "$smoke_dir/slow.txt" \
        || { echo "2x simd_serial must fail exactly the tier-ratio gate"; exit 1; }
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

# desc: rustdoc builds with no broken intra-doc links and no public doc linking a private item
stage_rustdoc() {
    RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" cargo doc --workspace --no-deps -q
}

# desc: DESIGN.md section 7 modules and backticked doc paths resolve; no orphan names
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
    # Deleted names must not come back: those of the multi-tenant arena
    # subsystem, the `Id[S]et` alias the quarantine's and MarkUs's
    # `GranuleSet` replaced, the sweep profiler's (the sampler is the
    # one wall-time split), and those of the thread-pool marker and the
    # shadow map's shared writer (one thread marks), and those of the
    # security interpreter's second cost ledger (one recipe per system,
    # charged through `CostRecorder`), and those of the engine's linked
    # out-slot lists (one edge block per holder), and those of the shadow
    # map's two-level directory (a radix of 4 KiB nodes), and those of the
    # telemetry concurrency machinery and second SLO judge (one thread, one
    # counter type, `ms-report --slo` the only judge), and those of the
    # scan kernel's per-survivor visit loop (the kernel returns a page's
    # heap-word map and the sweep walks it). Each name carries a
    # one-letter bracket class so this line does not match itself.
    # jalloc's own jemalloc "arena" wording is not on the list.
    local orphans='Arena[I]d|Arena[P]ool|Arena[B]ackend|Sweep[S]cheduler|Sched[P]olicy'
    orphans+='|run_[a]renas|ARENA_[S]UBSYSTEM|cross_[a]rena|--[a]renas|arena-[s]hards'
    orphans+='|Id[S]et'
    orphans+='|Sweep[P]rof|Writer[P]rof|Mark[P]rofile|SWEEP_[S]UBSYSTEM|simd_serial_[p]rofiled'
    orphans+='|profiler_[c]ost|Helper[U]til|min_helper_[u]til'
    orphans+='|parallel_[m]ark_pool|Pool[M]arkJob|Pool[M]arkOpts|Parallel[M]arkStats'
    orphans+='|effective_helper_[c]ount|PARALLEL_[C]HUNK_PAGES|steal_[p]arallel|writer_[m]ut'
    orphans+='|atomic_[s]erial'
    orphans+='|Defence[C]ost|charge_[f]ree|charge_[s]weep_report|sweep_round_[s]etup'
    orphans+='|Edge[L]ist|Slot::[I]nObj'
    orphans+='|Level[2]|L1_[E]NTRIES|L2_[E]NTRIES|L2_[S]HIFT|l2_[c]ount'
    orphans+='|Owned[C]ounter|owned_[c]ounter|Watch[d]og|emit_[v]iolations|Slo[V]iolation'
    orphans+='|slo_[v]iolation|Slo[R]ecord|Ring[S]ink|set_slo_[p]olicy|set_cost_[l]edger'
    orphans+='|MsStats::quarantine_[p]ermille'
    orphans+='|for_each_in_[r]ange|scan_[w]ords|scan_[t]ail|scan_[s]war|scan_[a]vx2|scan_[s]se2'
    if git grep -nE "$orphans" -- crates src tests examples scripts DESIGN.md README.md; then
        echo "orphan references to deleted names (listed above)"
        missing=1
    fi
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
    dossier
    model-lock
    kernel-gate
    e2e-bench-smoke
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
