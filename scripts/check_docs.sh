#!/usr/bin/env bash
# Documentation lint, run by CI on every push.
#
# Usage: scripts/check_docs.sh [BUILD_DIR]
#
# Eight checks keep the docs from drifting away from the code:
#   1. every page under docs/ is linked from the README;
#   2. every relative markdown link (and every docs/X.md mention)
#      in README.md, DESIGN.md, and docs/ resolves to a real file;
#   3. every `--flag` mentioned in the docs exists in the --help
#      output of at least one built binary (so a renamed or removed
#      flag cannot survive in prose);
#   4. every /v1/* route registered in src/server/routes.cc is
#      mentioned in docs/SERVER.md (no undocumented endpoints);
#   5. every cluster flag (the --peers family) documented in
#      docs/SERVER.md appears in `bwwalld --help` specifically —
#      check 3 would also accept a flag that only bwwall_router
#      grew, which is exactly the drift this catches;
#   6. every metric name in a docs/OBSERVABILITY.md table appears as
#      a string literal in src/ or examples/ (so a deleted counter
#      cannot live on in the docs);
#   7. every X-BWWall-* header named in README.md, DESIGN.md, or
#      docs/ appears, case-insensitively, in src/ or examples/ (so a
#      deleted header cannot live on in the docs);
#   8. every `--flag` in the --help output of bwwalld and
#      bwwall_router is mentioned somewhere under docs/ (check 3 in
#      reverse: an operator can learn every daemon and router flag
#      from the docs).
set -euo pipefail

build_dir="${1:-build}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo_root"

failures=0
fail() {
    echo "FAIL: $*" >&2
    failures=$((failures + 1))
}

doc_files=(README.md DESIGN.md docs/*.md)

# --- 1. every docs page is reachable from the README -----------------
for page in docs/*.md; do
    if ! grep -q "$page" README.md; then
        fail "$page is not linked from README.md"
    fi
done

# --- 2. relative links and docs/X.md mentions resolve ----------------
for doc in "${doc_files[@]}"; do
    dir=$(dirname "$doc")
    # [text](target) markdown links, skipping absolute URLs/anchors.
    while IFS= read -r target; do
        case "$target" in
        # Absolute URLs, anchors, and GitHub-site-relative paths
        # (the CI badge) are not files in this repository.
        http://* | https://* | "#"* | ../../*) continue ;;
        esac
        target="${target%%#*}"
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
            fail "$doc links to missing file: $target"
        fi
    done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" |
        sed 's/.*(\(.*\))/\1/')
    # Prose mentions of docs pages ("see docs/SERVER.md").
    while IFS= read -r mention; do
        if [ ! -e "$mention" ]; then
            fail "$doc mentions missing page: $mention"
        fi
    done < <(grep -o 'docs/[A-Za-z0-9_]*\.md' "$doc" | sort -u)
done

# --- 3. documented flags exist in a binary's --help ------------------
# Flags used by external tools in CI/docs prose, not by our binaries.
allow_external='^--(help|version|dry-run|output-on-failure|test-dir|
build|benchmark_[a-z_]*|gtest_[a-z_]*|baselines|metrics|update)$'

help_binaries=(
    examples/bwwalld
    examples/bwwall_router
    examples/bwwall_client
    examples/design_explorer
    examples/cachesim_cli
    examples/experiment_runner
    examples/saturation_demo
    bench/fig01_powerlaw_validation
    bench/fig15_technique_comparison
    bench/fig16_combined_techniques
    bench/claim_bandwidth_saturation
    bench/perf_server
    bench/perf_ingest
    bench/perf_trace_overhead
)

if [ ! -d "$build_dir" ]; then
    echo "build dir '$build_dir' not found" >&2
    exit 2
fi

known_flags=$(mktemp)
trap 'rm -f "$known_flags"' EXIT
for binary in "${help_binaries[@]}"; do
    path="$build_dir/$binary"
    if [ ! -x "$path" ]; then
        fail "expected binary missing from build: $binary"
        continue
    fi
    timeout 20 "$path" --help 2>&1 |
        grep -o '\--[a-z][a-z0-9-]*' >>"$known_flags" || true
done
sort -u "$known_flags" -o "$known_flags"

doc_flags=$(grep -ho '\--[a-z][a-z0-9_-]*' "${doc_files[@]}" |
    sort -u)
for flag in $doc_flags; do
    if echo "$flag" |
        grep -qE "$(echo "$allow_external" | tr -d '\n')"; then
        continue
    fi
    if ! grep -qx -- "$flag" "$known_flags"; then
        fail "documented flag $flag not found in any --help output"
    fi
done

# --- 4. every /v1 route in routes.cc is documented -------------------
while IFS= read -r route; do
    if ! grep -qF -- "$route" docs/SERVER.md; then
        fail "route $route (src/server/routes.cc) is not" \
            "mentioned in docs/SERVER.md"
    fi
done < <(grep -o '"/v1[^"]*"' src/server/routes.cc |
    tr -d '"' | sort -u)

# --- 5. documented cluster flags exist in bwwalld --------------------
bwwalld_help=$(timeout 20 "$build_dir/examples/bwwalld" --help \
    2>&1 || true)
while IFS= read -r flag; do
    if ! echo "$bwwalld_help" | grep -qF -- "$flag"; then
        fail "cluster flag $flag in docs/SERVER.md is not in" \
            "bwwalld --help"
    fi
done < <(grep -o '\--\(peers\|self\|peer-[a-z-]*\)' \
    docs/SERVER.md | sort -u)

# --- 6. documented metrics exist as string literals ------------------
# Names assembled at run time from a prefix plus a fault point or a
# route ("faults.fired." + point, "server.endpoint." + path).
allow_runtime='^(faults\.fired|server\.endpoint)\.'
while IFS= read -r metric; do
    if echo "$metric" | grep -qE "$allow_runtime"; then
        continue
    fi
    if ! grep -rqF -- "\"$metric\"" src examples; then
        fail "metric $metric (docs/OBSERVABILITY.md) is not a" \
            "string literal in src/ or examples/"
    fi
done < <(grep '^|' docs/OBSERVABILITY.md |
    grep -o '`[a-z_][a-z0-9_]*\(\.[a-z0-9_]\+\)\+`' |
    tr -d '`' | sort -u)

# --- 7. documented X-BWWall-* headers exist in the code --------------
while IFS= read -r header; do
    if ! grep -rqiF -- "$header" src examples; then
        fail "header $header (docs) is not named in src/ or examples/"
    fi
done < <(grep -ohiE 'x-bwwall-[a-z0-9]+(-[a-z0-9]+)*' "${doc_files[@]}" |
    tr 'A-Z' 'a-z' | sort -u)

# --- 8. every daemon and router flag is documented -------------------
for binary in examples/bwwalld examples/bwwall_router; do
    [ -x "$build_dir/$binary" ] || continue # check 3 reported it
    while IFS= read -r flag; do
        [ "$flag" = --help ] && continue
        if ! grep -qE -- "$flag([^a-z0-9-]|\$)" docs/*.md; then
            fail "flag $flag ($(basename "$binary") --help) is not" \
                "documented under docs/"
        fi
    done < <(timeout 20 "$build_dir/$binary" --help 2>&1 |
        grep -o '\--[a-z][a-z0-9-]*' | sort -u)
done

if [ "$failures" -ne 0 ]; then
    echo "check_docs: $failures problem(s)" >&2
    exit 1
fi
echo "check_docs: all documentation checks passed"
