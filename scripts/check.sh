#!/usr/bin/env bash
# Full local gate: format, lint, build, test — the same sequence CI runs.
# With --lint-only, stop after the static analysis pass (fast pre-commit).
# With --sim-only, lint and then run just the simulation-engine gate:
# the sim/metrics/runner test suites (event-vs-reference equivalence,
# fork-sweep bit-identity, grid worker invariance) — the fast loop when
# iterating on the discrete-event engine.
set -euo pipefail

cd "$(dirname "$0")/.."

lint_only=0
sim_only=0
for arg in "$@"; do
    case "$arg" in
        --lint-only) lint_only=1 ;;
        --sim-only) sim_only=1 ;;
        *) echo "usage: $0 [--lint-only|--sim-only]" >&2; exit 2 ;;
    esac
done

# Advisory only: the tree predates rustfmt enforcement, so drift is
# reported but does not fail the gate.
if command -v rustfmt >/dev/null 2>&1; then
    echo "==> cargo fmt --check (advisory)"
    drift=$(cargo fmt --all --check 2>/dev/null | grep -c '^Diff in' || true)
    if [ "$drift" -gt 0 ]; then
        echo "    warning: rustfmt would change $drift block(s); run 'cargo fmt --all'"
    fi
else
    echo "==> rustfmt not installed; skipping format check"
fi

echo "==> xtask lint"
cargo run -q -p xtask -- lint

if [ "$lint_only" -eq 1 ]; then
    echo "Lint passed (--lint-only: skipping build and tests)."
    exit 0
fi

if [ "$sim_only" -eq 1 ]; then
    echo "==> cargo test (simulation engine: sim + metrics + runner)"
    cargo test -q -p memdos-sim -p memdos-metrics -p memdos-runner
    echo "Simulation-engine gate passed (--sim-only: skipping the full workspace)."
    exit 0
fi

echo "==> cargo build --release"
cargo build --workspace --release

# Every package's suites, not just the root package's: the crate-level
# equivalence and fuzz suites (parser, binary wire, detector
# conformance) live under crates/*/tests.
echo "==> cargo test --workspace"
cargo test --workspace -q

# pipebench (the benchmark harness) is its own workspace calling the
# crates' public API, so a reshaped call would otherwise break it
# without failing anything above.
echo "==> cargo test (pipebench self-tests)"
cargo test --offline --manifest-path pipebench/Cargo.toml

# The property-based suite is feature-gated because the offline build
# environment cannot fetch the external proptest crate. Run it whenever
# the dependency has been restored under [dev-dependencies] — the
# section must be scoped, or the `proptest = []` entry under
# [features] matches and the step fails on the missing crate.
if sed -n '/^\[dev-dependencies\]/,/^\[/p' Cargo.toml | grep -Eq '^proptest *='; then
    echo "==> cargo test --features proptest --test properties"
    cargo test -q --features proptest --test properties
else
    echo "==> proptest not in [dev-dependencies]; skipping the property suite"
fi

echo "All checks passed."
