#!/usr/bin/env sh
# Tier-1 gate: everything CI runs, runnable locally in one shot.
# Fails fast on the first broken step.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy (deny warnings)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== cargo build --release"
# --workspace: the root manifest is also the umbrella package, and a
# bare `cargo build` would build only it — leaving the acc-lint and
# bench_wallclock binaries the later steps execute stale.
cargo build --release --workspace

echo "== acc-lint (static determinism/wire-safety invariants)"
./target/release/acc-lint

echo "== acc-verify --schedules --smoke (static collective-schedule proofs, p <= 64)"
# Proves leg pairing / deadlock-freedom, reduce conservation, failover
# tag headroom and CLB admissibility for every algorithm x op x p cell
# without running the engine. The nightly job extends this to p=4096.
./target/release/acc-verify --schedules --smoke --max-p 64 --quiet

echo "== golden manifest (figure/ablation/soak outputs at ACC_JOBS=1 and 2)"
# Hashes every fig*/ablation*/soak binary's stdout, stderr and exit
# code and compares them with the committed goldens.sha256; a change
# that moves any output must update the manifest and say why.
./scripts/goldens.sh

echo "== cargo test --workspace"
# --workspace: a bare `cargo test` runs only the umbrella package's
# tests; the member crates' suites (hang detection, hang minimization,
# campaign determinism, ...) would otherwise gate nothing.
cargo test --workspace -q

echo "== perfbench unit tests (the repo benchmark builds against this API)"
# perfbench is its own Cargo workspace, so `--workspace` above never
# compiles it; an acc-proto/acc-net API change that breaks the benchmark
# must fail here rather than when the benchmark is next run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== perfbench ledger smoke (every workload's simulated ledger)"
# Runs every benchmark workload, untraced and traced, and checks each
# run's simulated ledger against the values recorded in perfbench: a
# change that moves any workload's simulated time, phase breakdown or
# fault counters fails here. --seconds 0: no timing loop.
if ! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
    --workload all --seconds 0 > target/perfbench-smoke.log; then
    grep '^FAILED' target/perfbench-smoke.log
    exit 1
fi

echo "== cargo doc --workspace (deny warnings)"
# --workspace: a bare `cargo doc` documents only the umbrella package,
# so broken intra-doc links in the member crates would go unnoticed.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "== bench_wallclock --smoke --check (gating: per-point noise bounds)"
# ACC_JOBS=2 forces the threaded work-queue path even on one core, so
# the serial-vs-parallel determinism assert inside the binary always
# compares both executor code paths. --check gates: each point is
# compared against the median of the last five same-mode
# BENCH_history.jsonl entries and fails past ACC_BENCH_TOLERANCE_PCT
# (default 25%). ACC_BENCH_GATE=off reports without gating on
# known-noisy hosts.
ACC_JOBS=2 ./target/release/bench_wallclock --smoke --check

echo "== ablation_collectives --smoke (executor-fanned collective matrix)"
# Smoke sweep of the collective engine's full operation x algorithm x
# mode matrix; ACC_JOBS=2 for the same two-code-path reason as above.
ACC_JOBS=2 ./target/release/ablation_collectives --smoke > /dev/null

echo "== ablation_coll_faults --smoke (collective recovery-policy grid)"
# Smoke sweep of the fault-recovery grid: every collective survives a
# mid-schedule card kill under all three recovery policies.
ACC_JOBS=2 ./target/release/ablation_coll_faults --smoke > /dev/null

echo "== ablation_fabric_faults --smoke (multi-switch fault-tolerance grid)"
# Smoke sweep of the fabric grid: trunk outages and switch kills on a
# fat-tree, verified bit-correct under all three recovery policies.
ACC_JOBS=2 ./target/release/ablation_fabric_faults --smoke > /dev/null

echo "All tier-1 checks passed."
