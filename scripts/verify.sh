#!/usr/bin/env bash
# Repo verification gate: formatting, lints, tier-1 build+test, full
# workspace tests. Run from anywhere; exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q (debug)"
cargo test -q

echo "==> tier-1: cargo test --release -q"
cargo test --release -q

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> non-test code lines per crate (informational)"
./scripts/loc.sh

echo "verify: OK"
