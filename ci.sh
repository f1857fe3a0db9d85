#!/usr/bin/env bash
# Repo CI gate: release build, the whole workspace's tests, the benchmark's
# compile surface, experiment smokes, and warning-clean rustdoc and clippy.
# Run from the repo root. PC_THREADS sets the kernel thread-pool width.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
# The root manifest's `default-members` make this the whole workspace:
# every crate's unit tests plus the identity, resilience, chaos, ops-plane,
# persistence and fleet suites under crates/*/tests.
cargo test -q
# The matmul, `exp`, softmax and activation arms must equal their scalar
# definitions, the attention tile its per-row oracle, and the heap BPE
# encoder its rank-replay oracle, in the optimised codegen that ships, not
# only in the debug build above.
cargo test -q --release -p pc-tensor
cargo test -q --release -p pc-model
cargo test -q --release -p pc-tokenizer
# Disk-record decoding must reject a hostile header, and the disk tier a
# crafted INDEX entry or a retired encoding byte, without panicking or
# allocating what the input does not hold — also where overflow checks
# are off, which is where an unchecked size product wraps silently.
cargo test -q --release -p pc-cache
# Relocated modules: the fidelity bounds of a canonical entry served at
# three offsets, and every session segment aliasing its one store entry,
# in the same optimised codegen.
cargo test -q --release -p prompt-cache --test deferred_rope_tests --test zero_copy_tests
# The batched server's two threads: a prefill handed to the admission
# thread must not stall the tick, and shutdown or drop with an admission
# in progress must resolve every handle — in the optimised codegen that
# ships, where the interleavings are tighter than in the debug build.
cargo test -q --release -p pc-server
# The chaos suite runs through the same two threads: concurrent prepares
# interleave fault occurrences there, and stalled pickups must still shed.
cargo test -q --release -p pc-faults --test chaos
# Every fleet shard is a batching server, so the fleet's seeded kills and
# stalls run through the same two threads plus the router thread.
cargo test -q --release -p pc-faults --test fleet_chaos
# benchmark/ is a separate package that binds to the public API by path: a
# deletion that breaks its compile surface, or a serve that stops answering
# correctly on any of its four workloads, fails here.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
# Its own unit tests: generator determinism, window maths, and metric
# tables equal to BENCHMARK.json.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
benchmark/smoke.sh
# Experiment smokes (quick mode writes no BENCH artifact): warm-vs-cold
# restart, whose warm run must re-encode nothing; fleet byte-identity at
# 1, 2 and 4 shards.
cargo run --release -q -p pc-bench --bin figures -- --quick persistence > /dev/null
cargo run --release -q -p pc-bench --bin figures -- --quick sharding > /dev/null
# Docs gate: rustdoc must stay warning-clean.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
# Every `unsafe` block states why it is sound in a `// SAFETY:` comment.
cargo clippy --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks
