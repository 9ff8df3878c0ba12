#!/usr/bin/env bash
# Tier-1 verification: everything must pass offline on a clean checkout.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --workspace --all-targets -- -D warnings
cargo build --release --offline --workspace
cargo build --offline --examples
# The benchmark (hdbench/) is a workspace of its own that calls the library
# crates, so the workspace build above cannot see it break; build it here
# into the shared target directory.
cargo build --release --offline --manifest-path hdbench/Cargo.toml --target-dir target
cargo test -q --offline --workspace

# Observability: unit tests for the in-tree tracing/metrics crate, then an
# end-to-end smoke run of `detect --log-json --metrics-out` validated with
# the in-tree JSON parser, and the telemetry-on-error test: each of the
# eight subcommands, failing after its telemetry opened, must still leave a
# parseable --metrics-out snapshot and --trace-out file
# (crates/cli/tests/smoke.rs). Then the CLI property suite: the argument
# parser and JSON writer never panic, and the dispatcher returns exit
# 0/1/2 with output on seeded argument vectors over every subcommand
# (crates/cli/tests/proptests.rs).
cargo test -q --offline -p hdoutlier-obs
cargo test -q --offline -p hdoutlier-cli --test smoke
cargo test -q --offline -p hdoutlier-cli --test proptests

# Live telemetry: launch `stream --serve-metrics` on an ephemeral port,
# scrape /metrics over raw TCP (std-only client), assert the records
# counter and histogram buckets; validate `--trace-out` parses as Chrome
# trace-event JSON (crates/cli/tests/live.rs).
cargo test -q --offline -p hdoutlier-cli --test live

# Determinism: every pooled path (detect brute + seeded evolutionary,
# explain, baseline) must emit byte-identical --json reports at --threads
# 1/2/8 (crates/cli/tests/determinism.rs); the --batch equivalence of the
# shared scoring session (crates/stream/src/session.rs) is tested through
# both drivers, in the stream command's unit tests and in
# crates/serve/tests/serve.rs, covered by the workspace run.
cargo test -q --offline -p hdoutlier-cli --test determinism

# Fault tolerance: checkpoint atomicity under simulated kills
# (crates/stream/tests/faults.rs) and the scripted-I/O harness driving the
# stream error policies, circuit breaker, and kill/resume equivalence
# (crates/cli/tests/fault_injection.rs).
cargo test -q --offline -p hdoutlier-stream --test faults
cargo test -q --offline -p hdoutlier-cli --test fault_injection

# The serving stack, bottom-up: HTTP wire edge cases against the std-only
# server (fragmented reads, 413/431 caps, keep-alive, the connection
# budget, drain races, X-Request-Id assignment — crates/net/tests/http.rs);
# session registry, byte-identity with a direct scorer, isolation, trip
# ladder, and checkpoint/resume at the ServeApp level
# (crates/serve/tests/serve.rs); then the compiled binary over real TCP:
# concurrent sessions byte-identical to `stream`, kill -9 → restart →
# resume continuation equivalence, graceful drain on SIGTERM and POST
# /shutdown, and the observability smoke — serve under --trace-out + SLO
# flags, request-id echo/propagation into the NDJSON access log and Chrome
# trace args, /status healthy, generated ids unique under concurrency
# (crates/cli/tests/serve_e2e.rs).
cargo test -q --offline -p hdoutlier-net --test http
cargo test -q --offline -p hdoutlier-serve --test serve
cargo test -q --offline -p hdoutlier-cli --test serve_e2e

# Overload & crash chaos harness: deterministic scripted fault clients
# against the HTTP server — stalled heads past the wall-clock deadline,
# torn mid-body writes, vanishing clients, burst floods past the
# connection budget, and a mixed storm that must never pin a worker
# (crates/net/tests/chaos.rs) — then the serve-level drills: duplicate
# X-Request-Id retries replay byte-identical without re-scoring, SLO- and
# concurrency-cap shedding with 503 + Retry-After and recovery, and
# checkpoint corruption / kill-during-save recovery via the .prev
# generation with .corrupt quarantine (crates/serve/tests/chaos.rs).
cargo test -q --offline -p hdoutlier-net --test chaos
cargo test -q --offline -p hdoutlier-serve --test chaos

# Continuous profiling: the span-stack sampling profiler end to end — the
# compiled binary under `detect --profile-out --profile-hz` must write
# non-empty folded stacks naming a hdoutlier.core.* frame, plus the
# allocation-weighted twin fed by the counting allocator
# (crates/cli/tests/profile_e2e.rs).
cargo test -q --offline -p hdoutlier-cli --test profile_e2e

# Scenario packs: seeded end-to-end runs of the real pipelines (detect
# brute + evolutionary, drill-down/explain, baselines + CFOF/DOD referees,
# stream with checkpoint/kill/resume, serve over loopback TCP) against
# planted ground truth, byte-compared to the golden reports in
# tests/goldens/ after normalization (crates/cli/tests/scenario.rs runs the
# same gate in-process). On a mismatch the gate prints a unified diff; if
# the change is intentional, regenerate deliberately with
#     ./target/release/hdoutlier scenario update-goldens
# (it refuses while a pack's ground-truth invariants fail, so a wrong
# golden can never be enshrined) and commit the tests/goldens/ diff.
./target/release/hdoutlier scenario check

# Perf gate: the streaming hot path must stay within noise of the recorded
# baseline (BENCH_stream.json). Tolerance is generous (50%) because absolute
# wall-clock varies across machines; it exists to catch accidental
# per-record I/O or timing syscalls creeping into the default path.
cargo run -q --offline --release -p hdoutlier-bench --bin stream_throughput -- \
    --assert-against BENCH_stream.json --tolerance 0.5

# Serving perf gate: the whole serve stack — HTTP framing, request-scoped
# context, labeled metrics, NDJSON scoring — must stay within tolerance of
# the recorded baseline (BENCH_serve.json), so the labeled-metrics hot path
# is provably not a throughput regression.
cargo run -q --offline --release -p hdoutlier-bench --bin serve_bench -- \
    --assert-against BENCH_serve.json --tolerance 0.5
