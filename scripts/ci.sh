#!/usr/bin/env bash
# Tier-1 gate: everything must pass offline against an empty registry.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --offline
cargo fmt --check

# The bignum kernels' oracle, run by name: Montgomery multiply, square and
# sliding-window modpow checked against division-based arithmetic on
# moduli of 1-32 limbs and exponents straddling every window threshold.
cargo test -q --offline -p mpint
echo "mpint: Montgomery kernels agree with the division-based oracle"

# The engine's hard invariant, run by name so a filter change can never
# silently drop it: identical RunReports at 1, 2, and 8 worker threads.
cargo test -q --offline -p secmed-core --test determinism

# Wire-format stability, run by name for the same reason: the committed
# golden vectors must match the codec byte for byte.
cargo test -q --offline -p secmed-wire --test golden_vectors

# The fault fabric's invariants, run by name: 64 seeded fault plans per
# protocol, checked for typed outcomes, schedule-independent fault
# logs, and exact byte accounting under retransmission.
cargo test -q --offline -p secmed-core --test chaos
echo "chaos suite: swept 64 fault seeds x 3 protocols x 3 thread counts (+ zero-fault equivalence)"

# The transport redesign's acceptance oracle, run by name: the same
# seeded scenario over loopback TCP sockets must be byte-identical to
# the in-process fabric (log, views, report) at 1/2/8 threads; the
# session layer's failure paths must reclaim the session table; and the
# full chaos sweep must hold over real sockets.
cargo test -q --offline -p secmed-server --test equivalence
cargo test -q --offline -p secmed-server --test sessions
cargo test -q --offline -p secmed-server --test chaos_socket
echo "socket fabric: loopback equivalence + session negotiation + chaos-over-sockets ok"

# The session-resilience layer (PR 10), run by name: reconnect-and-resume
# byte-equivalence, admission control and drain, idle reaping, the
# 64-seed chaos grid under *server-side* fire, and the session-table
# hygiene properties (no leaks, one terminal ledger line per connection,
# Goodbyes surviving teardown under load).
cargo test -q --offline -p secmed-server --test resilience
cargo test -q --offline -p secmed-server --test chaos_resilient
cargo test -q --offline -p secmed-server --test hygiene
echo "resilience: resume equivalence + admission/drain + server-chaos grid + hygiene ok"

# Soak smoke, run by name: eight concurrent client sessions against one
# server process, all Clean, ledger complete, no session-table leak.
cargo test -q --offline -p secmed-client --test soak_smoke
echo "soak smoke: 8 concurrent loopback sessions ok"

# The metrics registry and span-profile aggregation, run by name: the
# deterministic/timing class split and the self-time invariant are what
# keep RunReports reproducible while still carrying metrics.
cargo test -q --offline -p secmed-obs metrics::
cargo test -q --offline -p secmed-obs profile::
cargo test -q --offline -p secmed-obs trajectory::
cargo test -q --offline -p secmed-core --test observability

# The planner layer, run by name: SQL multi-join analysis and eval edge
# cases (relalg), join-order/protocol choice under leakage budgets
# (secmed-plan), and the end-to-end plan execution suite — determinism
# across thread counts, the budget flip, and the per-node §6
# predicted-vs-observed divergence gate.
cargo test -q --offline -p relalg --test algebra_edges
cargo test -q --offline -p secmed-plan
cargo test -q --offline -p secmed-core --test plan_exec
echo "planner: relalg edges + plan unit suite + 3-way plan execution ok"

# The BENCH_*.json gate in smoke mode: emit a fresh core trajectory and
# validate schema + required series (full baseline compare is manual:
# scripts/bench_check.sh full).
scripts/bench_check.sh
echo "bench gate: BENCH_core.json schema + series presence ok"

# The analyzer's own suite, run by name so a filter change can never
# silently drop it: fixture-pair rule tests (including the multi-hop
# secret-flow regression the old token rule missed), the JSONL report
# round-trip, and the in-process workspace self-scan + baseline gate.
cargo test -q --offline -p secmed-lint --test rules
cargo test -q --offline -p secmed-lint --test report
cargo test -q --offline -p secmed-lint --test selftest

# The guarantees that replaced lint rules, run by name: the
# `compile_fail` doctests on `DeliveryPolicy`, `ReconnectPolicy`,
# `Degradations` and `Link` (and their compiling counterparts).
cargo test -q --offline -p secmed-core --doc

# Static analysis: the in-tree lint ratchets findings against the
# committed lint-baseline.json — new findings fail, stale entries fail,
# `cargo run -p secmed-lint -- . --bless-baseline` regenerates.  On
# failure, surface the machine-readable report and per-rule counts for
# the CI log/artifacts before propagating the exit status.
if ! cargo run -q -p secmed-lint --offline; then
  echo "--- target/obs/lint.jsonl ---"
  cat target/obs/lint.jsonl 2>/dev/null || echo "(no lint report written)"
  echo "--- rule counts ---"
  tail -n 1 target/obs/lint.jsonl 2>/dev/null \
    | sed -n 's/.*"by_rule":{\([^}]*\)}.*/\1/p' | tr ',' '\n'
  exit 1
fi
cargo clippy --workspace --all-targets --offline -- -D warnings
