#!/usr/bin/env bash
# Tier-1 verification: release build, tests, lints, formatting.
# Run from anywhere; operates on the repository this script lives in.
set -euo pipefail
cd "$(dirname "$0")/.."

# No registry crate: the lock names path packages only, so the Tier-1 line
# below resolves with no index and no network. A `source = ` line means a
# registry dependency crept back in.
if grep -q '^source = ' Cargo.lock; then
    echo "verify: FAIL — Cargo.lock names a registry crate (the workspace builds from paths only)" >&2
    exit 1
fi

# Tier-1: one workspace, one lane — every test of every crate, the
# integration suites and the example builds.
cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings
cargo fmt --all -- --check

# benchmark/ is a workspace of its own, frozen between benchmark PRs, and
# compiles against the library crates' public API: building it is what
# catches an API break against the harness. (Its tests of the library
# crates are the ones `cargo test` above already ran.)
cargo build --release --offline --manifest-path benchmark/Cargo.toml
python3 benchmark/run.py --self-test

# Small-message budget stage: the two count gates on a posted 64 B message
# over batched TCP — allocations per post and per receive (counting
# allocator), engine steps per post — and the identity of a posted message
# with a packed one (same buffers, commits and instants on all five
# protocols), run by name, so a regression of any names itself even when
# the suite above is filtered.
for gate in alloc_budget posted_batch stripe_op; do
    cargo test -q -p madeleine --test "$gate" || {
        echo "verify: FAIL — small-message budget: --test $gate" >&2
        exit 1
    }
done

# Bulk pipeline stage: the SISCI dual-buffering pipeline's receiver clocks
# pinned to the nanosecond, and a peer's death inside a block — run by
# name, like the stage above. Beside it, every protocol's single-flow
# receiver clock, pinned to the nanosecond from 4 B to 1 MiB.
cargo test -q -p madeleine --test sisci_pipeline || {
    echo "verify: FAIL — bulk pipeline: --test sisci_pipeline" >&2
    exit 1
}
cargo test -q -p madeleine --test calibration -- --exact exact_single_flow_instants || {
    echo "verify: FAIL — virtual time drifted: calibration::exact_single_flow_instants" >&2
    exit 1
}

# Lock-free hot-path lint: the sharded mailbox, the eventcount it and the
# SISCI flags block on, progress engine, buffer pool, and stats counters
# were moved off blocking mutexes — a parking_lot import reappearing in any
# of them is a regression, not a refactor.
for f in crates/madsim-net/src/mailbox.rs \
         crates/madsim-net/src/eventcount.rs \
         crates/madeleine/src/progress.rs \
         crates/madeleine/src/pool.rs \
         crates/madeleine/src/stats.rs; do
    if grep -Eq 'use parking_lot|parking_lot::' "$f"; then
        echo "verify: FAIL — parking_lot reintroduced in $f (hot path must stay lock-free)" >&2
        exit 1
    fi
done

# Wire-codec lint: every header that crosses a wire is encoded by
# crates/madeleine/src/wire.rs — a raw `to_le_bytes(` creeping back into
# the header-emitting files means someone is hand-rolling a layout the
# codec no longer controls.
for f in crates/madeleine/src/channel.rs \
         crates/madeleine/src/rail.rs \
         crates/madeleine/src/batch.rs \
         crates/mad-gateway/src/*.rs; do
    if grep -q 'to_le_bytes(' "$f"; then
        echo "verify: FAIL — raw to_le_bytes() header write in $f (use madeleine::wire)" >&2
        exit 1
    fi
done

# Data-path lint: a send is a state machine polled on the calling thread
# (striping included — `rail::StripeSend`), never a helper thread per
# message. Test-only spawns live in progress.rs, pool.rs and polling.rs.
for f in crates/madeleine/src/rail.rs \
         crates/madeleine/src/channel.rs \
         crates/madeleine/src/batch.rs \
         crates/madeleine/src/connection.rs; do
    if grep -Eq 'thread::(scope|spawn|Builder)' "$f"; then
        echo "verify: FAIL — thread spawn in $f (the data path spawns no threads)" >&2
        exit 1
    fi
done

# One-emitter lint: a message reaches its TMs through the BMMs the send
# cursor opens or through the stripe engine, posted or packed alike — a TM
# post call anywhere else (channel.rs above all) is a second emitter
# growing back beside them.
if grep -rlE 'post_send\(|post_static_buffer\(' crates/madeleine/src |
    grep -vE '/(bmm|rail|tm)\.rs$|/drivers/'; then
    echo "verify: FAIL — TM post call outside bmm.rs / rail.rs / tm.rs / drivers/ (listed above)" >&2
    exit 1
fi

# Link-layer lint: the drivers under crates/madeleine lift link errors
# through MadError::from_link and wait through the stacks' one bounded
# wait — a fault timer, a timeout count or a LinkError::Timeout match in a
# driver is a per-stack copy growing back. Likewise the stacks charge the
# receiver's bus only through stacks/mod.rs's one frame send.
if grep -nE 'FAULT_WAIT|FAULT_SLICE|record_link_timeout|LinkError::Timeout' \
    crates/madeleine/src/drivers/*.rs; then
    echo "verify: FAIL — link-layer copy in a driver (listed above)" >&2
    exit 1
fi
if grep -ln 'charge_dest_bus(' crates/madsim-net/src/stacks/*.rs | grep -v '/mod\.rs$'; then
    echo "verify: FAIL — a stack sends frames beside stacks::send_frame (listed above)" >&2
    exit 1
fi

# Calibration lint: every cost the fabric charges is a row of one table,
# madsim_net::calib::Calib, set per world by WorldBuilder::calib — a
# per-stack timing struct, a frame-cost const or a session-level retiming
# growing back is a second table.
if grep -rnE '\b(BipTiming|SisciTiming|TcpTiming|ViaTiming|SbpTiming|StackTimings|FrameCost|HostModelOpt|PollPolicyOpt)\b|with_timing\(|with_(bip|sisci|tcp)_timing|_FRAME_COST|pci_config\(' \
    crates tests examples; then
    echo "verify: FAIL — calibration outside the one table, madsim_net::calib::Calib (listed above; retime a world with WorldBuilder::calib)" >&2
    exit 1
fi

# Chaos stage: the robustness layer under seeded fault injection, run
# explicitly so a regression here is named even when the suite is filtered
# — three times, because a fault plan must replay the same whatever the OS
# scheduler does.
for _ in 1 2 3; do
    cargo test -q -p mad-integration --test chaos
done

# Dead-peer gate: every stack's receive from a peer that crashes mid-wait
# fails with PeerUnreachable within one liveness slice and counts no link
# timeout; the test names the protocol that failed.
cargo test -q -p mad-integration --test chaos -- --exact every_stack_notices_a_dead_peer_within_a_slice || {
    echo "verify: FAIL — dead-peer gate: chaos::every_stack_notices_a_dead_peer_within_a_slice" >&2
    exit 1
}

# Zero-fault regression guard: without a FaultPlan the recovery machinery
# must stay entirely out of the fast path — every fault counter reads zero.
cargo test -q -p mad-integration --test chaos -- --exact zero_fault_runs_count_nothing

# The bench stages write to a scratch directory, not over the committed
# BENCH_*.json: regenerating those is a deliberate act (run the bin with no
# --out from the repository root and commit the result).
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
bench() {
    cargo run --release -q -p bench --bin "$1" -- --out "$out/BENCH_$1.json"
    test -s "$out/BENCH_$1.json"
}

# Multirail stage: sweep 1->4 rails; the binary itself asserts that
# single-rail channels never stripe, that every multirail 1 MB block does,
# and that two rails on the retimed bus reach >= 1.7x the single-rail
# 1 MB bandwidth.
bench rails

# Overlap stage: the nonblocking op path must buy real compute/transfer
# overlap — the binary asserts >= 1.5x effective throughput for
# compute-overlapped 1 MB exchanges over BIP, single-rail and striped
# over two rails.
bench overlap

# Batching stage: coalescing 64 B packets into multi-envelope frames over
# TCP must buy real throughput — the binary asserts >= 2x for the 64-packet
# ping-burst and that a batching-off run never touches the batch layer.
# Its output is bit-deterministic (one TCP stream, no shared bus), so it
# must also reproduce the committed file exactly.
bench batch
diff BENCH_batch.json "$out/BENCH_batch.json" || {
    echo "verify: FAIL — BENCH_batch.json no longer regenerates byte-identical" >&2
    exit 1
}

# Collectives stage: topology-aware hierarchical trees vs the flat
# baselines across a simulated gateway — the binary asserts >= 1.5x for
# hierarchical bcast and allreduce at 64 ranks and that the modeled
# 1k-rank point keeps hierarchical at or below flat.
bench collectives

# Hot-path stage: the concurrency primitives themselves, in real time —
# the binary asserts the sharded mailbox moves the 4-peer small-message
# storm at >= 1.3x the ops/sec of the single-lock baseline, and a posted
# 64 B message costs <= 2 engine steps.
bench hotpath

# benchmark/ is frozen: a manifest edit anywhere that makes cargo rewrite
# its lock (a library crate gaining or losing a dependency) shows up here.
if [ -n "$(git status --porcelain benchmark/)" ]; then
    echo "verify: FAIL — the run changed files under benchmark/:" >&2
    git status --porcelain benchmark/ >&2
    exit 1
fi

echo "verify: all checks passed"
