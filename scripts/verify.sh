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
# allocator), engine steps per post — the identity of a posted message
# with a packed one (same buffers, commits and instants on all five
# protocols), and the ns-pinned clocks of packed BIP messages whose send
# waits in place (credit waits, two rendezvous, a switch behind one), run
# by name, so a regression of any names itself even when the suite above
# is filtered.
for gate in alloc_budget posted_batch stripe_op; do
    cargo test -q -p madeleine --test "$gate" || {
        echo "verify: FAIL — small-message budget: --test $gate" >&2
        exit 1
    }
done
cargo test -q -p madeleine --test calibration -- --exact exact_packed_bip_wait_instants || {
    echo "verify: FAIL — virtual time drifted: calibration::exact_packed_bip_wait_instants" >&2
    exit 1
}

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

# Gateway step stage: a forwarded 4 B message's receiver clock, pinned to
# the nanosecond in both directions — the paper's ~50 us per gateway step
# (GW_RECV_OVERHEAD_US + GW_SEND_OVERHEAD_US) is in it, so zeroing either
# fails here — and a 3-fragment message's, which adds the pipeline and the
# end node's reassembly. Counted, so a renamed test cannot filter itself out.
gw_out=$(cargo test -q -p mad-gateway --test forwarding -- --exact \
    forwarded_small_message_instants forwarded_multi_fragment_instant 2>&1) || true
if ! grep -q 'test result: ok. 2 passed' <<<"$gw_out"; then
    echo "$gw_out" >&2
    echo "verify: FAIL — virtual time drifted: forwarding::forwarded_{small_message_instants,multi_fragment_instant}" >&2
    exit 1
fi

# World set-up stage: World::run hands node i of every world to worker i of
# the calling thread's crew of persistent threads. Run by name: a crew
# spawns no thread after its first world, lives on after a panicked world,
# and an outer world's abort never cuts short the wait for an inner run's
# nodes — the condition the crew's one `unsafe` rests on. The count guards
# against a renamed test filtering itself out.
crew_out=$(cargo test -q -p madsim-net --lib -- --exact \
    world::tests::node_threads_are_reused \
    world::tests::a_crew_outlives_a_panicked_world \
    world::tests::an_outer_abort_waits_for_the_inner_run 2>&1) || true
if ! grep -q 'test result: ok. 3 passed' <<<"$crew_out"; then
    echo "$crew_out" >&2
    echo "verify: FAIL — world set-up: world::tests (reuse, panicked world, outer abort)" >&2
    exit 1
fi
# A world owns everything it builds: 200 finished worlds per protocol leave
# no live heap bytes behind (a per-world entry in a process-global map or a
# reference cycle through the world's handles would), counted the same way.
teardown_out=$(cargo test -q -p madeleine --test world_teardown 2>&1) || true
if ! grep -q 'test result: ok. 1 passed' <<<"$teardown_out"; then
    echo "$teardown_out" >&2
    echo "verify: FAIL — world set-up: --test world_teardown (a finished world left bytes behind)" >&2
    exit 1
fi
# What a world's set-up allocates (build + init, per protocol) is pinned,
# and a peer late to its init costs the early node the evidence grant its
# set-up waits poll, not the peer's delay in CPU time: both run by name,
# counted.
for gate in setup_alloc setup_waits; do
    setup_out=$(cargo test -q -p madeleine --test "$gate" 2>&1) || true
    if ! grep -q 'test result: ok. 1 passed' <<<"$setup_out"; then
        echo "$setup_out" >&2
        echo "verify: FAIL — world set-up: --test $gate" >&2
        exit 1
    fi
done
# ... and that `unsafe` is the only one: every library crate forbids
# unsafe code, madsim-net denies it and allows it once, on the crew's
# dispatch.
if [ "$(grep -rn 'allow(unsafe_code)' crates/*/src | wc -l)" != 1 ]; then
    grep -rn 'allow(unsafe_code)' crates/*/src >&2
    echo "verify: FAIL — unsafe code allowed other than on the crew's dispatch (listed above)" >&2
    exit 1
fi

# One-owner lint: per-world state lives in the world that built it
# (madsim_net::world's WorldShared), never in a process-global — a
# `static` holding a lock, a once-cell, an atomic or a map in library code
# before a file's test module is a registry growing back. Thread-locals
# (the crew, the virtual clock and abort flag) are per thread, not global.
static_hits=$(find crates/*/src -name '*.rs' | sort |
    xargs awk '/^#\[cfg\(test\)\]/ { nextfile }
               /thread_local! *\{/ { tls = 1 }
               tls { if (/^ *\} *$/) tls = 0; next }
               /^[[:space:]]*(pub(\([a-z]+\))? )?static [A-Za-z_0-9]+ *:/ &&
               /(Mutex|RwLock|OnceLock|Atomic[A-Za-z0-9]*|HashMap)/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$static_hits" ]; then
    echo "$static_hits" >&2
    echo "verify: FAIL — a process-global static holding state (listed above): put it in the world" >&2
    exit 1
fi

# Dead-API lint: a `pub fn` of a library crate (before a file's test module;
# bench bins are not libraries) whose name appears nowhere else in crates/,
# tests/, examples/ or benchmark/src has no caller and no test: delete it.
# The paper's Table 1 (pack/unpack) and Table 2 (TM) calls are the
# interface itself and stay whether or not this tree calls them.
paper_api=" begin_packing pack end_packing begin_unpacking unpack end_unpacking \
 send_buffer send_buffer_group receive_buffer receive_sub_buffer_group \
 obtain_static_buffer release_static_buffer "
pub_fns=$(find crates/*/src -name '*.rs' ! -path '*/src/bin/*' | sort |
    xargs awk '/^#\[cfg\(test\)\]/ { nextfile }
               match($0, /^[[:space:]]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*/) {
                   n = split(substr($0, RSTART, RLENGTH), w, " ")
                   print w[n], FILENAME ":" FNR }')
word_counts=$(find crates tests examples benchmark/src -name '*.rs' -print0 |
    xargs -0 grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort | uniq -c)
dead_hits=$(awk -v allow="$paper_api" '
        NR == FNR { seen[$2] = $1; next }
        { defs[$1]++; at[$1] = at[$1] " " $2 }
        END { for (f in defs)
                  if (seen[f] <= defs[f] && index(allow, " " f " ") == 0)
                      print f ":" at[f] }' \
    <(echo "$word_counts") <(echo "$pub_fns") | sort)
if [ -n "$dead_hits" ]; then
    echo "$dead_hits" >&2
    echo "verify: FAIL — a pub fn nothing names (listed above): delete it" >&2
    exit 1
fi
# Likewise a counter: a pub field of StatsSnapshot that no file but
# stats.rs names is written and never read.
snap_fields=$(awk '/^pub struct StatsSnapshot/ { on = 1; next }
                   on && /^}/ { exit }
                   on && match($0, /^ *pub [a-z_0-9]+:/) {
                       f = substr($0, RSTART, RLENGTH); sub(/^ *pub /, "", f)
                       print substr(f, 1, length(f) - 1) }' crates/madeleine/src/stats.rs)
for f in $snap_fields; do
    if ! find crates tests examples benchmark/src -name '*.rs' \
            ! -path crates/madeleine/src/stats.rs -print0 | xargs -0 grep -qw "$f"; then
        echo "verify: FAIL — StatsSnapshot::$f is read nowhere outside stats.rs: delete it" >&2
        exit 1
    fi
done

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

# Wire-codec lint: every byte layout above the simulated hardware —
# headers, credit returns, client envelopes, marshaled data — is written
# and read by crates/madeleine/src/wire.rs. A raw `to_le_bytes(` or
# `from_le_bytes(` on a non-comment line of library code (before a file's
# first `#[cfg(test)]`) anywhere else is a layout the codec no longer
# controls. The simulated stacks under crates/madsim-net/src model the
# hardware's own bytes (SISCI segment stores, ARQ sequence words) and are
# exempt.
codec_hits=$(find crates/*/src -name '*.rs' ! -path crates/madeleine/src/wire.rs \
        ! -path 'crates/madsim-net/src/*' -print0 |
    xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile }
                  /^[[:space:]]*\/\// { next }
                  /(to|from)_le_bytes\(/ { print FILENAME ":" FNR ": " $0 }')
if [ -n "$codec_hits" ]; then
    echo "$codec_hits" >&2
    echo "verify: FAIL — raw byte-order call outside madeleine::wire (listed above)" >&2
    exit 1
fi

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
# growing back beside them. And one ship flavour: those emitters hand a
# single buffer over through the post calls only, so a blocking
# `send_buffer(`/`send_static_buffer(` call in them — outside
# bmm::send_group, the group send — is the blocking flavour growing back,
# as is the stack's fallible blocking rendezvous, `try_send_long`. The
# gateway forwards through the same post calls: no static-buffer send of
# the blocking flavour is left in crates/mad-gateway/src.
if grep -rlE 'post_send\(|post_static_buffer\(' crates/madeleine/src |
    grep -vE '/(bmm|rail|tm)\.rs$|/drivers/'; then
    echo "verify: FAIL — TM post call outside bmm.rs / rail.rs / tm.rs / drivers/ (listed above)" >&2
    exit 1
fi
blocking_hits=$(awk '/^#\[cfg\(test\)\]/ { nextfile }
        /^pub\(crate\) fn send_group\(/ { group = 1 }
        group && /^}/ { group = 0; next }
        !group && /\.(send_buffer|send_static_buffer)\(/ { print FILENAME ":" FNR ": " $0 }' \
    crates/madeleine/src/bmm.rs crates/madeleine/src/channel.rs crates/madeleine/src/rail.rs)
blocking_hits+=$(grep -rn '\.send_static_buffer(' crates/mad-gateway/src || true)
if [ -n "$blocking_hits" ] || grep -rn 'try_send_long' crates/; then
    echo "$blocking_hits" >&2
    echo "verify: FAIL — a blocking TM send outside bmm::send_group, or try_send_long (listed above)" >&2
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

# One-park lint: library code blocks only through madsim_net::eventcount,
# whose parks a world abort can end — a real-time sleep, a condition
# variable or a channel (std's mpsc, or the crossbeam one built on it)
# before a file's test module is a second wait discipline growing back.
# That includes World::run's crew: an idle worker waits for its next job,
# and a run for its jobs, on an EventCount; and the gateway's slot hand-off
# is a CompletionQueue. (crates/bench's LockedMailbox baseline is not
# library code.) Polling is the eventcount's too: a hand-rolled
# `yield_now`/`spin_loop` loop is a wait that never reaches a park (pass
# the EventCount wait an unbounded budget instead).
park_hits=$(find crates/madsim-net/src crates/madeleine/src crates/mad-gateway/src \
        crates/mad-mpi/src crates/mad-nexus/src crates/mad-pm2/src -name '*.rs' | sort |
    xargs awk '/^#\[cfg\(test\)\]/ { nextfile }
               /thread::sleep|Condvar|mpsc|crossbeam::channel/ ||
               (/yield_now|spin_loop/ && FILENAME !~ /\/eventcount\.rs$/) { print FILENAME ":" FNR ": " $0 }')
if [ -n "$park_hits" ]; then
    echo "$park_hits" >&2
    echo "verify: FAIL — a sleep, a condvar, a channel or a yield outside madsim_net::eventcount (listed above)" >&2
    exit 1
fi

# Bench-bin lint: every binary of crates/bench asserts a claim or is
# diffed, so each must be run by a stage below — `bench <name>` or a
# `cargo run ... --bin <name>` line. A bin no stage runs asserts nothing.
for f in crates/bench/src/bin/*.rs; do
    bin=$(basename "$f" .rs)
    if ! grep -Eq "^(bench $bin|cargo run .*--bin $bin)( |\$)" scripts/verify.sh; then
        echo "verify: FAIL — crates/bench bin '$bin' is run by no verify.sh stage" >&2
        exit 1
    fi
done

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
# --out from the repository root and commit the result; for
# BENCH_figures.txt, redirect the figures stage's command line into it).
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
bench() {
    cargo run --release -q -p bench --bin "$1" -- --out "$out/BENCH_$1.json"
    test -s "$out/BENCH_$1.json"
}

# Figures stage: the paper's Figs. 4-7, the SCI DMA table and the §6.2.1
# crossover, all single-flow and bit-deterministic, must reproduce the
# committed tables byte for byte. (Figs. 10/11 stay out: their forwarding
# rows depend on how the OS orders the gateway's threads on the shared bus.)
cargo run --release -q -p bench --bin figures -- fig4 fig5 fig6 fig7 dma crossover >"$out/BENCH_figures.txt"
diff BENCH_figures.txt "$out/BENCH_figures.txt" || {
    echo "verify: FAIL — BENCH_figures.txt no longer regenerates byte-identical" >&2
    exit 1
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
# baselines across a simulated gateway, every point run live — the binary
# asserts >= 1.5x for hierarchical bcast and allreduce at 64 ranks.
bench collectives

# Hot-path stage: the concurrency primitives themselves, in real time —
# the binary asserts the sharded mailbox moves the 4-peer small-message
# storm at >= 1.3x the ops/sec of the single-lock baseline, and a posted
# 64 B message costs <= 2 engine steps.
bench hotpath

# World-life stage: a short world's wall time phase by phase (build,
# dispatch, init, first message, session drop, join, world drop) for each
# protocol — the binary asserts that the world barrier and SISCI's segment
# connect, whose peers are dispatched with them, park at most 0.25 times
# per world (with a zero poll grant the barrier parks once per world).
cargo run --release -q -p bench --bin world_life -- --out "$out/BENCH_world.json"
test -s "$out/BENCH_world.json"

# benchmark/ is frozen: a manifest edit anywhere that makes cargo rewrite
# its lock (a library crate gaining or losing a dependency) shows up here.
if [ -n "$(git status --porcelain benchmark/)" ]; then
    echo "verify: FAIL — the run changed files under benchmark/:" >&2
    git status --porcelain benchmark/ >&2
    exit 1
fi

echo "verify: all checks passed"
