#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, and the tier-1 test
# suite. Run from anywhere; everything executes at the repo root.
#
#   scripts/ci.sh          # full gate
#   scripts/ci.sh --quick  # skip the release build (lints + tests only)
#
# The workspace vendors its external dependencies (vendor/), so every
# cargo invocation runs --offline; no network access is required.
set -euo pipefail
cd "$(dirname "$0")/.."

quick=0
for arg in "$@"; do
    case "$arg" in
    --quick) quick=1 ;;
    *)
        echo "unknown argument: $arg" >&2
        exit 2
        ;;
    esac
done

step() { printf '\n==> %s\n' "$*"; }

# filtered_tests <cargo test args>... -- <test-name filter>...
# Every name-filtered rung goes through here: each filter runs on its
# own and must match at least one test, so renaming a test breaks the
# rung that pinned it instead of leaving it green and empty.
filtered_tests() {
    local args=() filter out ran
    while [ "$1" != "--" ]; do
        args+=("$1")
        shift
    done
    shift
    for filter in "$@"; do
        out=$(cargo test -q --offline "${args[@]}" -- "$filter" 2>&1) || {
            printf '%s\n' "$out"
            return 1
        }
        printf '%s\n' "$out"
        ran=$(printf '%s\n' "$out" | awk '/^test result:/ { n += $4 } END { print n + 0 }')
        if [ "$ran" -eq 0 ]; then
            echo "test filter '$filter' matched no test (renamed or removed?)" >&2
            return 1
        fi
    done
}

step "cargo fmt --all --check"
cargo fmt --all --check

step "cargo clippy --workspace --all-targets (deny warnings)"
cargo clippy --workspace --all-targets --offline -- -D warnings

# Every intra-doc link resolves to a public item: a link to a deleted or
# private name fails here instead of rendering as dead text.
step "rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Custom lint: raw point-to-point calls (`.send(…)` / `.recv::<…>(…)`)
# are forbidden outside the communicator crate and the plan-execution
# modules. Everything else must go through compiled plans (HaloPlan,
# ShufflePlan, collectives), which the static verifier (fg-verify) can
# see; a stray raw send is invisible to it and can deadlock.
# Allowlist:
#   crates/comm/              the communicator implementation + its tests
#   crates/tensor/src/halo.rs HaloPlan execution (start/finish exchange)
#   crates/serve/             crossbeam job/reply/response channels
#                             (admission queue → batcher → dispatcher →
#                             replica), not Communicator p2p — the
#                             serving tier's world-internal traffic
#                             still goes through compiled plans
# `rec.send/recv` lines are TraceRecorder bookkeeping, not wire calls.
step "lint: raw Communicator::send/recv confined to comm + plan execution"
raw_p2p=$(grep -rnE '\.(send|recv)(::<[^>]*>)?\(' crates --include='*.rs' |
    grep -vE '^crates/comm/' |
    grep -vE '^crates/tensor/src/halo\.rs' |
    grep -vE '^crates/serve/' |
    grep -vE '\brec\.(send|recv)\(' || true)
if [ -n "$raw_p2p" ]; then
    echo "raw Communicator::send/recv outside the allowlisted modules:" >&2
    echo "$raw_p2p" >&2
    exit 1
fi

# Custom lint: the process environment is read in exactly one place,
# `RunOptions::from_env` in crates/comm/src/runtime.rs (FG_COMM_INTEGRITY,
# the one knob). A second reader would be a knob the rest of the code
# cannot see; add the field to `RunOptions` and read it there.
step "lint: env::var / env::var_os confined to RunOptions::from_env"
env_reads=$(grep -rnE 'env::var(_os)?\(' crates/*/src --include='*.rs' |
    grep -vE '^crates/comm/src/runtime\.rs:[0-9]+: *std::env::var_os\("FG_COMM_INTEGRITY"\)' || true)
if [ -n "$env_reads" ]; then
    echo "environment read outside RunOptions::from_env:" >&2
    echo "$env_reads" >&2
    exit 1
fi

if [ "$quick" -eq 0 ]; then
    step "cargo build --release"
    cargo build --release --offline

    # The benchmark is a package of its own (the workspace build above
    # does not see it) compiled against the crates' public API: build it
    # here so a removed or re-typed public name fails the gate, not the
    # benchmark run.
    step "benchmark package builds against the public API"
    cargo build --release --offline --manifest-path benchmark/Cargo.toml
fi

# Every world runs under the deadlock watchdog (a hung collective fails
# with a wait-graph diagnostic instead of stalling the CI job). Everything
# below runs with integrity on, so the communicator's own suite runs once
# here with a silent environment to keep the integrity-off `run_ranks` /
# `run_ranks_timed` path, the one `mesh_*_p2` benchmarks run, inside the
# gate.
step "fg-comm tests, integrity off (plain run_ranks path)"
env -u FG_COMM_INTEGRITY cargo test -q --offline -p fg-comm

# Run every test with end-to-end message integrity envelopes on (every
# world-internal send is checksummed and sequence-numbered; message/byte
# counts are unchanged, so count-asserting tests still hold).
export FG_COMM_INTEGRITY=1

step "tier-1 tests (root package, integrity on)"
cargo test -q --offline

# The instruction-set baseline: `.cargo/config.toml` builds every crate
# for x86-64-v3, and an exported RUSTFLAGS would silently replace it.
# Both profiles: the release build is the one the benchmark times.
step "build baseline is x86-64-v3 (debug + release)"
for profile in "" --release; do
    filtered_tests $profile --test build_baseline -- built_for_the_x86_64_v3_baseline
done

step "workspace tests (integrity on)"
cargo test -q --offline --workspace
# The in-place SGD step against the three-copy formulation it replaced,
# bit for bit over every `LayerParams` variant: every loss, checkpoint
# and rank-vs-rank contract downstream rests on it.
filtered_tests -p fg-nn --lib -- in_place_step_equals_three_copy_reference_bitwise

# The chaos outcomes below hold only while the checksum sees every
# single-element change (each lane edge, every wire scalar) and a rank's
# stream cursors forget finished collectives without renumbering a live
# stream; both are pinned by name beside the suites that depend on them.
step "chaos suite (fault injection + corruption repair, pinned seeds + golden outcomes)"
cargo test -q --offline -p fg-comm --test faults --test chaos_golden
filtered_tests -p fg-comm --lib -- \
    checksum_sees_every_change_at_its_lane_edges \
    cursor_stays_bounded_over_hundreds_of_world_collectives

step "elastic degradation (permanent rank loss, integrity on)"
filtered_tests --test resilience -- degrade
# Every rung of the crash ladder on a pinned seed, one line of the
# report's deterministic fields each, as recorded before the driver kept
# its state in one ledger and picked its rung from a typed outcome (every
# rebuilt world's schedule is re-checked by the static verifier, as every
# construction of at most 64 ranks is).
filtered_tests --test resilience -- crash_ladder_reports_match_the_recorded_ones

# Gray-failure ladder, pinned seeds: a persistently slow rank must be
# detected (all-rank agreement), rebalanced onto a weighted layout with
# the stitched-bitwise trajectory contract, or softly evicted when
# irredeemable — all while integrity envelopes are live, and with every
# compiled schedule (including the weighted post-rebalance layouts)
# re-checked by the static verifier at construction.
step "gray-failure resilience (straggler detect/rebalance/evict)"
filtered_tests --test resilience -- \
    persistent_straggler irredeemably_slow healthy_world
# The driver's own unit tests, crash and gray-failure rungs alike: a
# rebalance and an eviction are told apart by the typed outcome, and
# neither is booked as a rebuild.
filtered_tests -p fg-core --lib -- resilient::tests::

# Static memory analyzer (fg-core::mem): clean plans bound every rank
# on every model × strategy × grid, and each corruption class
# (understated halo/shuffle staging) yields a named violation.
step "memory verifier (liveness bounds, mutation catches)"
cargo test -q --offline -p fg-core --test mem_mutations
# The step's memory path: every window the fused and the split step
# build is asserted against its layer's `window_elems`, the size the
# analyzer books — on clean steps, after an abandoned one, and with the
# two paths interleaved on one trajectory.
filtered_tests -p fg-core --lib -- \
    executor::tests::fused_step_matches_split_passes_bitwise \
    executor::tests::executor_is_reusable_after_an_abandoned_step \
    executor::tests::interleaved_fused_and_split_steps_share_one_trajectory
# Every bound above is a `peak_bytes` sweep: the dense tick array, bit for
# bit against the `BTreeMap` sweep it replaced, on random interval lists.
filtered_tests -p fg-tensor --lib -- dense_peak_equals_the_map_reference_on_random_intervals
# One memory model: the strategy search's per-layer terms are the bytes
# the analyzer holds live at the forward/backward turnaround (within 3 %
# of the exact peak at paper scale), the paper's memory claims hold on
# the exact bound, every memory-limited search winner fits its limit by
# that bound, and a limit the unconstrained winner breaks changes it.
filtered_tests -p fg-core --lib -- per_layer_terms_are_the_live_bytes_at_the_turnaround
filtered_tests -p fg-perf --lib -- \
    the_papers_memory_motivation_holds_on_the_exact_bound \
    sample_parallelism_does_not_reduce_per_sample_memory \
    the_1k_model_fits_one_sample_per_gpu \
    memory_limit_forces_spatial_decomposition \
    a_binding_memory_limit_changes_the_winner
filtered_tests -p fg-perf --test search_golden -- search_answers_match
filtered_tests -p fg-core --lib -- \
    fused_step_matches_split static_bounds abandoned_step
# One step schedule under all three walkers: every rank's recorded
# trace and liveness intervals as recorded before the executor, the
# recorder and the analyzer shared it, and an error
# accumulator booked for exactly the layers backward runs (counted on a
# live world) — never for `data`.
filtered_tests --test schedule_golden -- \
    traces_intervals_and_plans_match_the_recorded_ones \
    the_unread_gradient_of_data_is_neither_recorded_nor_staged
filtered_tests -p fg-core --lib -- \
    err_intervals_are_exactly_the_layers_backward_runs

# Convolution kernels, bit for bit against the loops they replaced (the
# gather and strided-read references live in the test file). Both
# profiles on purpose: the benchmark measures release code, whose
# vectorised loops are a different instruction stream from the debug
# build every other rung tests, and only the debug build's overflow and
# bounds checks catch an off-by-one in the phase-range arithmetic.
step "conv kernels equal their reference loops bitwise (debug + release)"
bitwise_conv_tests=(
    forward_region_equals_strided_reference_bitwise
    backward_data_region_equals_gather_reference_bitwise
    backward_filter_region_equals_strided_reference_bitwise
    tile_edges_equal_reference_bitwise
    small_maps_equal_reference_bitwise
    resnet50_shapes_equal_reference_bitwise
    mesh_shapes_equal_reference_bitwise
    wide_row_phases_equal_reference_bitwise
)
filtered_tests -p fg-kernels --test conv_properties -- "${bitwise_conv_tests[@]}"
filtered_tests -p fg-kernels --release --test conv_properties -- "${bitwise_conv_tests[@]}"

# The step's conv path — the one plan-taking `DistConv2d::{forward,
# backward}`, halo overlapped with the interior — against the serial
# kernels, on random geometries and grids and on the pinned strip shapes;
# and the reachability tripwires — module, function, const, type, config
# field and enum variant grain — so neither a self-planning twin nothing
# runs, nor a config field no caller outside its file sets, nor a mode no
# non-test code builds comes back unnoticed.
step "distributed conv == serial on the step's path, reachability (debug + release)"
for profile in "" --release; do
    filtered_tests $profile --test proptests -- distributed_conv_replicates_serial
    filtered_tests $profile -p fg-core --lib -- distconv::tests::
    filtered_tests $profile --test reachability -- every_public_
done

# Serving tier: chaos traffic (lossy links + a mid-stream rank kill)
# through the full admission → batch → dispatch → replica stack. The
# contract under test: every accepted request terminates — no hangs —
# with either logits bitwise-equal to the serial reference or a typed
# error, across the kill, the world rebuild, and the breaker-probed
# re-admission. Integrity is already exported above; every rebuilt
# world's schedule is re-checked at construction.
step "serving tier smoke (chaos traffic with a mid-stream rank kill)"
cargo test -q --offline -p fg-serve --test chaos

# Durable checkpoint store under storage chaos, pinned seeds: a rank
# dies permanently while its primary shard is deleted on every publish
# (reconstruction from ring replicas must carry the degradation rung),
# and a torn newest version must fall back to the previous verifiable
# one, counted in the store's counters and typed by `load_version` —
# never a panic, never a silent stale resume.
# The snapshot keeper holds one restore contract on both backends, and a
# newest version that verifies but records a poisoned run is passed like
# a damaged one, at the store's one walk and at the keeper's, which every
# rung restores through; a manifest in the retired FGMANI01 layout is
# typed damage the walk passes too.
# Integrity is already exported above; the shrunken worlds' schedules
# are re-checked at construction. The scratch stores live under the OS
# temp dir, so no repo paths are dirtied.
step "storage chaos (deleted-shard reconstruction + torn-write fallback)"
filtered_tests --test resilience -- \
    deleted_shard torn_newest durable_store
cargo test -q --offline -p fg-nn --test ckpt_chaos
filtered_tests -p fg-nn --lib -- \
    poisoned_newest_version_falls_back_on_every_restore bit_flip_is_caught_and_version_falls_back
filtered_tests -p fg-core --lib -- \
    poisoned_newest_version_falls_back_on_every_restore keeper_contract_holds_on_both_backends
# The snapshot is whole tensors and names no world: FGCKPT05's bytes are
# the recorded ones (FGCKPT04's stream without its grid tag), the retired
# formats FGCKPT01–04 are refused by name and a biased conv as typed
# invalid data, and save → load keeps every element of random states of
# every `LayerParams` variant bitwise. The straggler rebalance's
# activation regrid cost is as recorded when it was computed by copying
# shards.
filtered_tests -p fg-nn --lib -- \
    fgckpt05_bytes_are_the_recorded_ones retired_formats_are_refused_by_name \
    a_biased_conv_is_refused_as_invalid_data random_states_round_trip_bitwise
filtered_tests -p fg-bench --lib -- regrid_costs_match_the_recorded_ones

# Every deterministic BENCH_*.json regenerates as committed: the rows
# `repro -- ckptstore`, `memscale`, `simscale` and `stragglers` write,
# field for field (wall-clock fields skipped), read through the one
# writer's own reader. Both profiles: the benchmark measures release
# code.
step "BENCH files regenerate as committed (debug + release)"
bench_file_tests=(
    ckpt_cost_rows_match_the_recorded_ones
    ckpt_chaos_rows_match_the_recorded_ones
    memory_rows_match_the_recorded_ones
    simscale_rows_match_the_recorded_ones
    stragglers_rows_match_the_recorded_ones
)
for profile in "" --release; do
    filtered_tests $profile --test bench_files -- "${bench_file_tests[@]}"
done
filtered_tests -p fg-bench --lib -- both_layouts_render_as_committed_and_read_back

# The event-driven virtual-time engine's correctness anchor: DES clocks
# must equal the thread-per-rank runtime's clocks exactly, and the
# reports at 128-512 ranks must be the recorded ones. Run explicitly
# (the suites are also part of the workspace run above) so a regression
# names itself.
step "DES equivalence + golden reports (sim engine vs threaded runtime)"
filtered_tests -p fg-comm --lib -- sim::
cargo test -q --offline --test sim_equivalence --test sim_golden
# One allreduce chooser for the live collectives, the DES and the Thakur
# model: its rule table (P = 2 as before the group size was an input),
# the closed form pricing exactly the algorithm it picks (bitwise the old
# min() on power-of-two groups), and `Auto` sending that algorithm's
# messages on a live world.
filtered_tests -p fg-comm --lib -- auto_resolves_by_size_then_group_size
filtered_tests -p fg-perf --lib -- allreduce_time_prices_the_resolved_algorithm_bitwise
filtered_tests -p fg-comm --test collective_traffic -- auto_sends_the_chosen_algorithms_messages
# The planner's two trace consumers, pinned by name: the division-free
# ring recurrence bit for bit against the `%` loop it replaced, and member
# lists interned by content (ordered lists for the simulator, member sets
# for the verifier).
filtered_tests -p fg-comm --lib -- \
    ring_recurrence_equals_the_modulo_reference_bitwise \
    interned_lists_

# Sends meet receives in one place, the stream grouping both trace
# consumers walk: the verifier's full output (stats and every
# violation's text, in order, as recorded before p2p matching became one
# sort and collective groups interned ids) and the DES reports as
# recorded, plus what neither golden pins — several
# tag-discipline findings on streams whose key order is not program
# order, and a three-message stream matched FIFO with an unmatched send
# that parks nobody. Both profiles: the benchmark measures release code.
step "p2p matched once: verifier text and DES reports as recorded"
for profile in "" --release; do
    filtered_tests $profile --test verify_golden -- verifier_output_
    filtered_tests $profile --test sim_golden -- des_reports_match_the_recorded_ones_to_the_bit
    filtered_tests $profile -p fg-comm --lib -- \
        discipline_findings_keep_program_order multi_message_streams_match_fifo
done

# Plan compilation, pinned by name: every rank's compiled layer plan of
# five configs (the three paper-scale planner pipelines, a weighted
# non-power-of-two layout, a mixed strategy that shuffles one edge of a
# join), digest for digest as recorded before compile stopped allocating
# shuffle slots for edges that do not shuffle and per-dimension
# coordinate lists; and the overlap walk underneath it, exact on random
# shapes and grids. Both profiles: the benchmark measures release code,
# and only the debug build's overflow checks catch a coordinate range
# that runs off its end.
step "plan compilation (plan golden + distribution geometry, debug + release)"
plan_golden_tests=(
    compiled_plans_match_the_recorded_ones
    the_mixed_config_shuffles_one_edge_of_the_join
)
dist_geometry_tests=(
    local_boxes_partition_every_element
    owner_of_is_consistent_with_local_box
    ranks_overlapping_is_exact
)
filtered_tests --test plan_golden -- "${plan_golden_tests[@]}"
filtered_tests --release --test plan_golden -- "${plan_golden_tests[@]}"
filtered_tests -p fg-tensor --test dist_properties -- "${dist_geometry_tests[@]}"
filtered_tests -p fg-tensor --release --test dist_properties -- "${dist_geometry_tests[@]}"

# Strategy search: same answers, each cost modeled once. The golden
# test pins every per-layer grid and cost bit recorded before the search
# got its cost table, shuffle memo and closed-form shuffle volume (up to
# ResNet-50 on 2048 ranks); the work bound counts cost-model evaluations
# at 2048 ranks, so a slide back to per-edge re-evaluation fails here on
# a count, not on a clock. Release: it is the build whose speed matters.
step "strategy search (golden answers + 2048-rank work bound, release)"
filtered_tests --release -p fg-perf --test search_golden -- search_answers_match
filtered_tests --release -p fg-perf --lib -- \
    resnet50_at_2048_ranks_models_each_cost_once closed_form_shuffle_volume

# Sanitizer jobs — both are gated on toolchain availability because the
# build image is offline (no `rustup component add`); when the
# components are absent the jobs are skipped with a note, not failed.
#
# Exclusions (why only a subset runs under miri):
#   * miri covers fg-comm's p2p, integrity, and stats unit tests — the
#     unsafe-adjacent envelope/byte-cast paths. The runtime, collective,
#     and fault suites spawn full thread worlds with timeouts; under
#     miri's interpreter they run orders of magnitude slower and the
#     watchdog's wall-clock heuristics misfire, so they stay native.
#   * the tsan smoke runs only the watchdog tests (pending-counter
#     ordering); full-suite tsan needs -Zbuild-std and a rebuilt std.
if cargo +nightly miri --version >/dev/null 2>&1; then
    step "miri: fg-comm p2p/integrity/stats unit tests"
    MIRIFLAGS="-Zmiri-disable-isolation" \
        cargo +nightly miri test --offline -p fg-comm --lib -- p2p:: integrity:: stats::
else
    step "miri not installed for the nightly toolchain — skipping (see exclusions above)"
fi

if rustup component list --toolchain nightly --installed 2>/dev/null | grep -q '^rust-src'; then
    step "tsan smoke: watchdog pending-counter ordering"
    # RUSTFLAGS replaces the config's flags, so the baseline is repeated.
    RUSTFLAGS="-Zsanitizer=thread -C target-cpu=x86-64-v3" \
        cargo +nightly test --offline -Zbuild-std \
        --target x86_64-unknown-linux-gnu -p fg-comm --lib -- watchdog::
else
    step "nightly rust-src not installed (needed for -Zbuild-std) — skipping tsan smoke"
fi

printf '\nCI gate passed.\n'
