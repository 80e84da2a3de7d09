//! Chaos suite: seeded fault injection against the communicator.
//!
//! Every scenario pins its seed, so outcomes are exact assertions, not
//! "eventually fails somehow". These tests are the executable contract
//! of the fault model:
//!
//! * an empty plan is perfectly transparent;
//! * kills surface as [`CommError::RankFailed`] on the victim and as
//!   `RankFailed`/`Timeout` on peers — never as a hang or a raw panic;
//! * dropped messages strand their receiver, and the watchdog converts
//!   the hang into a wait-graph [`CommError::Timeout`] that names the
//!   waiter, the tag, and the dropped-send culprit;
//! * corruption is deterministic per seed and visibly alters payloads;
//! * delays change timing only, never results.

use std::time::Duration;

use fg_comm::{
    run_ranks, run_ranks_opts, Collectives, CommError, Communicator, FaultPlan, ReduceOp,
    RunOptions,
};

/// A small fixed workload: ring allreduce over distinct per-rank data,
/// then a halo-style neighbor exchange. Touches both collective and
/// point-to-point paths.
fn workload(comm: &impl Communicator) -> Vec<f32> {
    let p = comm.size();
    let mine = vec![(comm.rank() + 1) as f32; 8];
    let mut out = comm.allreduce(&mine, ReduceOp::Sum);
    let next = (comm.rank() + 1) % p;
    let prev = (comm.rank() + p - 1) % p;
    let neighbor = comm.sendrecv(next, prev, 7, vec![comm.rank() as f32]);
    out.push(neighbor[0]);
    out
}

#[test]
fn empty_plan_is_transparent() {
    let clean = run_ranks(4, workload);
    let faulty = run_ranks_opts(4, RunOptions::with_faults(FaultPlan::new(1)), workload);
    let faulty: Vec<Vec<f32>> =
        faulty.into_iter().map(|r| r.expect("no faults injected")).collect();
    assert_eq!(clean, faulty);
}

#[test]
fn killed_rank_fails_structurally_and_peers_observe_it() {
    // Kill rank 1 at its very first comm op in a 3-rank allreduce.
    let plan = FaultPlan::new(2).kill_rank(1, 0);
    let out = run_ranks_opts(3, RunOptions::with_faults(plan), workload);
    // The victim reports its own injected death.
    match &out[1] {
        Err(CommError::RankFailed { rank: 1, observer: 1, detail }) => {
            assert!(detail.contains("killed by fault injection at comm op 0"), "{detail}");
        }
        other => panic!("victim should self-report, got {other:?}"),
    }
    // Peers fail too rather than hanging — either by observing the dead
    // rank directly, via a cascade (a peer that died observing it), or
    // through the watchdog. The root cause stays in the detail chain.
    for r in [0, 2] {
        match &out[r] {
            Err(CommError::RankFailed { detail, .. }) => {
                assert!(detail.contains("killed by fault injection"), "rank {r}: {detail}");
            }
            Err(CommError::Timeout { .. }) => {}
            other => panic!("rank {r} should observe the failure, got {other:?}"),
        }
    }
}

#[test]
fn dropped_message_trips_the_watchdog_with_attribution() {
    // Rank 0's request to rank 1 is dropped; rank 1 never sees it and
    // never replies, so both ranks block forever — a stable deadlock
    // with all ranks alive. The watchdog must abort with a wait graph
    // that names each waiter, the awaited link and tag, and rank 0's
    // dropped send as the culprit.
    let plan = FaultPlan::new(3).drop_nth(0, 1, 0);
    let out = run_ranks_opts(2, RunOptions::with_faults(plan), |comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, vec![1.0f32]);
            let _ = comm.recv::<f32>(1, 8);
        } else {
            let _ = comm.recv::<f32>(0, 7);
            comm.send(0, 8, vec![2.0f32]);
        }
    });
    for (rank, r) in out.iter().enumerate() {
        match r {
            Err(CommError::Timeout { rank: tr, detail }) => {
                assert_eq!(*tr, rank);
                assert!(detail.contains("wait graph"), "{detail}");
                assert!(detail.contains("rank 1: waits on rank 0 (tag 7)"), "{detail}");
                assert!(detail.contains("rank 0: waits on rank 1 (tag 8)"), "{detail}");
                assert!(detail.contains("dropped sends: rank 0: 1"), "{detail}");
            }
            other => panic!("expected watchdog Timeout on rank {rank}, got {other:?}"),
        }
    }
}

#[test]
fn corruption_changes_the_result_deterministically() {
    // Corrupt the first point-to-point message rank 0 sends to rank 1.
    let run = |seed: u64| {
        let plan = FaultPlan::new(seed).corrupt_nth(0, 1, 0);
        let out = run_ranks_opts(2, RunOptions::with_faults(plan), |comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, vec![1.0f32, 2.0, 3.0]);
                Vec::new()
            } else {
                comm.recv::<f32>(0, 3)
            }
        });
        out.into_iter().map(|r| r.expect("corruption does not kill")).collect::<Vec<_>>()
    };
    let a = run(11);
    // The first element is corrupted, the rest untouched.
    assert_ne!(a[1][0].to_bits(), 1.0f32.to_bits());
    assert_eq!(&a[1][1..], &[2.0, 3.0]);
    // Same seed → bitwise-identical corruption; different seed → different.
    let b = run(11);
    assert_eq!(a[1][0].to_bits(), b[1][0].to_bits());
    let c = run(12);
    assert_ne!(a[1][0].to_bits(), c[1][0].to_bits());
}

#[test]
fn delays_change_timing_but_not_results() {
    let clean = run_ranks(3, workload);
    let plan = FaultPlan::new(4).delay_every(1, 2, Duration::from_millis(2));
    let delayed = run_ranks_opts(3, RunOptions::with_faults(plan), workload);
    let delayed: Vec<Vec<f32>> =
        delayed.into_iter().map(|r| r.expect("delays are benign")).collect();
    assert_eq!(clean, delayed);
}

#[test]
fn fixed_seed_reproduces_identical_outcomes() {
    // A chaos plan derived from a pinned seed must produce the same
    // per-rank outcome (including error shape and text) across runs.
    let run = || {
        let plan = FaultPlan::chaos(0xC0FFEE, 4, 16);
        run_ranks_opts(4, RunOptions::with_faults(plan), workload)
            .into_iter()
            .map(|r| match r {
                Ok(v) => format!("ok:{v:?}"),
                Err(e) => format!("err:{e}"),
            })
            .collect::<Vec<_>>()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
    // The chaos plan really does hurt someone.
    assert!(a.iter().any(|s| s.starts_with("err:")), "outcomes: {a:?}");
}

#[test]
fn integrity_repairs_injected_corruption_bitwise() {
    // The same scenario as `corruption_changes_the_result_deterministically`,
    // but with the integrity envelope applied before the fault stage: the
    // receiver detects the checksum mismatch, pulls a clean copy from
    // the sender's replay window, and delivers the pristine payload.
    let plan = FaultPlan::new(11).corrupt_nth(0, 1, 0);
    let opts = RunOptions::with_faults_integrity(plan);
    let out = run_ranks_opts(2, opts, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 3, vec![1.0f32, 2.0, 3.0]);
            (Vec::new(), 0, 0)
        } else {
            let v = comm.recv::<f32>(0, 3);
            let stats = comm.stats();
            (v, stats.corrupt_repaired(), stats.retransmits())
        }
    });
    let (payload, repaired, retransmits) = out[1].as_ref().expect("repaired, not fatal").clone();
    assert_eq!(payload, vec![1.0, 2.0, 3.0]);
    assert_eq!(repaired, 1);
    assert_eq!(retransmits, 1);
}

#[test]
fn integrity_retries_when_the_retransmission_is_also_corrupted() {
    // First transmission corrupted AND the first replay-window pull
    // corrupted: the receiver's retry loop pulls again and the second
    // retransmission delivers. One repaired message, two retransmits.
    let plan = FaultPlan::new(13).corrupt_nth(0, 1, 0).corrupt_retransmit_nth(0, 1, 0);
    let opts = RunOptions::with_faults_integrity(plan);
    let out = run_ranks_opts(2, opts, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 3, vec![4.0f32, 5.0]);
            (Vec::new(), 0, 0)
        } else {
            let v = comm.recv::<f32>(0, 3);
            let stats = comm.stats();
            (v, stats.corrupt_repaired(), stats.retransmits())
        }
    });
    let (payload, repaired, retransmits) = out[1].as_ref().expect("repaired").clone();
    assert_eq!(payload, vec![4.0, 5.0]);
    assert_eq!(repaired, 1);
    assert_eq!(retransmits, 2);
}

#[test]
fn integrity_budget_exhaustion_surfaces_typed_corrupt() {
    // Every retransmission is corrupted too; after the retry budget the
    // receive must unwind with CommError::Corrupt naming the link and
    // stream position — a structured outcome at the rank boundary, not
    // a hang or a raw panic.
    let mut plan = FaultPlan::new(17).corrupt_nth(0, 1, 0);
    for k in 0..8 {
        plan = plan.corrupt_retransmit_nth(0, 1, k);
    }
    let out = run_ranks_opts(2, RunOptions::with_faults_integrity(plan), |comm| {
        if comm.rank() == 0 {
            comm.send(1, 3, vec![1.0f32]);
            Vec::new()
        } else {
            comm.recv::<f32>(0, 3)
        }
    });
    assert!(out[0].is_ok());
    match &out[1] {
        Err(CommError::Corrupt { link, seq, detail }) => {
            assert_eq!(*link, (0, 1));
            assert_eq!(*seq, 0);
            assert!(detail.contains("budget 8"), "{detail}");
        }
        other => panic!("expected Corrupt after budget exhaustion, got {other:?}"),
    }
}

#[test]
fn integrity_repairs_drops_without_a_watchdog_trip() {
    // The same request/reply scenario that deadlocks in
    // `dropped_message_trips_the_watchdog_with_attribution` — but with
    // the envelope attached, the sender detects the drop and
    // retransmits at the link layer. The exchange completes; nobody
    // waits, so the watchdog never trips.
    let plan = FaultPlan::new(3).drop_nth(0, 1, 0);
    let opts = RunOptions::with_faults_integrity(plan);
    let out = run_ranks_opts(2, opts, |comm| {
        if comm.rank() == 0 {
            comm.send(1, 7, vec![1.0f32]);
            let reply = comm.recv::<f32>(1, 8);
            let stats = comm.stats();
            (reply, stats.dropped_sends(), stats.retransmits())
        } else {
            let req = comm.recv::<f32>(0, 7);
            comm.send(0, 8, vec![req[0] + 1.0]);
            (Vec::new(), 0, 0)
        }
    });
    let (reply, dropped, retransmits) = out[0].as_ref().expect("exchange completes").clone();
    assert_eq!(reply, vec![2.0]);
    assert_eq!(dropped, 1, "the drop still happened and is still counted");
    assert_eq!(retransmits, 1, "and was repaired by one link-layer retransmission");
}

#[test]
fn integrity_full_workload_survives_fault_rates_bitwise() {
    // Seeded Bernoulli drop + corruption rates over the whole mixed
    // workload (allreduce + halo exchange): with the integrity layer on,
    // every rank's result is bitwise identical to the fault-free run.
    let clean = run_ranks(4, workload);
    let plan = FaultPlan::new(0xFA17).drop_rate(0.2).corrupt_rate(0.2);
    let opts = RunOptions::with_faults_integrity(plan);
    let out = run_ranks_opts(4, opts, |comm| {
        let r = workload(comm);
        let stats = comm.stats();
        (r, stats.retransmits() + stats.corrupt_repaired())
    });
    let mut total_repairs = 0;
    for (rank, r) in out.iter().enumerate() {
        let (result, repairs) = r.as_ref().expect("all faults repaired");
        assert_eq!(result, &clean[rank], "rank {rank} diverged");
        total_repairs += repairs;
    }
    assert!(total_repairs > 0, "the plan must actually have injected faults");
}

#[test]
fn faults_pass_through_subgroup_traffic() {
    // A SubComm's traffic bottoms out in the world's send/recv, where the
    // fault stage sits, so link faults hit subgroup collectives too. Kill
    // rank 2 before its first send and let its subgroup discover it.
    let plan = FaultPlan::new(5).kill_rank(2, 0);
    let out = run_ranks_opts(4, RunOptions::with_faults(plan), |comm| {
        let group: Vec<usize> = (0..comm.size()).filter(|r| r % 2 == comm.rank() % 2).collect();
        let sub = fg_comm::SubComm::new(comm, group, comm.rank() as u64 % 2).expect("valid group");
        sub.allreduce(&[comm.rank() as f32], ReduceOp::Sum)
    });
    match &out[2] {
        Err(CommError::RankFailed { rank: 2, observer: 2, .. }) => {}
        other => panic!("rank 2 should die by injection, got {other:?}"),
    }
    // Rank 0 shares the even subgroup with rank 2 and must not hang.
    assert!(out[0].is_err(), "rank 0 depends on dead rank 2: {:?}", out[0]);
}
