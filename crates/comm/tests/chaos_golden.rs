//! Golden chaos outcomes, recorded at the commit before fault injection
//! and integrity became stages inside `WorldComm` (there they were
//! communicator wrappers stacked around it by two dedicated launchers).
//! Every pinned `(FaultPlan, program)` pair must still produce, on every
//! rank, the same `Result` variant and key fields, the same payload
//! bits, the same `ops()` count and the same traffic counters — the
//! proof that the three ordinal streams the fault model is keyed on
//! (comm ops per rank, sends per link, retransmissions served per link)
//! tick exactly as they did, so a kill scheduled from a probed `ops()`
//! count still lands on the same operation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use fg_comm::{
    run_ranks_opts, Collectives, CommError, Communicator, FaultPlan, ReduceOp, RunOptions, SubComm,
    WorldComm,
};

/// The chaos suite's mixed workload (`tests/faults.rs`): an allreduce,
/// then a neighbor exchange.
fn workload(comm: &WorldComm) -> Vec<f32> {
    let p = comm.size();
    let mine = vec![(comm.rank() + 1) as f32; 8];
    let mut out = comm.allreduce(&mine, ReduceOp::Sum);
    let next = (comm.rank() + 1) % p;
    let prev = (comm.rank() + p - 1) % p;
    let neighbor = comm.sendrecv(next, prev, 7, vec![comm.rank() as f32]);
    out.push(neighbor[0]);
    out
}

/// A surviving rank's line: payload bits, op clock, traffic counters.
fn ok_line(comm: &WorldComm, payload: &[f32]) -> String {
    let s = comm.stats();
    let bits: Vec<String> = payload.iter().map(|x| format!("{:08x}", x.to_bits())).collect();
    format!(
        "ok [{}] ops={} msgs={} bytes={} dropped={} retx={} repaired={}",
        bits.join(" "),
        comm.ops(),
        s.total_messages(),
        s.total_bytes(),
        s.dropped_sends(),
        s.retransmits(),
        s.corrupt_repaired(),
    )
}

/// Run `f` under `opts` and render every rank's outcome as one line:
/// the survivor's own, or the error's variant and key fields (never its
/// free text).
fn outcome<F>(size: usize, opts: RunOptions, f: F) -> Vec<String>
where
    F: Fn(&WorldComm) -> String + Send + Sync,
{
    run_ranks_opts(size, opts, f)
        .into_iter()
        .map(|r| match r {
            Ok(line) => line,
            Err(CommError::RankFailed { rank, observer, .. }) => {
                format!("failed rank={rank} observer={observer}")
            }
            Err(CommError::Timeout { rank, .. }) => format!("timeout rank={rank}"),
            Err(CommError::Corrupt { link, seq, .. }) => {
                format!("corrupt link={}->{} seq={seq}", link.0, link.1)
            }
            Err(other) => format!("other {other:?}"),
        })
        .collect()
}

fn faulty(plan: FaultPlan) -> RunOptions {
    RunOptions::with_faults(plan)
}

fn guarded(plan: FaultPlan) -> RunOptions {
    RunOptions::with_faults_integrity(plan)
}

/// Three exchange + allreduce steps between two ranks. `done[r]` counts
/// the steps rank `r` finished; `ops_after[r]` is its op count after
/// step 1 — the probe a kill is scheduled from.
fn steps(comm: &WorldComm, done: &[AtomicU64; 2], ops_after: &[AtomicU64; 2]) -> String {
    let (me, peer) = (comm.rank(), 1 - comm.rank());
    let mut acc = Vec::new();
    for step in 0..3u64 {
        let got = comm.sendrecv(peer, peer, 10 + step, vec![(me as u64 + step) as f32; 4]);
        acc.push(comm.allreduce(&got, ReduceOp::Sum)[0]);
        done[me].fetch_add(1, Ordering::SeqCst);
        if step == 1 {
            ops_after[me].store(comm.ops(), Ordering::SeqCst);
        }
    }
    ok_line(comm, &acc)
}

fn request_reply(comm: &WorldComm) -> String {
    if comm.rank() == 0 {
        comm.send(1, 7, vec![1.0f32]);
        let reply = comm.recv::<f32>(1, 8);
        ok_line(comm, &reply)
    } else {
        let req = comm.recv::<f32>(0, 7);
        comm.send(0, 8, vec![req[0] + 1.0]);
        ok_line(comm, &req)
    }
}

fn one_way(comm: &WorldComm) -> String {
    if comm.rank() == 0 {
        comm.send(1, 3, vec![1.0f32, 2.0, 3.0]);
        ok_line(comm, &[])
    } else {
        let v = comm.recv::<f32>(0, 3);
        ok_line(comm, &v)
    }
}

/// An allreduce inside the even and the odd subgroup of a 4-rank world.
fn subgroup(comm: &WorldComm) -> String {
    let group: Vec<usize> = (0..comm.size()).filter(|r| r % 2 == comm.rank() % 2).collect();
    let sub = SubComm::new(comm, group, comm.rank() as u64 % 2).expect("valid group");
    let sum = sub.allreduce(&[comm.rank() as f32 + 1.0; 3], ReduceOp::Sum);
    ok_line(comm, &sum)
}

#[test]
fn kill_scheduled_from_a_probed_op_count_lands_on_the_same_operation() {
    let zero = || [AtomicU64::new(0), AtomicU64::new(0)];
    let (done, ops_after) = (zero(), zero());
    let probe = outcome(2, faulty(FaultPlan::new(1)), |c| steps(c, &done, &ops_after));
    assert_eq!(
        probe,
        ["ok [3f800000 40400000 40a00000] ops=12 msgs=6 bytes=96 dropped=0 retx=0 repaired=0"; 2]
    );
    let at = ops_after[1].load(Ordering::SeqCst);
    assert_eq!(at, 8);
    // Rank 1 dies entering step 2, with or without the envelope; rank 0
    // finishes two steps and observes the death.
    for opts in [faulty, guarded] {
        let (done, unused) = (zero(), zero());
        let plan = FaultPlan::new(1).kill_rank(1, at);
        let out = outcome(2, opts(plan), |c| steps(c, &done, &unused));
        assert_eq!(out, ["failed rank=1 observer=0", "failed rank=1 observer=1"]);
        assert_eq!(done.map(|d| d.into_inner()), [2, 2]);
    }
}

#[test]
fn dropped_request_deadlocks_bare_and_is_retried_when_enveloped() {
    let plan = || FaultPlan::new(3).drop_nth(0, 1, 0);
    assert_eq!(outcome(2, faulty(plan()), request_reply), ["timeout rank=0", "timeout rank=1"]);
    assert_eq!(
        outcome(2, guarded(plan()), request_reply),
        [
            "ok [40000000] ops=2 msgs=1 bytes=4 dropped=1 retx=1 repaired=0",
            "ok [3f800000] ops=2 msgs=1 bytes=4 dropped=0 retx=0 repaired=0",
        ]
    );
}

#[test]
fn corruption_reaches_the_program_bare_and_is_repaired_when_enveloped() {
    let plan = || FaultPlan::new(11).corrupt_nth(0, 1, 0);
    let sender = "ok [] ops=1 msgs=1 bytes=12 dropped=0 retx=0 repaired=0";
    assert_eq!(
        outcome(2, faulty(plan()), one_way),
        [
            sender,
            "ok [e22cfba1 40000000 40400000] ops=1 msgs=0 bytes=0 dropped=0 retx=0 repaired=0"
        ]
    );
    assert_eq!(
        outcome(2, guarded(plan()), one_way),
        [
            sender,
            "ok [3f800000 40000000 40400000] ops=1 msgs=0 bytes=0 dropped=0 retx=1 repaired=1"
        ]
    );
}

#[test]
fn corrupted_retransmissions_are_retried_up_to_the_budget() {
    let sender = "ok [] ops=1 msgs=1 bytes=12 dropped=0 retx=0 repaired=0";
    let plan = FaultPlan::new(13).corrupt_nth(0, 1, 0).corrupt_retransmit_nth(0, 1, 0);
    assert_eq!(
        outcome(2, guarded(plan), one_way),
        [
            sender,
            "ok [3f800000 40000000 40400000] ops=1 msgs=0 bytes=0 dropped=0 retx=2 repaired=1"
        ]
    );
    let mut plan = FaultPlan::new(17).corrupt_nth(0, 1, 0);
    for k in 0..8 {
        plan = plan.corrupt_retransmit_nth(0, 1, k);
    }
    assert_eq!(outcome(2, guarded(plan), one_way), [sender, "corrupt link=0->1 seq=0"]);
}

#[test]
fn rate_based_drops_and_corruption_over_the_mixed_workload() {
    let plan = FaultPlan::new(0xFA17).drop_rate(0.2).corrupt_rate(0.2);
    let sum = "41200000 41200000 41200000 41200000 41200000 41200000 41200000 41200000";
    assert_eq!(
        outcome(4, guarded(plan), |c| ok_line(c, &workload(c))),
        [
            format!("ok [{sum} 40400000] ops=6 msgs=3 bytes=68 dropped=0 retx=1 repaired=1"),
            format!("ok [{sum} 00000000] ops=6 msgs=3 bytes=68 dropped=4 retx=5 repaired=1"),
            format!("ok [{sum} 3f800000] ops=6 msgs=3 bytes=68 dropped=1 retx=1 repaired=0"),
            format!("ok [{sum} 40000000] ops=6 msgs=3 bytes=68 dropped=1 retx=2 repaired=1"),
        ]
    );
}

#[test]
fn delay_spike_changes_no_count_and_no_bit() {
    let plan = FaultPlan::new(4).delay_every(1, 2, Duration::from_millis(2));
    let sum = "40c00000 40c00000 40c00000 40c00000 40c00000 40c00000 40c00000 40c00000";
    assert_eq!(
        outcome(3, faulty(plan), |c| ok_line(c, &workload(c))),
        [
            format!("ok [{sum} 40000000] ops=6 msgs=3 bytes=68 dropped=0 retx=0 repaired=0"),
            format!("ok [{sum} 00000000] ops=4 msgs=2 bytes=36 dropped=0 retx=0 repaired=0"),
            format!("ok [{sum} 3f800000] ops=4 msgs=2 bytes=36 dropped=0 retx=0 repaired=0"),
        ]
    );
}

#[test]
fn faults_strike_subgroup_traffic_on_its_world_links() {
    // Link 0→2 and rank 3 are named in world ranks; the traffic that
    // meets them is the subgroups'.
    let plan = FaultPlan::new(5).corrupt_nth(0, 2, 0).kill_rank(3, 1);
    assert_eq!(
        outcome(4, faulty(plan), subgroup),
        [
            "ok [40800000 40800000 40800000] ops=2 msgs=1 bytes=12 dropped=0 retx=0 repaired=0",
            "ok [40c00000 40c00000 40c00000] ops=2 msgs=1 bytes=12 dropped=0 retx=0 repaired=0",
            "ok [403ffff5 40800000 40800000] ops=2 msgs=1 bytes=12 dropped=0 retx=0 repaired=0",
            "failed rank=3 observer=3",
        ]
    );
    let plan = FaultPlan::new(5).corrupt_nth(0, 2, 0).drop_nth(1, 3, 0);
    assert_eq!(
        outcome(4, guarded(plan), subgroup),
        [
            "ok [40800000 40800000 40800000] ops=2 msgs=1 bytes=12 dropped=0 retx=0 repaired=0",
            "ok [40c00000 40c00000 40c00000] ops=2 msgs=1 bytes=12 dropped=1 retx=1 repaired=0",
            "ok [40800000 40800000 40800000] ops=2 msgs=1 bytes=12 dropped=0 retx=1 repaired=1",
            "ok [40c00000 40c00000 40c00000] ops=2 msgs=1 bytes=12 dropped=0 retx=0 repaired=0",
        ]
    );
}
