//! End-to-end serving tests, healthy and under chaos.
//!
//! The contract under test (crate docs): **every accepted request
//! terminates** — no hangs — **with either logits equal to the serial
//! reference ([`ServableModel::infer`]) or a typed [`ServeError`]** —
//! no silent wrong answers. The model is a segmentation net (sharded
//! head), so the equality is bitwise on every grid a replica may
//! rebuild onto after losing a rank.
//!
//! The chaos run injects, with pinned seeds: message drops, payload
//! corruption (both repaired bitwise by the integrity layer below the
//! executor), and one mid-traffic rank kill on replica 0 — which must
//! drain its in-flight jobs typed, rebuild on the survivor via the
//! elastic-degradation path, and re-admit through a breaker probe while
//! replica 1 keeps serving.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fg_comm::FaultPlan;
use fg_core::ServableModel;
use fg_nn::{init_params, GuardState, NetworkSpec, TrainState};
use fg_serve::{ReplicaSpec, ServeError, Server, ServerConfig};
use fg_tensor::{ProcGrid, Shape4, Tensor};

/// Small segmentation net: conv → BN → relu → 1×1 prediction conv. The
/// sharded head keeps distributed inference bitwise-equal to serial on
/// every grid, including post-failure fallbacks.
fn seg_spec() -> NetworkSpec {
    let mut spec = NetworkSpec::new();
    let i = spec.input("x", 2, 8, 8);
    let c1 = spec.conv("c1", i, 4, 3, 1, 1);
    let b1 = spec.batchnorm("b1", c1);
    let r1 = spec.relu("r1", b1);
    let pred = spec.conv("pred", r1, 2, 1, 1, 0);
    spec.loss("l", pred);
    spec
}

fn sample(seed: u64) -> Tensor {
    let mut state = seed | 1;
    Tensor::from_fn(Shape4::new(1, 2, 8, 8), |_, _, _, _| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state % 1000) as f32) / 250.0 - 2.0
    })
}

fn servable(seed: u64) -> Arc<ServableModel> {
    let spec = seg_spec();
    let params = init_params(&spec, seed);
    let velocity = params.iter().map(|p| p.zeros_like()).collect();
    let state = TrainState {
        step: 11,
        params,
        velocity,
        losses: vec![0.4; 11],
        guard: GuardState::default(),
        grid: ProcGrid::sample(1),
    };
    let calibration: Vec<Tensor> = (0..3u64)
        .map(|k| {
            let mut batch = Tensor::zeros(Shape4::new(4, 2, 8, 8));
            let row = 2 * 8 * 8;
            for n in 0..4 {
                batch.as_mut_slice()[n * row..(n + 1) * row]
                    .copy_from_slice(sample(seed ^ (k * 7 + n as u64 + 1)).as_slice());
            }
            batch
        })
        .collect();
    Arc::new(ServableModel::from_train_state(&spec, &state, &calibration, 0.1))
}

fn config() -> ServerConfig {
    ServerConfig { max_batch: 4, ..ServerConfig::default() }
}

/// Submit `n` requests, wait each out under a hang guard, and check the
/// contract: Ok ⇒ bitwise-equal to the serial reference; Err ⇒ typed.
/// Returns (ok, typed_errors).
fn drive_wave(
    server: &Server,
    model: &ServableModel,
    seed_base: u64,
    n: usize,
    deadline: Duration,
) -> (usize, usize) {
    let mut pending = Vec::new();
    for i in 0..n {
        let x = sample(seed_base + i as u64);
        match server.submit(x.clone(), Instant::now() + deadline) {
            Ok(resp) => pending.push((x, resp)),
            Err(ServeError::QueueFull { .. }) => {} // typed shed at admission
            Err(e) => panic!("submit can only shed, got {e}"),
        }
        // A trickle, so batches form with mixed sizes.
        if i % 3 == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    let (mut ok, mut typed) = (0, 0);
    for (x, resp) in pending {
        // Zero hangs: every accepted request must terminate well within
        // the guard (deadline + scheduling slack), or the test fails.
        let outcome = resp
            .wait_timeout(deadline + Duration::from_secs(30))
            .expect("accepted request hung past the guard");
        match outcome {
            Ok(reply) => {
                let reference = model.infer(&x);
                assert_eq!(
                    reply.logits,
                    reference.as_slice(),
                    "zero silent wrong answers: served logits must be \
                     bitwise-equal to the serial reference"
                );
                ok += 1;
            }
            Err(
                ServeError::DeadlineExceeded { .. }
                | ServeError::RetriesExhausted { .. }
                | ServeError::Shutdown
                | ServeError::QueueFull { .. },
            ) => typed += 1,
        }
    }
    (ok, typed)
}

#[test]
fn healthy_serving_returns_reference_logits_for_every_request() {
    let model = servable(41);
    let replicas = vec![
        ReplicaSpec::healthy(ProcGrid::spatial(2, 1)),
        ReplicaSpec::healthy(ProcGrid::spatial(2, 1)),
    ];
    let server = Server::start(Arc::clone(&model), replicas, config());
    let (ok, typed) = drive_wave(&server, &model, 9000, 40, Duration::from_secs(10));
    assert_eq!(ok, 40, "a healthy tier at trivial load completes everything ({typed} typed)");
    let m = server.shutdown();
    assert_eq!(m.completed_ok, 40);
    assert_eq!(m.replica_recycles, 0, "healthy worlds never rebuild");
    assert!(m.batches >= 10, "requests were batched, not serialized one per dispatch");
}

#[test]
fn chaos_serving_never_hangs_and_never_serves_wrong_answers() {
    let model = servable(57);
    // Replica 0: lossy links (drops + corruption, repaired bitwise by
    // the integrity layer) plus one mid-traffic kill of rank 1. The
    // kill is one-shot: the rebuilt world keeps only the rates.
    // Replica 1: lossy links throughout, no kill.
    let chaos0 = FaultPlan::new(0xC0FFEE).drop_rate(0.04).corrupt_rate(0.04).kill_rank(1, 30);
    let chaos1 = FaultPlan::new(0xBEEF).drop_rate(0.04).corrupt_rate(0.04);
    let replicas = vec![
        ReplicaSpec::healthy(ProcGrid::spatial(2, 1)).with_faults(chaos0),
        ReplicaSpec::healthy(ProcGrid::spatial(2, 1)).with_faults(chaos1),
    ];
    let server = Server::start(Arc::clone(&model), replicas, config());

    // Waves of traffic across the kill and the rebuild. Every accepted
    // request must terminate correct-or-typed regardless of which era
    // it lands in.
    let mut ok_total = 0;
    let mut typed_total = 0;
    for wave in 0..6u64 {
        let (ok, typed) =
            drive_wave(&server, &model, 50_000 + wave * 1000, 25, Duration::from_secs(10));
        ok_total += ok;
        typed_total += typed;
    }

    let m = server.shutdown();
    assert!(
        m.replica_recycles >= 1,
        "the mid-traffic kill must force at least one world rebuild (metrics: {m:?})"
    );
    assert!(
        ok_total >= 50,
        "the tier keeps serving through chaos (ok {ok_total}, typed {typed_total}, \
         metrics: {m:?})"
    );
    // Accounting closes: everything accepted got exactly one terminal
    // outcome (the per-request guard above already proved no hangs).
    assert_eq!(
        m.accepted,
        (ok_total + typed_total) as u64,
        "every accepted request reached a terminal outcome"
    );
}
