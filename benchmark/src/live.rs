//! The three live workloads: a closed training loop on a 2-rank
//! `run_ranks` world, checked against the serial trainer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use fg_comm::{run_ranks, Communicator, OpClass, TrafficStats, WorldComm};
use fg_core::{DistExecutor, Strategy};
use fg_data::{ImageDataset, MeshDataset};
use fg_kernels::Labels;
use fg_models::{mesh_model_custom, resnet50_with, MeshSize, MESH_CHANNELS};
use fg_nn::{Network, NetworkSpec, Sgd};
use fg_tensor::{ProcGrid, Tensor};

use crate::calib::{compensate, Calibrator, REF_MS};
use crate::metrics::RunResult;
use crate::replay::{microbench, replay_kernels, KernelTimes, MicroTimes};
use crate::stats::{max, median, tail_percentile};
use crate::trace::{merge, Span, Tracer};
use crate::{ms_since, peak_rss_mib, GUARD_ENV};

/// World size of every live workload (`nproc` = 2 on the sizing box).
const RANKS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_PASSES: usize = 3;
/// Steps compared against the serial trainer: step 0 checks the forward
/// pass, step 1 the first backward pass and update. From step 2 on the
/// two summation orders drift apart on some seeds (up to 1e-2 in a scan
/// of 40), which says nothing about correctness.
const CHECKED_STEPS: usize = 2;
/// Relative deviation allowed at step 0, where both runs hold the same
/// parameters (a scan of 64 seeds stays below 3e-16).
const FORWARD_REL_TOL: f64 = 1e-6;
/// A run whose loss ends above this multiple of where it began has
/// diverged.
const DIVERGED_RATIO: f64 = 2.0;
/// Share of `--seconds` a traced run spends stepping; the rest of its
/// budget goes to the kernel replay and the microbenchmarks.
const TRACED_WINDOW_SHARE: f64 = 0.5;
/// Timed steps of the unguarded pass behind `comm.guard_tax_ratio`.
const UNGUARDED_STEPS: usize = 3;
const MOMENTUM: f32 = 0.9;
const WEIGHT_DECAY: f32 = 1e-4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveKind {
    MeshSample,
    MeshSpatial,
    ResnetMixed,
}

/// Pinned shape of one live workload. Counts may shrink to fit a time
/// budget; shapes never do.
struct LiveCfg {
    batch: usize,
    lr: f32,
    /// Pre-generated batches the loop rotates through.
    rotation: usize,
    warmup: usize,
    /// Timed steps run even when `--seconds` is already over.
    min_steps: usize,
    /// Relative deviation from the serial trainer allowed at step 1.
    /// Mesh: the bound `tests/distributed_equivalence.rs` uses (seeds
    /// scanned stay below 4e-6). ResNet's first update lands on a loss
    /// of 6–8 through 4-element batch norms and deviates up to 2e-4.
    update_rel_tol: f64,
    /// Serial steps timed by a traced run for `nn.serial_step_ms_p50`.
    serial_timing_steps: usize,
}

impl LiveKind {
    fn cfg(self) -> LiveCfg {
        match self {
            LiveKind::MeshSample | LiveKind::MeshSpatial => LiveCfg {
                batch: 2,
                lr: 0.005,
                rotation: 8,
                warmup: 3,
                min_steps: 20,
                update_rel_tol: 1e-3,
                serial_timing_steps: 7,
            },
            LiveKind::ResnetMixed => LiveCfg {
                batch: 4,
                lr: 0.001,
                rotation: 4,
                warmup: 1,
                min_steps: 5,
                update_rel_tol: 5e-3,
                serial_timing_steps: 2,
            },
        }
    }

    fn spec(self) -> NetworkSpec {
        match self {
            LiveKind::MeshSample | LiveKind::MeshSpatial => {
                mesh_model_custom(MeshSize::OneK, 128, 8)
            }
            LiveKind::ResnetMixed => resnet50_with(32, 100),
        }
    }

    fn strategy(self, spec: &NetworkSpec) -> Strategy {
        let spatial = ProcGrid::hybrid(1, RANKS, 1);
        match self {
            LiveKind::MeshSample => Strategy::uniform(spec, ProcGrid::sample(RANKS)),
            LiveKind::MeshSpatial => Strategy::uniform(spec, spatial),
            // The stem and res2 are split along H; from res3 on the maps
            // are too small and every layer is sample-parallel, which puts
            // a §III-C shuffle on the res2 → res3 boundary.
            LiveKind::ResnetMixed => {
                let mut strategy = Strategy::uniform(spec, ProcGrid::sample(RANKS));
                for (grid, layer) in strategy.grids.iter_mut().zip(spec.layers()) {
                    let n = layer.name.as_str();
                    let early = n == "data"
                        || n == "pool1"
                        || n.starts_with("conv1")
                        || n == "bn_conv1"
                        || n.starts_with("res2")
                        || n.starts_with("bn2");
                    if early {
                        *grid = spatial;
                    }
                }
                strategy
            }
        }
    }

    fn batches(self, cfg: &LiveCfg, seed: u64) -> Vec<(Tensor, Labels)> {
        let data_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(11);
        let first = (seed % 1000) as usize * cfg.batch;
        let at = |i: usize| first + i * cfg.batch;
        match self {
            LiveKind::MeshSample | LiveKind::MeshSpatial => {
                let ds = MeshDataset::new(128, 128 / 64, MESH_CHANNELS, data_seed);
                (0..cfg.rotation).map(|i| ds.batch(at(i), cfg.batch)).collect()
            }
            LiveKind::ResnetMixed => {
                let ds = ImageDataset::new(32, 3, 100, data_seed);
                (0..cfg.rotation).map(|i| ds.batch(at(i), cfg.batch)).collect()
            }
        }
    }
}

/// Everything a world needs, generated from the seed. The program under
/// test receives only these tensors.
struct Inputs {
    net: Network,
    exec: DistExecutor,
    batches: Vec<(Tensor, Labels)>,
    data_gen_ms: f64,
    plan_compile_ms: f64,
}

fn build_inputs(kind: LiveKind, cfg: &LiveCfg, seed: u64) -> Inputs {
    let t = Instant::now();
    let mut batches = kind.batches(cfg, seed);
    let data_gen_ms = ms_since(t);
    // The seed also picks where the rotation starts.
    batches.rotate_left((seed % cfg.rotation as u64) as usize);
    let spec = kind.spec();
    let net = Network::init(spec.clone(), seed);
    let strategy = kind.strategy(&spec);
    let t = Instant::now();
    let exec = DistExecutor::new(spec, strategy, cfg.batch).expect("pinned strategy is valid");
    let plan_compile_ms = ms_since(t);
    Inputs { net, exec, batches, data_gen_ms, plan_compile_ms }
}

/// How long a world keeps stepping after its warm-up.
#[derive(Debug, Clone, Copy)]
struct Window {
    seconds: f64,
    min_steps: usize,
    /// Alternate untraced and traced steps (traced runs only).
    traced: bool,
}

#[derive(Debug, Clone, Copy)]
struct StepRec {
    wall_ms: f64,
    /// Time outside the communicator (`busy_nanos` delta).
    busy_ms: f64,
    /// Phase walls; zero on untraced steps.
    fwd_ms: f64,
    bwd_ms: f64,
    sgd_ms: f64,
    traced: bool,
    loss: f64,
    /// This rank's calibration runs before and after the step, ms.
    calib_ms: [f64; 2],
}

struct RankOut {
    warm_losses: Vec<f64>,
    /// Calibration runs before and after the warm-up, ms.
    setup_calib_ms: [f64; 2],
    /// Wall of everything calibration did before the warm-up, ms.
    first_calib_wall_ms: f64,
    /// End of the warm-up.
    ready: Instant,
    steps: Vec<StepRec>,
    traffic: (TrafficStats, TrafficStats),
    spans: Vec<Span>,
}

/// Launch a world, warm it up and, if `window` is given, run the timed
/// closed loop: each rank issues its next step only when the previous
/// one has completed on both ranks. Both ranks run the calibration work
/// side by side around the warm-up and between steps, so it sees the
/// machine the way a step does: with both hardware threads busy.
fn world_pass(
    inputs: &Inputs,
    cfg: &LiveCfg,
    window: Option<Window>,
    epoch: Instant,
) -> Vec<RankOut> {
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(RANKS);
    let batch_at = |i: usize| &inputs.batches[i % cfg.rotation];
    let exec = &inputs.exec;
    run_ranks(RANKS, |comm: &WorldComm| {
        let mut params = inputs.net.params.clone();
        let mut opt = Sgd::new(cfg.lr, MOMENTUM, WEIGHT_DECAY, &params);
        let mut tracer = Tracer::new(epoch, comm.rank(), window.is_some_and(|w| w.traced));
        let t = Instant::now();
        let mut calibrator = Calibrator::new();
        let calib_start = calibrator.run();
        let first_calib_wall_ms = ms_since(t);
        let warm_losses: Vec<f64> = (0..cfg.warmup)
            .map(|i| {
                let (x, labels) = batch_at(i);
                exec.train_step(comm, &mut params, &mut opt, x, labels)
            })
            .collect();
        let ready = Instant::now();
        let mut calib_before = calibrator.run();
        let setup_calib_ms = [calib_start, calib_before];
        let traffic0 = comm.stats();
        let mut steps: Vec<StepRec> = Vec::new();
        while let Some(w) = window {
            let index = cfg.warmup + steps.len();
            let (x, labels) = batch_at(index);
            let traced = w.traced && steps.len() % 2 == 1;
            let busy0 = comm.busy_nanos();
            let t0 = Instant::now();
            let (mut fwd_ms, mut bwd_ms, mut sgd_ms) = (0.0, 0.0, 0.0);
            let loss = if traced {
                let step = tracer.begin("step", index);
                let span = tracer.begin("forward", index);
                let pass = exec.forward(comm, &params, x, Some(labels));
                tracer.end(span);
                fwd_ms = ms_since(t0);
                let span = tracer.begin("backward", index);
                let grads = exec.backward(comm, &params, &pass);
                tracer.end(span);
                bwd_ms = ms_since(t0) - fwd_ms;
                let span = tracer.begin("sgd_step", index);
                opt.step(&mut params, &grads);
                tracer.end(span);
                sgd_ms = ms_since(t0) - fwd_ms - bwd_ms;
                tracer.end(step);
                pass.loss.expect("network ends in a loss layer")
            } else {
                exec.train_step(comm, &mut params, &mut opt, x, labels)
            };
            let wall_ms = ms_since(t0);
            let busy_ms = (comm.busy_nanos() - busy0) as f64 / 1e6;
            // Rank 0 decides when the window is over; the barrier hands
            // the decision to its peer before either starts another step.
            if comm.rank() == 0 {
                let elapsed = ready.elapsed().as_secs_f64();
                let done = steps.len() + 1 >= w.min_steps && elapsed + wall_ms / 2e3 >= w.seconds;
                stop.store(done, Ordering::SeqCst);
            }
            barrier.wait();
            let calib_after = calibrator.run();
            let calib_ms = [calib_before, calib_after];
            steps.push(StepRec {
                wall_ms,
                busy_ms,
                fwd_ms,
                bwd_ms,
                sgd_ms,
                traced,
                loss,
                calib_ms,
            });
            calib_before = calib_after;
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // Both ranks have read the flag before rank 0 can store again:
            // its next store follows a step that needs this rank's messages.
        }
        RankOut {
            warm_losses,
            setup_calib_ms,
            first_calib_wall_ms,
            ready,
            steps,
            traffic: (traffic0, comm.stats()),
            spans: tracer.into_spans(),
        }
    })
}

/// The plain single-device run of the same task: `steps` steps from the
/// same initial parameters over the same batches. Returns each step's
/// loss and wall time (ms).
fn serial_reference(inputs: &Inputs, cfg: &LiveCfg, steps: usize) -> Vec<(f64, f64)> {
    let mut net = inputs.net.clone();
    let mut opt = Sgd::new(cfg.lr, MOMENTUM, WEIGHT_DECAY, &net.params);
    (0..steps)
        .map(|i| {
            let (x, labels) = &inputs.batches[i % cfg.rotation];
            let t = Instant::now();
            let (loss, grads) = net.loss_and_grads(x, labels);
            opt.step(&mut net.params, &grads);
            (loss, ms_since(t))
        })
        .collect()
}

/// Bytes (or messages) all ranks sent under `classes` during the window.
fn traffic_delta(outs: &[RankOut], classes: &[OpClass], bytes: bool) -> u64 {
    let of = |s: &TrafficStats| -> u64 {
        classes.iter().map(|&c| if bytes { s.bytes(c) } else { s.messages(c) }).sum()
    };
    outs.iter().map(|o| of(&o.traffic.1) - of(&o.traffic.0)).sum()
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// Per step, the largest `f` over the ranks: a step takes as long as its
/// slower rank.
fn slowest_rank(outs: &[RankOut], f: impl Fn(&StepRec) -> f64) -> Vec<f64> {
    (0..outs[0].steps.len())
        .map(|i| outs.iter().map(|o| f(&o.steps[i])).fold(f64::MIN, f64::max))
        .collect()
}

/// Run one live workload and fill in its metrics.
pub fn run(
    kind: LiveKind,
    seed: u64,
    seconds: f64,
    traced: bool,
    epoch: Instant,
) -> (RunResult, Vec<Span>) {
    let cfg = kind.cfg();
    let mut result = RunResult::default();

    // Set-up, several times over; only the last world goes on to the
    // timed window. The first pass starts at process start.
    let passes = if traced { 1 } else { SETUP_PASSES };
    let window = Window {
        seconds: if traced { seconds * TRACED_WINDOW_SHARE } else { seconds },
        min_steps: cfg.min_steps,
        traced,
    };
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for pass in 0..passes {
        let t0 = if pass == 0 { epoch } else { Instant::now() };
        let inputs = build_inputs(kind, &cfg, seed);
        let outs = world_pass(&inputs, &cfg, (pass + 1 == passes).then_some(window), epoch);
        // The warm-up ends when the slower rank is through; what the
        // calibration did before it is not part of the set-up.
        let ready = outs.iter().map(|o| o.ready).max().expect("two ranks");
        let calib: Vec<f64> = outs.iter().flat_map(|o| o.setup_calib_ms).collect();
        let first_calib_s =
            max(&outs.iter().map(|o| o.first_calib_wall_ms).collect::<Vec<_>>()) / 1e3;
        let wall_s = ready.duration_since(t0).as_secs_f64() - first_calib_s;
        setup_wall_s.push(wall_s);
        setup_s.push(compensate(wall_s, &calib));
        last = Some((inputs, outs));
    }
    let (inputs, outs) = last.expect("at least one set-up pass");
    let peak_rss = peak_rss_mib();

    let n = outs[0].steps.len();
    assert!(outs.iter().all(|o| o.steps.len() == n), "ranks ran different step counts");
    // A step takes as long as its slower rank; the four calibration runs
    // around it (two per rank) say how fast the machine was running.
    let wall_ms = slowest_rank(&outs, |s| s.wall_ms);
    let calib_of = |i: usize| outs.iter().flat_map(|o| o.steps[i].calib_ms).collect::<Vec<f64>>();
    let step_ms: Vec<f64> =
        wall_ms.iter().enumerate().map(|(i, &w)| compensate(w, &calib_of(i))).collect();
    let load: Vec<f64> = (0..n).map(|i| mean(&calib_of(i)) / REF_MS).collect();
    result.set("steps_per_s", n as f64 / (step_ms.iter().sum::<f64>() / 1e3));
    result.set("step_ms_p50", median(&step_ms));
    result.set("peak_rss_mb", peak_rss);
    result.set("setup_s", median(&setup_s));
    eprintln!(
        "uncompensated: step_ms_p50 {:.3}, setup_s {:.3}; load factor {:.3} (calibration run {:.3} ms)",
        median(&wall_ms),
        median(&setup_wall_s),
        median(&load),
        median(&load) * REF_MS,
    );

    // Correctness. An operation is one training step.
    let losses: Vec<f64> =
        outs[0].warm_losses.iter().copied().chain(outs[0].steps.iter().map(|s| s.loss)).collect();
    result.attempted = losses.len() as u64;
    let other: Vec<f64> =
        outs[1].warm_losses.iter().copied().chain(outs[1].steps.iter().map(|s| s.loss)).collect();
    let serial_steps = CHECKED_STEPS.max(if traced { cfg.serial_timing_steps } else { 0 });
    let serial = serial_reference(&inputs, &cfg, serial_steps);
    for (i, (&a, &b)) in losses.iter().zip(&other).enumerate() {
        let vs_serial = serial.get(i).filter(|_| i < CHECKED_STEPS).map(|(s, _)| *s);
        let tol = if i == 0 { FORWARD_REL_TOL } else { cfg.update_rel_tol };
        let off_serial = vs_serial.is_some_and(|s| (a - s).abs() > tol * s.abs().max(1.0));
        if !a.is_finite() || a.to_bits() != b.to_bits() || off_serial {
            result.failed += 1;
            eprintln!("step {i}: loss {a} (rank 1: {b}, serial: {vs_serial:?}) is wrong");
        }
    }
    // The kernels skip zero operands, so a dead or diverged run changes
    // what is being timed. Compared batch by batch — the loss at a
    // batch's last visit against its first — training must have moved
    // the loss and must not have blown it up. (Falling outright is too
    // much to ask of ResNet's first half-dozen steps: 1 seed in 24 rises.)
    let revisited = losses.len().saturating_sub(cfg.rotation).min(cfg.rotation);
    let last_visit = |b: usize| b + (losses.len() - 1 - b) / cfg.rotation * cfg.rotation;
    let head = mean(&losses[..revisited]);
    let tail = mean(&(0..revisited).map(|b| losses[last_visit(b)]).collect::<Vec<_>>());
    eprintln!("loss over {revisited} revisited batches: first visit {head}, last visit {tail}");
    if !(tail.is_finite() && tail < DIVERGED_RATIO * head && tail != head) {
        result.problems.push(format!("training is dead or diverged: loss {head} -> {tail}"));
    }
    let faults: u64 =
        outs.iter().map(|o| o.traffic.1.retransmits() + o.traffic.1.dropped_sends()).sum();
    if faults != 0 {
        result.problems.push(format!("{faults} retransmits/dropped sends on a healthy world"));
    }

    let mut spans = Vec::new();
    if traced {
        spans = traced_metrics(kind, &cfg, &inputs, outs, &serial, epoch, &mut result);
    }
    (result, spans)
}

/// The per-layer half of a traced run: decomposition of the step from
/// its spans, traffic counts, kernel replay, microbenchmarks.
fn traced_metrics(
    kind: LiveKind,
    cfg: &LiveCfg,
    inputs: &Inputs,
    outs: Vec<RankOut>,
    serial: &[(f64, f64)],
    epoch: Instant,
    result: &mut RunResult,
) -> Vec<Span> {
    let n = outs[0].steps.len();
    // Traced and untraced steps alternate; the phase walls exist on the
    // traced ones only.
    let of_kind = |v: Vec<f64>, traced: bool| -> Vec<f64> {
        v.into_iter().zip(&outs[0].steps).filter(|(_, s)| s.traced == traced).map(|p| p.0).collect()
    };
    let all_ms = slowest_rank(&outs, |s| s.wall_ms);
    let traced_p50 = median(&of_kind(all_ms.clone(), true));
    let untraced_p50 = median(&of_kind(all_ms.clone(), false));
    let step_p50 = median(&all_ms);
    let fwd = median(&of_kind(slowest_rank(&outs, |s| s.fwd_ms), true));
    let bwd = median(&of_kind(slowest_rank(&outs, |s| s.bwd_ms), true));
    let sgd = median(&of_kind(slowest_rank(&outs, |s| s.sgd_ms), true));
    result.set("bench.trace_overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100.0);
    // The numbers of a traced run are plain wall times; this says how
    // much slower than the quiet sizing box the machine ran meanwhile.
    let calib: Vec<f64> = outs.iter().flat_map(|o| o.steps.iter().map(|s| s.calib_ms[1])).collect();
    result.set("bench.load_factor", median(&calib) / REF_MS);
    result.set("core.forward_ms_p50", fwd);
    result.set("core.backward_ms_p50", bwd);
    result.set("core.bwd_fwd_ratio", bwd / fwd);
    let (tail_pct, tail_ms) = tail_percentile(&all_ms).unwrap_or((100.0, max(&all_ms)));
    result.set("core.step_ms_tail", tail_ms);
    result.set("core.step_tail_pct", tail_pct);
    result.set("core.step_samples", n as f64);

    // Waiting is wall minus time outside the communicator, per rank.
    let wait: Vec<f64> = (0..n)
        .map(|i| {
            mean(&outs.iter().map(|o| o.steps[i].wall_ms - o.steps[i].busy_ms).collect::<Vec<_>>())
        })
        .collect();
    let skew: Vec<f64> =
        (0..n).map(|i| (outs[0].steps[i].busy_ms - outs[1].steps[i].busy_ms).abs()).collect();
    let wait_ms = median(&wait);
    result.set("comm.wait_ms_per_step", wait_ms);
    result.set("comm.wait_share", wait_ms / step_p50);
    result.set("comm.rank_skew_ms", median(&skew));

    // Traffic is a whole number per step, identical from step to step.
    let mut traffic = |name: &str, classes: &[OpClass], bytes: bool| {
        let total = traffic_delta(&outs, classes, bytes);
        if !total.is_multiple_of(n as u64) {
            result.problems.push(format!("{name}: {total} over {n} steps is not whole"));
        }
        result.set(name, (total / n as u64) as f64);
    };
    traffic("comm.bytes_per_step", &OpClass::ALL, true);
    traffic("comm.msgs_per_step", &OpClass::ALL, false);
    traffic("comm.halo_bytes_per_step", &[OpClass::Halo], true);
    let allreduce = [OpClass::Allreduce, OpClass::ReduceScatter, OpClass::Allgather];
    traffic("comm.allreduce_bytes_per_step", &allreduce, true);
    // `alltoallv` re-labels the shuffle's traffic as AllToAll, so the
    // two classes are summed (README, first readings).
    traffic("comm.shuffle_bytes_per_step", &[OpClass::Shuffle, OpClass::AllToAll], true);
    let retransmits: u64 = outs.iter().map(|o| o.traffic.1.retransmits()).sum();
    result.set("comm.retransmits", retransmits as f64);

    // Serial baseline.
    let serial_p50 = median(&serial.iter().map(|s| s.1).collect::<Vec<_>>());
    result.set("nn.serial_step_ms_p50", serial_p50);
    result.set("speedup_vs_serial", serial_p50 / step_p50);
    let param_bytes = inputs.net.params.iter().map(|p| p.len()).sum::<usize>() * 4;
    result.set("nn.param_bytes", param_bytes as f64);
    result.set("nn.sgd_step_ms_p50", sgd);
    // Sgd::step reads parameters, gradients and velocity and writes
    // parameters and velocity: five passes over the parameter bytes.
    result.set("nn.sgd_gbps", 5.0 * param_bytes as f64 / (sgd / 1e3) / 1e9);
    result.set("nn.loss_final", outs[0].steps[cfg.min_steps - 1].loss);
    result.set("data.gen_ms_per_sample", inputs.data_gen_ms / (cfg.rotation * cfg.batch) as f64);

    // Static analyses of the compiled schedule.
    result.set("core.plan_compile_ms", inputs.plan_compile_ms);
    let t = Instant::now();
    let verify = inputs.exec.verify();
    result.set("core.verify_ms", ms_since(t));
    let t = Instant::now();
    let mem = inputs.exec.analyze_memory();
    result.set("core.mem_analyze_ms", ms_since(t));
    result.set("core.mem_static_peak_bytes", mem.max_peak() as f64);
    if !verify.is_clean() || !mem.is_clean() {
        result.problems.push("schedule verifier or memory analyzer reported a violation".into());
    }

    // Kernel replay and microbenchmarks on a fresh 2-rank world.
    let (spec, strategy) = (&inputs.exec.spec, &inputs.exec.strategy);
    let input = &inputs.batches[0].0;
    let replayed: Vec<(KernelTimes, MicroTimes, Vec<Span>)> = run_ranks(RANKS, |comm| {
        let mut tracer = Tracer::new(epoch, comm.rank(), true);
        let kernels = replay_kernels(spec, strategy, cfg.batch, comm.rank(), &mut tracer);
        let open = tracer.begin("microbench", 0);
        let micro = microbench(comm, spec, strategy, cfg.batch, input);
        tracer.end(open);
        (kernels, micro, tracer.into_spans())
    });
    let mut span_lists: Vec<Vec<Span>> = outs.into_iter().map(|o| o.spans).collect();
    let (k, m) = (replayed[0].0.clone(), replayed[0].1.clone());
    span_lists.extend(replayed.into_iter().map(|r| r.2));
    let gflops = |ms: f64| if ms > 0.0 { k.conv_flops_per_pass / (ms / 1e3) / 1e9 } else { 0.0 };
    result.set("kernels.conv_fwd_ms", k.conv_fwd_ms);
    result.set("kernels.conv_bwd_data_ms", k.conv_bwd_data_ms);
    result.set("kernels.conv_bwd_filter_ms", k.conv_bwd_filter_ms);
    result.set("kernels.conv_fwd_gflops", gflops(k.conv_fwd_ms));
    result.set("kernels.conv_bwd_data_gflops", gflops(k.conv_bwd_data_ms));
    result.set("kernels.conv_bwd_filter_gflops", gflops(k.conv_bwd_filter_ms));
    result.set("kernels.conv_flops_per_step", 3.0 * k.conv_flops_per_pass);
    result.set("kernels.bn_ms", k.bn_ms);
    result.set("kernels.relu_ms", k.relu_ms);
    result.set("kernels.pool_ms", k.pool_ms);
    if k.fc_ms > 0.0 {
        result.set("kernels.fc_gemm_gflops", k.fc_flops / (k.fc_ms / 1e3) / 1e9);
    }
    result.set("kernels.step_share", k.total_ms() / step_p50);
    // What is left of the step once kernels, waiting and the optimizer
    // are taken out: window builds, copies, allocation, accumulation.
    let overhead = step_p50 - k.total_ms() - wait_ms - sgd;
    result.set("core.overhead_ms", overhead);
    result.set("core.overhead_share", overhead / step_p50);
    result.set("comm.p2p_rtt_us", m.p2p_rtt_us);
    result.set("comm.p2p_gbps", m.p2p_gbps);
    result.set("comm.allreduce_small_us", m.allreduce_small_us);
    result.set("comm.allreduce_gbps", m.allreduce_gbps);
    result.set("tensor.halo_exchange_us", m.halo_exchange_us);
    result.set("tensor.halo_gbps", m.halo_gbps);
    result.set("tensor.shuffle_ms", m.shuffle_ms);
    result.set("tensor.from_global_ms", m.from_global_ms);

    // Guard tax: the same world without the two env guards.
    if kind == LiveKind::ResnetMixed {
        for name in GUARD_ENV {
            std::env::remove_var(name);
        }
        let window = Window { seconds: 0.0, min_steps: UNGUARDED_STEPS, traced: false };
        let bare = world_pass(inputs, cfg, Some(window), epoch);
        let bare_p50 = median(&slowest_rank(&bare, |s| s.wall_ms));
        result.set("comm.guard_tax_ratio", step_p50 / bare_p50);
    }
    merge(span_lists)
}
