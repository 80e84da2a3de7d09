//! `plan_paper_scale`: the planner answering "what would this strategy
//! cost at paper scale" — strategy search, then the compile → record →
//! verify → analyze → simulate pipeline — with no kernel doing any work.

use std::time::Instant;

use fg_comm::{check_traces, simulate_traces, LinkModel};
use fg_core::{DistExecutor, Strategy};
use fg_models::{mesh_model, resnet50, MeshSize};
use fg_nn::NetworkSpec;
use fg_perf::{
    network_cost, platform_link_model, CostOptions, ModeledCompute, Platform, StrategyOptimizer,
};
use fg_tensor::ProcGrid;

use crate::calib::{compensate, Calibrator, REF_MS};
use crate::metrics::{RunResult, PIPELINE_CFGS, SEARCH_CFGS};
use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::{ms_since, peak_rss_mib};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_PASSES: usize = 7;
/// Sweeps run even when `--seconds` is already over.
const MIN_SWEEPS: usize = 2;

#[derive(Debug, Clone, Copy)]
enum Model {
    Mesh1k,
    Mesh2k,
    Resnet50,
}

/// `(model, global batch, world size)` per entry of [`SEARCH_CFGS`].
const SEARCHES: [(Model, usize, usize); 3] =
    [(Model::Resnet50, 2048, 128), (Model::Mesh1k, 16, 64), (Model::Mesh2k, 2, 32)];
/// `(model, global batch, (n, h, w) grid)` per entry of [`PIPELINE_CFGS`].
const PIPELINES: [(Model, usize, (usize, usize, usize)); 3] = [
    (Model::Mesh1k, 32, (32, 4, 4)),
    (Model::Mesh2k, 8, (8, 4, 4)),
    (Model::Resnet50, 8192, (256, 2, 1)),
];

/// What set-up builds: the three networks at full paper resolution and
/// the platform both products are asked about.
struct Planner {
    platform: Platform,
    link: LinkModel,
    mesh1k: NetworkSpec,
    mesh2k: NetworkSpec,
    resnet: NetworkSpec,
}

impl Planner {
    fn new() -> Planner {
        let platform = Platform::lassen_like();
        Planner {
            link: platform_link_model(&platform),
            platform,
            mesh1k: mesh_model(MeshSize::OneK),
            mesh2k: mesh_model(MeshSize::TwoK),
            resnet: resnet50(),
        }
    }

    fn spec(&self, model: Model) -> &NetworkSpec {
        match model {
            Model::Mesh1k => &self.mesh1k,
            Model::Mesh2k => &self.mesh2k,
            Model::Resnet50 => &self.resnet,
        }
    }
}

/// One `optimize()` call.
struct SearchOut {
    ms: f64,
    cost_s: f64,
}

/// One pass through the plan pipeline, stage by stage.
struct PipelineOut {
    compile_ms: f64,
    record_ms: f64,
    verify_ms: f64,
    mem_ms: f64,
    simulate_ms: f64,
    static_peak_bytes: usize,
    makespan_s: f64,
    events: u64,
    messages: u64,
    modeled_s: f64,
    /// Violations from the verifier and the memory analyzer, or the
    /// simulator's error.
    faults: Vec<String>,
}

fn search(p: &Planner, idx: usize, tracer: &mut Tracer, sweep: usize) -> SearchOut {
    let (model, batch, world) = SEARCHES[idx];
    let open = tracer.begin(&format!("search.{}", SEARCH_CFGS[idx]), sweep);
    let t = Instant::now();
    let (_, cost) = StrategyOptimizer::new(&p.platform, p.spec(model), batch, world).optimize();
    let ms = ms_since(t);
    tracer.end(open);
    SearchOut { ms, cost_s: cost.total() }
}

fn pipeline(p: &Planner, idx: usize, tracer: &mut Tracer, sweep: usize) -> PipelineOut {
    let (model, batch, (gn, gh, gw)) = PIPELINES[idx];
    let spec = p.spec(model);
    let strategy = Strategy::uniform(spec, ProcGrid::hybrid(gn, gh, gw));
    let mut faults = Vec::new();
    let whole = tracer.begin(&format!("pipeline.{}", PIPELINE_CFGS[idx]), sweep);

    let open = tracer.begin("plan_compile", sweep);
    let t = Instant::now();
    let exec = DistExecutor::new(spec.clone(), strategy.clone(), batch)
        .expect("pinned paper-scale configuration compiles");
    let compile_ms = ms_since(t);
    tracer.end(open);

    let open = tracer.begin("record_traces", sweep);
    let t = Instant::now();
    let oracle = ModeledCompute::new(&p.platform, spec, &strategy, batch);
    let traces = exec.record_traces(Some(&oracle));
    let record_ms = ms_since(t);
    tracer.end(open);

    let open = tracer.begin("check_traces", sweep);
    let t = Instant::now();
    let names: Vec<String> = spec.layers().iter().map(|l| l.name.clone()).collect();
    let (_, violations) = check_traces(&traces, &names);
    let verify_ms = ms_since(t);
    tracer.end(open);
    faults.extend(violations.iter().map(|v| v.to_string()));

    let open = tracer.begin("analyze_memory", sweep);
    let t = Instant::now();
    let mem = exec.analyze_memory();
    let mem_ms = ms_since(t);
    tracer.end(open);
    faults.extend(mem.violations.iter().map(|v| v.to_string()));

    let open = tracer.begin("simulate_traces", sweep);
    let t = Instant::now();
    let report = simulate_traces(&traces, &p.link);
    let simulate_ms = ms_since(t);
    tracer.end(open);
    tracer.end(whole);

    let (makespan_s, events, messages) = match report {
        Ok(r) => (r.makespan(), r.ops_executed, r.messages),
        Err(e) => {
            faults.push(e.to_string());
            (0.0, 0, 0)
        }
    };
    // The recorded schedule serializes compute and communication per
    // layer, so the closed form with overlap off is its analytic twin.
    let opts = CostOptions { overlap_halo: false, overlap_allreduce: false };
    let modeled_s = network_cost(&p.platform, spec, batch, &strategy, &opts).total();
    PipelineOut {
        compile_ms,
        record_ms,
        verify_ms,
        mem_ms,
        simulate_ms,
        static_peak_bytes: mem.max_peak(),
        makespan_s,
        events,
        messages,
        modeled_s,
        faults,
    }
}

struct Sweep {
    /// Wall of the six calls, calibration runs left out.
    wall_s: f64,
    /// The same with every call scaled by the calibration runs around it.
    compensated_s: f64,
    /// Mean calibration run of the sweep, ms.
    calib_ms: f64,
    searches: Vec<SearchOut>,
    pipelines: Vec<PipelineOut>,
}

/// One sweep: the three searches, then the three pipelines, with a
/// calibration run before, between and after the calls.
fn sweep(p: &Planner, calibrator: &mut Calibrator, tracer: &mut Tracer, index: usize) -> Sweep {
    let open = tracer.begin("sweep", index);
    let (mut wall_s, mut compensated_s) = (0.0, 0.0);
    let mut calib = vec![calibrator.run()];
    let mut timed = |call: &mut dyn FnMut()| {
        let t = Instant::now();
        call();
        let s = t.elapsed().as_secs_f64();
        let before = *calib.last().expect("starts with one run");
        calib.push(calibrator.run());
        wall_s += s;
        compensated_s += compensate(s, &[before, *calib.last().expect("just pushed")]);
    };
    let (mut searches, mut pipelines) = (Vec::new(), Vec::new());
    for i in 0..SEARCHES.len() {
        timed(&mut || searches.push(search(p, i, tracer, index)));
    }
    for i in 0..PIPELINES.len() {
        timed(&mut || pipelines.push(pipeline(p, i, tracer, index)));
    }
    let calib_ms = calib.iter().sum::<f64>() / calib.len() as f64;
    tracer.end(open);
    Sweep { wall_s, compensated_s, calib_ms, searches, pipelines }
}

/// Run the planner workload: one caller, one sweep after the other.
pub fn run(seconds: f64, traced: bool, epoch: Instant) -> (RunResult, Vec<Span>) {
    let mut result = RunResult::default();
    let mut tracer = Tracer::new(epoch, 0, traced);

    // Set-up: build the networks and the platform, and warm both
    // products up on their smallest configuration (mesh-2K). The
    // planner's inputs are pinned paper configurations, so the seed has
    // nothing to vary here.
    let passes = if traced { 1 } else { SETUP_PASSES };
    let (mut setup_s, mut setup_wall_s) = (Vec::new(), Vec::new());
    let t = Instant::now();
    let mut calibrator = Calibrator::new();
    let mut calib_before = calibrator.run();
    let first_calib_s = t.elapsed().as_secs_f64();
    let mut planner = None;
    for pass in 0..passes {
        // The first set-up counts from process start, less what the
        // calibration did before it.
        let t0 = if pass == 0 { epoch } else { Instant::now() };
        let skipped_s = if pass == 0 { first_calib_s } else { 0.0 };
        let p = Planner::new();
        let mut cold = Tracer::new(epoch, 0, false);
        search(&p, 2, &mut cold, 0);
        pipeline(&p, 1, &mut cold, 0);
        let wall_s = t0.elapsed().as_secs_f64() - skipped_s;
        let calib_after = calibrator.run();
        setup_wall_s.push(wall_s);
        setup_s.push(compensate(wall_s, &[calib_before, calib_after]));
        calib_before = calib_after;
        planner = Some(p);
    }
    let p = planner.expect("at least one set-up pass");

    let window = Instant::now();
    let mut sweeps: Vec<Sweep> = Vec::new();
    loop {
        let s = sweep(&p, &mut calibrator, &mut tracer, sweeps.len());
        let last = s.wall_s;
        sweeps.push(s);
        if sweeps.len() >= MIN_SWEEPS && window.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            break;
        }
    }
    let sweep_s: Vec<f64> = sweeps.iter().map(|s| s.wall_s).collect();
    let compensated_s: Vec<f64> = sweeps.iter().map(|s| s.compensated_s).collect();
    let load = median(&sweeps.iter().map(|s| s.calib_ms).collect::<Vec<_>>()) / REF_MS;
    result.set("steps_per_s", sweeps.len() as f64 / compensated_s.iter().sum::<f64>());
    result.set("step_ms_p50", median(&compensated_s) * 1e3);
    result.set("peak_rss_mb", peak_rss_mib());
    result.set("setup_s", median(&setup_s));
    eprintln!(
        "uncompensated: step_ms_p50 {:.3}, setup_s {:.3}; load factor {load:.3} (calibration run {:.3} ms)",
        median(&sweep_s) * 1e3,
        median(&setup_wall_s),
        load * REF_MS,
    );

    // Correctness. An operation is one search or one pipeline call; the
    // planner is deterministic, so every sweep must repeat the first.
    let first = &sweeps[0];
    for s in &sweeps {
        for (a, b) in s.searches.iter().zip(&first.searches) {
            result.attempted += 1;
            if !a.cost_s.is_finite() || a.cost_s.to_bits() != b.cost_s.to_bits() {
                result.failed += 1;
                eprintln!("search cost {} differs from the first sweep's {}", a.cost_s, b.cost_s);
            }
        }
        for (a, b) in s.pipelines.iter().zip(&first.pipelines) {
            result.attempted += 1;
            let repeats = a.makespan_s.to_bits() == b.makespan_s.to_bits()
                && (a.events, a.messages, a.static_peak_bytes)
                    == (b.events, b.messages, b.static_peak_bytes);
            if !a.faults.is_empty() || !repeats {
                result.failed += 1;
                eprintln!(
                    "pipeline call failed: {:?} (repeats the first sweep: {repeats})",
                    a.faults
                );
            }
        }
    }

    if traced {
        let col = |f: &dyn Fn(&Sweep) -> f64| median(&sweeps.iter().map(f).collect::<Vec<_>>());
        result.set("sweep_s_p50", median(&sweep_s));
        result.set("search_s_p50", col(&|s| s.searches.iter().map(|x| x.ms).sum::<f64>() / 1e3));
        result.set(
            "sim_events_per_s",
            col(&|s| {
                let events: u64 = s.pipelines.iter().map(|x| x.events).sum();
                events as f64 / (s.pipelines.iter().map(|x| x.simulate_ms).sum::<f64>() / 1e3)
            }),
        );
        result.set("virtual_makespan_s", first.pipelines.iter().map(|x| x.makespan_s).sum());
        for (i, cfg) in SEARCH_CFGS.iter().enumerate() {
            result.set(&format!("perf.optimize_ms.{cfg}"), col(&|s| s.searches[i].ms));
            result.set(&format!("perf.optimized_cost_s.{cfg}"), first.searches[i].cost_s);
        }
        for (i, cfg) in PIPELINE_CFGS.iter().enumerate() {
            let x = &first.pipelines[i];
            let sim_ms = col(&|s| s.pipelines[i].simulate_ms);
            result.set(&format!("core.plan_compile_ms.{cfg}"), col(&|s| s.pipelines[i].compile_ms));
            result.set(&format!("core.record_traces_ms.{cfg}"), col(&|s| s.pipelines[i].record_ms));
            result.set(&format!("core.verify_ms.{cfg}"), col(&|s| s.pipelines[i].verify_ms));
            result.set(&format!("core.mem_analyze_ms.{cfg}"), col(&|s| s.pipelines[i].mem_ms));
            result.set(&format!("core.mem_static_peak_bytes.{cfg}"), x.static_peak_bytes as f64);
            result.set(&format!("sim.simulate_ms.{cfg}"), sim_ms);
            result.set(&format!("sim.events_per_s.{cfg}"), x.events as f64 / (sim_ms / 1e3));
            result.set(&format!("sim.makespan_s.{cfg}"), x.makespan_s);
            result.set(&format!("sim.events.{cfg}"), x.events as f64);
            result.set(&format!("sim.messages.{cfg}"), x.messages as f64);
            result.set(&format!("perf.model_ratio.{cfg}"), x.makespan_s / x.modeled_s);
        }
        result.set("core.step_samples", sweeps.len() as f64);
        result.set("bench.load_factor", load);
    }
    (result, tracer.into_spans())
}
