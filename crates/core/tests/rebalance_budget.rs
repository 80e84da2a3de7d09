//! The rebalance rung under `FG_MEM_BUDGET`, in its own test binary so
//! the env var cannot leak into other tests' executor constructions.

use fg_comm::{run_ranks, FaultPlan};
use fg_core::{
    resilient_train, DistExecutor, ResilientConfig, SgdHyper, StragglerConfig, Strategy,
};
use fg_kernels::loss::Labels;
use fg_nn::{Network, NetworkSpec, Sgd};
use fg_tensor::{ProcGrid, Shape4, Tensor};

/// A budget of exactly the uniform layout's bound admits it but not the
/// weighted layout a slow rank 1 asks for: the fast rank's boxes grow.
/// The rung declines that layout and the world trains on, on the layout
/// it had, so the trajectory is the uniform one bit for bit.
#[test]
fn an_over_budget_weighted_layout_is_declined_and_training_carries_on() {
    let mut spec = NetworkSpec::new();
    let i = spec.input("x", 2, 8, 8);
    let c = spec.conv("c", i, 2, 3, 1, 1);
    spec.loss("l", c);
    let params = Network::init(spec.clone(), 7).params;
    let exec =
        DistExecutor::new(spec.clone(), Strategy::uniform(&spec, ProcGrid::spatial(1, 2)), 2)
            .expect("valid strategy");
    let x = Tensor::from_fn(Shape4::new(2, 2, 8, 8), |n, c, h, w| (n + c + h * w) as f32 * 0.01);
    let labels = Labels::per_pixel(2, 8, 8, (0..128).map(|i| i % 2).collect());
    let hyper = SgdHyper { lr: 0.05, momentum: 0.9, weight_decay: 1e-4 };
    let baseline = run_ranks(2, |comm| {
        let mut p = params.clone();
        let mut opt = Sgd::new(hyper.lr, hyper.momentum, hyper.weight_decay, &p);
        (0..5).map(|_| exec.train_step(comm, &mut p, &mut opt, &x, &labels)).collect::<Vec<_>>()
    });

    std::env::set_var("FG_MEM_BUDGET", exec.analyze_memory().max_peak().to_string());
    // P = 2 caps the median-relative ratio below 2, hence the low flag
    // threshold; five steps leave too few observations for a second flag.
    let straggler = StragglerConfig { threshold: 1.4, warmup: 1, ..StragglerConfig::default() };
    let cfg = ResilientConfig { ckpt_every: 4, straggler: Some(straggler), ..Default::default() };
    let plan = FaultPlan::new(21).slow_rank(1, 6.0);
    let report = resilient_train(&exec, &params, hyper, &x, &labels, 5, &cfg, plan);
    std::env::remove_var("FG_MEM_BUDGET");

    assert_eq!(report.failures.len(), 1, "one rebalance unwind: {:?}", report.failures);
    assert!(report.failures[0].to_string().contains("straggler-rebalance"));
    assert!(report.rebalances.is_empty(), "the over-budget layout must not be applied");
    assert_eq!((report.evictions, report.restarts, report.final_world), (0, 0, 2));
    let bits = |v: &[f64]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&report.losses), bits(&baseline[0]));
}
