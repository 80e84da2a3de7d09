//! Distributed network execution under a parallel execution strategy.
//!
//! [`DistExecutor`] runs an `fg-nn` network spec across the ranks of a
//! communicator, with each layer parallelized according to its
//! [`crate::Strategy`] grid. Construction compiles one
//! [`LayerPlan`] per layer per rank — §III-C shuffle geometry, halo
//! plans (forward and adjoint), §IV-A interior/boundary decompositions,
//! and sub-communicator layouts — and the training loop is a thin
//! scheduler over `Vec<Box<dyn DistLayer>>` executing those plans;
//! no communication geometry is rebuilt per step.
//!
//! The layer semantics (paper §III) live in [`crate::layers`]:
//!
//! * convolution / pooling layers run their halo-exchanging distributed
//!   forms ([`crate::DistConv2d`], [`crate::DistPool2d`]);
//! * when adjacent layers use different grids, activations (forward) and
//!   error signals (backward) are shuffled with the §III-C all-to-all
//!   redistribution;
//! * after global average pooling, data switches to a *per-sample
//!   replicated* representation (each sample group's ranks hold
//!   identical `(n_loc, C, 1, 1)` tensors), which FC layers and
//!   classification losses consume — the spatial ranks compute
//!   redundantly, and cross-section subgroups keep reductions from
//!   double-counting;
//! * weight gradients finish with the allreduces of §III-A, after which
//!   every rank applies the same optimizer step to its replicated
//!   parameters ("SGD can proceed independently on each processor").
//!
//! The end-to-end invariant, tested below: a distributed training run
//! produces the same losses and parameters as `fg_nn::Network` on a
//! single device (exactly, up to floating-point reduction order).

use fg_comm::{Communicator, WorldComm};
use fg_kernels::batchnorm::BnStats;
use fg_kernels::loss::Labels;
use fg_nn::{LayerKind, LayerParams, NetworkSpec, Sgd};
use fg_tensor::{DistTensor, Shape4, Tensor, TensorDist};

use crate::layers::schedule::{EdgeIn, StepSchedule};
use crate::layers::{build_layers, BwdCx, DistLayer, FwdCx, LayerPlan};
use crate::mem::{MemReport, Net};
use crate::strategy::{Strategy, StrategyError};

/// A distributed activation: either a shard of a global tensor, or a
/// per-sample-replicated tensor (identical across a sample group).
// Variant sizes differ, but activations are moved (never stored in
// bulk), so boxing the large variant would only add hot-path
// indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Act {
    /// Standard sharded representation.
    Shard(DistTensor),
    /// `(n_loc, C, 1, 1)`, replicated across the spatial/channel ranks
    /// of the sample group.
    PerSample(Tensor),
}

impl Act {
    /// The sharded representation, or a panic naming the consuming
    /// layer.
    pub fn shard_of(&self, layer: usize, kind: &LayerKind) -> &DistTensor {
        match self {
            Act::Shard(dt) => dt,
            Act::PerSample(_) => {
                panic!("layer {layer} ({kind:?}): expected a sharded activation, found per-sample")
            }
        }
    }

    /// The per-sample representation, or a panic naming the consuming
    /// layer.
    pub fn per_sample_of(&self, layer: usize, kind: &LayerKind) -> &Tensor {
        match self {
            Act::PerSample(t) => t,
            Act::Shard(_) => {
                panic!("layer {layer} ({kind:?}): expected a per-sample activation, found a shard")
            }
        }
    }

    /// Owning variant of [`Act::shard_of`].
    pub fn into_shard_of(self, layer: usize, kind: &LayerKind) -> DistTensor {
        match self {
            Act::Shard(dt) => dt,
            Act::PerSample(_) => {
                panic!("layer {layer} ({kind:?}): expected a sharded activation, found per-sample")
            }
        }
    }

    /// Owning variant of [`Act::per_sample_of`].
    pub fn into_per_sample_of(self, layer: usize, kind: &LayerKind) -> Tensor {
        match self {
            Act::PerSample(t) => t,
            Act::Shard(_) => {
                panic!("layer {layer} ({kind:?}): expected a per-sample activation, found a shard")
            }
        }
    }

    /// Placeholder left behind when the pass gives an activation up to
    /// its sole consumer.
    pub(crate) fn consumed() -> Act {
        Act::PerSample(Tensor::zeros(Shape4::new(0, 0, 0, 0)))
    }
}

/// Saved state of one distributed forward pass.
#[derive(Debug, Clone)]
pub struct DistPass {
    /// Output activation per layer.
    pub acts: Vec<Act>,
    /// Per layer, per parent edge: the redistributed input the layer
    /// consumed, kept only when backward reads it. `None` — or no row at
    /// all, for a layer none of whose edges is shuffled — means backward
    /// borrows the parent's activation from [`DistPass::acts`] directly.
    pub inputs: Vec<Vec<Option<Act>>>,
    /// Haloed input windows kept by conv/pool layers.
    pub windows: Vec<Option<DistTensor>>,
    /// Batch-norm statistics.
    pub bn_stats: Vec<Option<BnStats>>,
    /// Global mean loss (identical on all ranks), if computed.
    pub loss: Option<f64>,
    /// ∂loss/∂logits in the loss layer's representation.
    pub loss_grad: Option<Act>,
}

/// Distributed executor bound to a network, strategy, and batch size.
#[derive(Debug)]
pub struct DistExecutor {
    /// The network architecture.
    pub spec: NetworkSpec,
    /// The parallel execution strategy.
    pub strategy: Strategy,
    /// Global mini-batch size.
    pub batch: usize,
    pub(crate) layers: Vec<Box<dyn DistLayer>>,
    /// Precompiled plans, indexed `[layer][rank]`.
    pub(crate) plans: Vec<Vec<LayerPlan>>,
    /// The step schedule every walker of a step reads.
    pub(crate) schedule: StepSchedule,
}

/// The largest world [`DistExecutor::new`] verifies. Tracing costs O(P²)
/// in links, and a live world runs one thread per rank, so no world
/// above the cap ever steps: larger ones are only planned and simulated.
const VERIFY_MAX_RANKS: usize = 64;

impl DistExecutor {
    /// Validate the strategy, build the layer objects, compile every
    /// rank's per-layer plan (the plan-once phase; the training loop
    /// performs zero plan construction), and, at worlds of up to 64
    /// ranks, statically verify the compiled schedule
    /// ([`DistExecutor::verify`]): a violation is
    /// [`StrategyError::ScheduleUnsound`], so no unsound schedule ever
    /// runs. It reads no environment: the result depends on the
    /// arguments alone. Whether the strategy fits in memory is decided
    /// where it is chosen (`StrategyOptimizer::with_memory_limit`).
    pub fn new(spec: NetworkSpec, strategy: Strategy, batch: usize) -> Result<Self, StrategyError> {
        strategy.validate(&spec, batch)?;
        let layers = build_layers(&spec, &strategy, batch);
        let schedule = StepSchedule::compile(&layers);

        let world = strategy.world_size();
        let plans: Vec<Vec<LayerPlan>> =
            layers.iter().map(|l| (0..world).map(|r| l.compile_plan(r)).collect()).collect();
        let exec = DistExecutor { spec, strategy, batch, layers, plans, schedule };

        if world <= VERIFY_MAX_RANKS {
            if let Some(v) = exec.verify().violations.first() {
                return Err(StrategyError::ScheduleUnsound {
                    layer: v.layer,
                    detail: v.to_string(),
                });
            }
        }
        Ok(exec)
    }

    /// Statically analyze this executor's memory schedule: record every
    /// rank's tensor-liveness intervals, compute exact per-rank peak
    /// bounds, and run the soundness check (staging understatement).
    /// Pure plan geometry — no tensors, no threads. Every rank is also
    /// charged the integrity replay window when `FG_COMM_INTEGRITY` is on,
    /// since the world this executor runs then holds it.
    pub fn analyze_memory(&self) -> MemReport {
        self.analyze_memory_with(|_, _| {})
    }

    /// [`DistExecutor::analyze_memory`] with a corruption hook for
    /// mutation tests: `mutate_intervals` edits a rank's recorded
    /// intervals before they are checked (understated staging sizes).
    /// Production callers use [`DistExecutor::analyze_memory`].
    pub fn analyze_memory_with(
        &self,
        mutate_intervals: impl Fn(usize, &mut Vec<fg_tensor::LiveInterval>),
    ) -> MemReport {
        let world = self.strategy.world_size();
        let rows = (0..world).map(|rank| (rank, self.plans.iter().map(|per| &per[rank]).collect()));
        let (layers, schedule) = (&self.layers[..], &self.schedule);
        let replay_bytes = crate::mem::replay_budget_bytes();
        let net = Net { spec: &self.spec, layers, schedule, batch: self.batch, replay_bytes };
        crate::mem::analyze_ranks(net, rows, &mutate_intervals)
    }

    /// Statically verify this executor's compiled communication
    /// schedule: symbolically execute every rank's plans and check p2p
    /// matching, collective consistency, halo symmetry, shuffle
    /// conservation, and tag discipline. Pure analysis — no threads, no
    /// communication, no tensor math.
    pub fn verify(&self) -> crate::verify::VerifyReport {
        crate::verify::verify_plans(self, &self.plans, |_| {})
    }

    /// [`DistExecutor::verify`] with corruption hooks for mutation
    /// tests: `mutate_plans` edits a clone of the compiled plans before
    /// the symbolic walk (geometry corruptions — shrunken halos, skewed
    /// shuffle destinations), `mutate_traces` edits the recorded traces
    /// before checking (wire-level corruptions — flipped tags, dropped
    /// collectives). Production callers use [`DistExecutor::verify`].
    pub fn verify_with(
        &self,
        mutate_plans: impl FnOnce(&mut Vec<Vec<LayerPlan>>),
        mutate_traces: impl FnOnce(&mut Vec<fg_comm::RankTrace>),
    ) -> crate::verify::VerifyReport {
        let mut plans = self.plans.clone();
        mutate_plans(&mut plans);
        crate::verify::verify_plans(self, &plans, mutate_traces)
    }

    /// Record every rank's symbolic communication trace for this
    /// executor's compiled schedule — the input of the discrete-event
    /// engine (`fg_comm::simulate_traces`). With a
    /// [`crate::verify::ComputeOracle`], each layer's modeled kernel
    /// time is embedded as `Advance` ops, so the simulated run carries
    /// compute as well as communication; with `None` the traces are
    /// communication-only (what [`DistExecutor::verify`] checks).
    pub fn record_traces(
        &self,
        oracle: Option<&dyn crate::verify::ComputeOracle>,
    ) -> Vec<fg_comm::RankTrace> {
        crate::verify::record_traces(self, &self.plans, oracle)
    }

    /// The input layer's distribution.
    fn input_dist(&self) -> TensorDist {
        self.layers[0].base().out_dist.clone().expect("layer 0 is the sharded input layer")
    }

    /// A pre-sharded input must be this rank's block of the input layer's
    /// distribution.
    fn check_input_shard(&self, x_shard: &DistTensor, rank: usize) {
        assert_eq!(
            *x_shard.dist(),
            self.input_dist(),
            "shard does not match the input distribution"
        );
        assert_eq!(x_shard.rank(), rank, "shard belongs to a different rank");
    }

    /// Forward pass. `x` is the full global input replicated on every
    /// rank; for large samples prefer
    /// [`DistExecutor::loss_and_grads_sharded`], which never materializes
    /// the global tensor.
    pub fn forward(
        &self,
        comm: &WorldComm,
        params: &[LayerParams],
        x: &Tensor,
        labels: Option<&Labels>,
    ) -> DistPass {
        let dist = self.input_dist();
        assert_eq!(x.shape(), dist.shape, "input does not match network/batch");
        let shard = DistTensor::from_global(dist, comm.rank(), x, [0; 4], [0; 4]);
        self.run_forward(comm, params, Act::Shard(shard), labels, None)
    }

    /// Sharded-input counterpart of [`DistExecutor::loss_and_grads`]
    /// (distributed data loading): each rank supplies only its owned
    /// block of the input, in the input layer's distribution. This is how
    /// samples that exceed one device's memory actually enter the
    /// pipeline.
    pub fn loss_and_grads_sharded(
        &self,
        comm: &WorldComm,
        params: &[LayerParams],
        x_shard: DistTensor,
        labels: &Labels,
    ) -> (f64, Vec<LayerParams>) {
        self.check_input_shard(&x_shard, comm.rank());
        self.fused_step(comm, params, x_shard, labels)
    }

    /// Distributed inference: batch-norm layers normalize with the
    /// provided running statistics (indexed like the network's layers)
    /// instead of batch statistics — no BN communication at all, and
    /// outputs are independent of batch composition. Matches
    /// [`fg_nn::Network::forward_inference`] bitwise.
    pub fn forward_inference(
        &self,
        comm: &WorldComm,
        params: &[LayerParams],
        x: &Tensor,
        bn_stats: &[Option<BnStats>],
    ) -> DistPass {
        assert_eq!(bn_stats.len(), self.spec.len(), "stats must align with layers");
        let dist = self.input_dist();
        assert_eq!(x.shape(), dist.shape, "input does not match network/batch");
        let shard = DistTensor::from_global(dist, comm.rank(), x, [0; 4], [0; 4]);
        self.run_forward(comm, params, Act::Shard(shard), None, Some(bn_stats))
    }

    /// Batched inference entry for serving: run
    /// [`DistExecutor::forward_inference`] and assemble the final
    /// layer's activation into one global tensor on `root` (`None`
    /// elsewhere). Sharded outputs (segmentation heads) gather block by
    /// block; per-sample outputs (classification logits after global
    /// average pooling) gather each rank's replicated rows and file them
    /// by the sample groups' block ranges — replicas within a group
    /// hold identical data, so overlapping writes agree bitwise.
    pub fn infer_logits(
        &self,
        comm: &WorldComm,
        params: &[LayerParams],
        x: &Tensor,
        bn_stats: &[Option<BnStats>],
        root: usize,
    ) -> Option<Tensor> {
        use fg_comm::collectives::block_range;
        use fg_comm::Collectives;

        let pass = self.forward_inference(comm, params, x, bn_stats);
        let last = self.spec.len() - 1;
        match pass.acts.last().expect("network has layers") {
            Act::Shard(dt) => fg_tensor::gather::gather_to_root(comm, dt, root),
            Act::PerSample(t) => {
                let grid = self.strategy.grids[last];
                let c = t.shape().c;
                let parts = comm.gatherv(root, t.as_slice().to_vec());
                parts.map(|parts| {
                    let mut out = Tensor::zeros(Shape4::new(self.batch, c, 1, 1));
                    for (r, part) in parts.iter().enumerate() {
                        let range = block_range(self.batch, grid.n, grid.coords(r)[0]);
                        assert_eq!(part.len(), range.len() * c, "per-sample rows match the range");
                        out.as_mut_slice()[range.start * c..range.end * c].copy_from_slice(part);
                    }
                    out
                })
            }
        }
    }

    /// The forward walk of the step schedule: per layer, execute the
    /// precompiled input shuffles, hand the layer its view of the pass,
    /// and release what the schedule says nobody reads again.
    fn run_forward(
        &self,
        comm: &WorldComm,
        params: &[LayerParams],
        input: Act,
        labels: Option<&Labels>,
        bn_override: Option<&[Option<BnStats>]>,
    ) -> DistPass {
        assert_eq!(comm.size(), self.strategy.world_size(), "communicator does not match strategy");
        let n_layers = self.layers.len();
        let rank = comm.rank();
        let mut pass = DistPass {
            acts: Vec::with_capacity(n_layers),
            inputs: vec![Vec::new(); n_layers],
            windows: vec![None; n_layers],
            bn_stats: vec![None; n_layers],
            loss: None,
            loss_grad: None,
        };
        let mut external = Some(input);

        for id in 0..n_layers {
            let layer = &self.layers[id];
            let base = layer.base();
            let plan = &self.plans[id][rank];
            let edges = &self.schedule.edges[id];

            // Shuffled edges: redistribute (§III-C) into this layer's
            // row of the pass. Everything else is read in place.
            if edges.iter().any(|e| matches!(e, EdgeIn::Shuffled { .. })) {
                let shuffled = plan.in_shuffles.iter().zip(&base.parents).map(|(shuffle, &p)| {
                    let src = || pass.acts[p].shard_of(id, &base.kind);
                    shuffle.as_ref().map(|s| Act::Shard(s.execute(comm, src(), [0; 4], [0; 4])))
                });
                pass.inputs[id] = shuffled.collect();
            }

            let mut cx = FwdCx {
                plan,
                params: &params[id],
                labels,
                bn_override: bn_override.and_then(|o| o[id].as_ref()),
                edges,
                parents: &base.parents,
                acts: &mut pass.acts,
                shuffled: &mut pass.inputs[id],
                external: if base.parents.is_empty() { external.take() } else { None },
                window: &mut pass.windows[id],
                bn_stats: &mut pass.bn_stats[id],
                loss: &mut pass.loss,
                loss_grad: &mut pass.loss_grad,
            };
            let act = layer.forward(comm, &mut cx);

            // Give up what backward will not read: a redistributed copy
            // nobody saved, a parent activation spent on this layer.
            for (i, edge) in edges.iter().enumerate() {
                match edge {
                    EdgeIn::Shuffled { saved: false } => pass.inputs[id][i] = None,
                    EdgeIn::Moved => pass.acts[base.parents[i]] = Act::consumed(),
                    EdgeIn::Shuffled { saved: true } | EdgeIn::Borrowed => {}
                }
            }
            pass.acts.push(act);
        }
        pass
    }

    /// Backward pass; returns per-layer parameter gradients, identical
    /// on every rank (ready for the replicated optimizer step).
    pub fn backward(
        &self,
        comm: &WorldComm,
        params: &[LayerParams],
        pass: &DistPass,
    ) -> Vec<LayerParams> {
        self.run_backward(comm, params, pass)
    }

    /// The backward walk of the step schedule: a loss layer sends the
    /// saved gradient up its edge, every other scheduled layer consumes
    /// its error signal, and what a step sends up an edge somebody reads
    /// is routed through the precompiled adjoint shuffle and accumulated
    /// into the parent.
    fn run_backward(
        &self,
        comm: &WorldComm,
        params: &[LayerParams],
        pass: &DistPass,
    ) -> Vec<LayerParams> {
        let n_layers = self.layers.len();
        let rank = comm.rank();
        let mut grads: Vec<Option<LayerParams>> = vec![None; n_layers];
        let mut dout: Vec<Option<Act>> = vec![None; n_layers];

        for step in &self.schedule.backward {
            let id = step.layer;
            let layer = &self.layers[id];
            let plan = &self.plans[id][rank];
            let dparents = if step.seeds {
                vec![(0, pass.loss_grad.clone().expect("backward requires labels in forward"))]
            } else {
                let dy = dout[id].take().expect("a scheduled layer's error slot is filled");
                let cx = BwdCx { plan, params: &params[id], pass, wants_dx: step.wants_dx() };
                let out = layer.backward(comm, &cx, dy);
                grads[id] = out.grads;
                out.dparents
            };
            for (i, dact) in dparents {
                if !step.feeds[i] {
                    continue;
                }
                let routed = match (plan.back_shuffle(i), dact) {
                    (Some(shuffle), Act::Shard(dt)) => {
                        Act::Shard(shuffle.execute(comm, &dt, [0; 4], [0; 4]))
                    }
                    (_, a) => a,
                };
                accumulate(&mut dout[layer.base().parents[i]], routed);
            }
        }
        // A layer backward never ran (no error signal reaches it) still
        // owes the optimizer a gradient of its parameters' structure.
        grads.into_iter().zip(params).map(|(g, p)| g.unwrap_or_else(|| p.zeros_like())).collect()
    }

    /// Forward + backward fused into one step; returns `(loss, grads)`,
    /// bitwise identical to [`DistExecutor::forward`] +
    /// [`DistExecutor::backward`], whose drivers it runs.
    pub fn loss_and_grads(
        &self,
        comm: &WorldComm,
        params: &[LayerParams],
        x: &Tensor,
        labels: &Labels,
    ) -> (f64, Vec<LayerParams>) {
        let dist = self.input_dist();
        assert_eq!(x.shape(), dist.shape, "input does not match network/batch");
        let shard = DistTensor::from_global(dist, comm.rank(), x, [0; 4], [0; 4]);
        self.fused_step(comm, params, shard, labels)
    }

    /// The fused step behind [`DistExecutor::loss_and_grads`] and its
    /// sharded-input counterpart.
    fn fused_step(
        &self,
        comm: &WorldComm,
        params: &[LayerParams],
        shard: DistTensor,
        labels: &Labels,
    ) -> (f64, Vec<LayerParams>) {
        let pass = self.run_forward(comm, params, Act::Shard(shard), Some(labels), None);
        let loss = pass.loss.expect("network must end in a loss layer");
        (loss, self.run_backward(comm, params, &pass))
    }

    /// One training step: forward, backward, replicated SGD update.
    pub fn train_step(
        &self,
        comm: &WorldComm,
        params: &mut [LayerParams],
        opt: &mut Sgd,
        x: &Tensor,
        labels: &Labels,
    ) -> f64 {
        let (loss, _) = self.screened_train_step(comm, params, opt, x, labels, |_, _| true);
        loss
    }

    /// A training step with a commit gate: `screen` inspects the loss
    /// and gradients *before* the optimizer runs and decides whether to
    /// commit the update. On rejection, parameters and optimizer state
    /// are untouched — the caller can roll back and replay without the
    /// poisoned step ever entering the replicated state. Returns the
    /// loss and whether the step was committed.
    ///
    /// The screen must reach the same verdict on every rank (see
    /// [`crate::guard::StepGuard::agree_any`]); a split verdict would
    /// desynchronize the replicated optimizer.
    pub fn screened_train_step(
        &self,
        comm: &WorldComm,
        params: &mut [LayerParams],
        opt: &mut Sgd,
        x: &Tensor,
        labels: &Labels,
        screen: impl FnOnce(f64, &[LayerParams]) -> bool,
    ) -> (f64, bool) {
        let (loss, grads) = self.loss_and_grads(comm, params, x, labels);
        let commit = screen(loss, &grads);
        if commit {
            opt.step(params, &grads);
        }
        (loss, commit)
    }
}

fn accumulate(slot: &mut Option<Act>, g: Act) {
    match (slot.as_mut(), g) {
        (None, g) => *slot = Some(g),
        (Some(Act::Shard(acc)), Act::Shard(g)) => {
            assert_eq!(acc.dist(), g.dist(), "accumulating mismatched shards");
            let mut sum = acc.owned_tensor();
            sum.add_assign(&g.owned_tensor());
            acc.set_owned(&sum);
        }
        (Some(Act::PerSample(acc)), Act::PerSample(g)) => acc.add_assign(&g),
        _ => panic!("accumulating mismatched activation representations"),
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use fg_comm::run_ranks;
    use fg_nn::Network;
    use fg_tensor::{BufClass, ProcGrid};

    /// A miniature mesh-tangling style segmentation model: conv-bn-relu
    /// blocks with a final prediction conv and per-pixel loss (§VI).
    fn mini_mesh_net() -> NetworkSpec {
        let mut net = NetworkSpec::new();
        let i = net.input("data", 3, 16, 16);
        let c1 = net.conv("conv1_1", i, 4, 3, 1, 1);
        let b1 = net.batchnorm("bn1_1", c1);
        let r1 = net.relu("relu1_1", b1);
        let c2 = net.conv("conv1_2", r1, 4, 3, 2, 1); // downsample
        let b2 = net.batchnorm("bn1_2", c2);
        let r2 = net.relu("relu1_2", b2);
        let c3 = net.conv("conv2_1", r2, 4, 3, 1, 1);
        let r3 = net.relu("relu2_1", c3);
        let pred = net.conv("pred", r3, 2, 1, 1, 0);
        net.loss("loss", pred);
        net
    }

    /// A miniature ResNet-style classification model with a residual
    /// join, max pool, GAP and FC.
    fn mini_resnet() -> NetworkSpec {
        let mut net = NetworkSpec::new();
        let i = net.input("data", 3, 16, 16);
        let c1 = net.conv("conv1", i, 4, 3, 1, 1);
        let b1 = net.batchnorm("bn1", c1);
        let r1 = net.relu("relu1", b1);
        let p1 = net.maxpool("pool1", r1, 3, 2, 1);
        let c2a = net.conv("res_branch2a", p1, 4, 3, 1, 1);
        let r2a = net.relu("res_relu", c2a);
        let c2b = net.conv("res_branch2b", r2a, 4, 3, 1, 1);
        let j = net.add_join("res_add", &[c2b, p1]);
        let r2 = net.relu("relu2", j);
        let g = net.global_avg_pool("gap", r2);
        let f = net.fc("fc", g, 5);
        net.loss("loss", f);
        net
    }

    fn seg_batch(n: usize, h: usize, w: usize) -> (Tensor, Labels) {
        let x = Tensor::from_fn(Shape4::new(n, 3, h, w), |k, c, i, j| {
            (((k * 13 + c * 7 + i * 3 + j) % 11) as f32) * 0.3 - 1.5
        });
        let labels = Labels::per_pixel(
            n,
            h / 2,
            w / 2,
            (0..n * (h / 2) * (w / 2)).map(|i| (i % 2) as u32).collect(),
        );
        (x, labels)
    }

    fn cls_batch(n: usize) -> (Tensor, Labels) {
        let x = Tensor::from_fn(Shape4::new(n, 3, 16, 16), |k, c, i, j| {
            (((k * 17 + c * 5 + i * 3 + j) % 9) as f32) * 0.25 - 1.0
        });
        let labels = Labels::per_sample((0..n as u32).map(|k| k % 5).collect());
        (x, labels)
    }

    /// Distributed training (several steps) must track serial training.
    fn check_training_equivalence(
        spec: NetworkSpec,
        grid: ProcGrid,
        x: Tensor,
        labels: Labels,
        steps: usize,
        tol: f64,
    ) {
        let batch = x.shape().n;
        let serial = Network::init(spec.clone(), 99);
        let mut serial_net = serial.clone();
        let mut serial_losses = Vec::new();
        let mut opt = Sgd::new(0.02, 0.9, 1e-4, &serial_net.params);
        for _ in 0..steps {
            let (loss, grads) = serial_net.loss_and_grads(&x, &labels);
            opt.step(&mut serial_net.params, &grads);
            serial_losses.push(loss);
        }

        let strategy = Strategy::uniform(&spec, grid);
        let exec = DistExecutor::new(spec, strategy, batch).expect("strategy valid");
        let dist_losses = run_ranks(grid.size(), |comm| {
            let mut params = serial.params.clone();
            let mut opt = Sgd::new(0.02, 0.9, 1e-4, &params);
            let mut losses = Vec::new();
            for _ in 0..steps {
                losses.push(exec.train_step(comm, &mut params, &mut opt, &x, &labels));
            }
            losses
        });
        // All ranks agree exactly.
        for l in &dist_losses {
            assert_eq!(l, &dist_losses[0], "ranks disagree on losses");
        }
        for (s, d) in serial_losses.iter().zip(&dist_losses[0]) {
            assert!(
                (s - d).abs() <= tol * s.abs().max(1.0),
                "losses diverged: serial {serial_losses:?} vs dist {:?}",
                dist_losses[0]
            );
        }
    }

    #[test]
    fn mesh_net_spatial_matches_serial() {
        let (x, labels) = seg_batch(2, 16, 16);
        check_training_equivalence(mini_mesh_net(), ProcGrid::spatial(2, 2), x, labels, 3, 1e-3);
    }

    #[test]
    fn mesh_net_hybrid_matches_serial() {
        let (x, labels) = seg_batch(4, 16, 16);
        check_training_equivalence(mini_mesh_net(), ProcGrid::hybrid(2, 2, 1), x, labels, 3, 1e-3);
    }

    #[test]
    fn mesh_net_sample_matches_serial() {
        let (x, labels) = seg_batch(4, 16, 16);
        check_training_equivalence(mini_mesh_net(), ProcGrid::sample(4), x, labels, 3, 1e-3);
    }

    #[test]
    fn resnet_hybrid_matches_serial() {
        let (x, labels) = cls_batch(4);
        check_training_equivalence(mini_resnet(), ProcGrid::hybrid(2, 1, 2), x, labels, 3, 2e-3);
    }

    #[test]
    fn resnet_spatial_matches_serial() {
        let (x, labels) = cls_batch(2);
        check_training_equivalence(mini_resnet(), ProcGrid::spatial(2, 2), x, labels, 2, 2e-3);
    }

    #[test]
    fn mixed_strategy_with_redistribution_matches_serial() {
        // First conv spatial (2x2), rest sample-parallel: exercises the
        // §III-C shuffles in both directions.
        let spec = mini_mesh_net();
        let (x, labels) = seg_batch(4, 16, 16);
        let serial = Network::init(spec.clone(), 7);
        let (serial_loss, serial_grads) = serial.loss_and_grads(&x, &labels);

        let mut strategy = Strategy::uniform(&spec, ProcGrid::sample(4));
        for name in ["data", "conv1_1", "bn1_1", "relu1_1"] {
            strategy.grids[spec.find(name).unwrap()] = ProcGrid::spatial(2, 2);
        }
        let exec = DistExecutor::new(spec, strategy, 4).expect("strategy valid");
        let outs = run_ranks(4, |comm| exec.loss_and_grads(comm, &serial.params, &x, &labels));
        for (loss, grads) in &outs {
            assert!((loss - serial_loss).abs() < 1e-6, "{loss} vs {serial_loss}");
            for (g_d, g_s) in grads.iter().zip(&serial_grads) {
                let fd = g_d.to_flat();
                let fs = g_s.to_flat();
                for (a, b) in fd.iter().zip(&fs) {
                    assert!(
                        (a - b).abs() <= 1e-3 * a.abs().max(1.0),
                        "gradient mismatch {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn gradients_identical_across_ranks() {
        let spec = mini_resnet();
        let (x, labels) = cls_batch(4);
        let net = Network::init(spec.clone(), 3);
        let strategy = Strategy::uniform(&spec, ProcGrid::hybrid(2, 2, 1));
        let exec = DistExecutor::new(spec, strategy, 4).unwrap();
        let outs = run_ranks(4, |comm| exec.loss_and_grads(comm, &net.params, &x, &labels));
        for (_, grads) in &outs {
            for (a, b) in grads.iter().zip(&outs[0].1) {
                assert_eq!(a.to_flat(), b.to_flat(), "ranks must hold identical gradients");
            }
        }
    }

    fn grad_bits(grads: &[LayerParams]) -> Vec<Vec<u32>> {
        grads.iter().map(|g| g.to_flat().iter().map(|v| v.to_bits()).collect()).collect()
    }

    /// The two step paths pinned against each other: the fused
    /// `loss_and_grads` equals the split `forward` + `backward` bit for
    /// bit, step after step, on plans `analyze_memory` reports clean.
    /// Every window either path builds is asserted against its layer's
    /// `window_elems`, the size the analyzer books.
    #[test]
    fn fused_step_matches_split_passes_bitwise() {
        for (spec, grid, batch) in [
            (mini_mesh_net(), ProcGrid::spatial(2, 2), 2),
            (mini_mesh_net(), ProcGrid::hybrid(2, 2, 1), 4),
            (mini_resnet(), ProcGrid::hybrid(2, 1, 2), 4),
        ] {
            let (x, labels) =
                if spec.find("fc").is_some() { cls_batch(batch) } else { seg_batch(batch, 16, 16) };
            let net = Network::init(spec.clone(), 21);
            let exec =
                DistExecutor::new(spec.clone(), Strategy::uniform(&spec, grid), batch).unwrap();
            let report = exec.analyze_memory();
            assert!(report.is_clean(), "memory plan must verify clean: {report}");

            let split = run_ranks(4, |comm| {
                let pass = exec.forward(comm, &net.params, &x, Some(&labels));
                let grads = exec.backward(comm, &net.params, &pass);
                (pass.loss.expect("loss layer"), grads)
            });
            let fused = run_ranks(4, |comm| {
                (0..2)
                    .map(|_| exec.loss_and_grads(comm, &net.params, &x, &labels))
                    .collect::<Vec<_>>()
            });
            for ((ls, gs), steps) in split.iter().zip(&fused) {
                for (lf, gf) in steps {
                    assert_eq!(ls.to_bits(), lf.to_bits(), "fused step changed the loss");
                    assert_eq!(grad_bits(gs), grad_bits(gf), "fused step changed gradients");
                }
            }
        }
    }

    /// A convolution hands back an input gradient exactly when someone
    /// reads it: not when it is fed by `data` alone (directly, or as one
    /// of two stems joined later), always otherwise.
    #[test]
    fn input_gradient_is_computed_only_where_it_is_read() {
        let mut stems = NetworkSpec::new();
        let i = stems.input("data", 3, 16, 16);
        let a = stems.conv("stem_a", i, 4, 3, 2, 1);
        let b = stems.conv("stem_b", i, 4, 5, 2, 2);
        let j = stems.add_join("join", &[a, b]);
        let pred = stems.conv("pred", j, 2, 1, 1, 0);
        stems.loss("loss", pred);

        for (spec, unread) in
            [(mini_mesh_net(), vec!["conv1_1"]), (stems, vec!["stem_a", "stem_b"])]
        {
            let (x, labels) = seg_batch(2, 16, 16);
            let net = Network::init(spec.clone(), 5);
            let strategy = Strategy::uniform(&spec, ProcGrid::spatial(2, 2));
            let exec = DistExecutor::new(spec, strategy, 2).unwrap();
            run_ranks(4, |comm| {
                let rank = comm.rank();
                let pass = exec.forward(comm, &net.params, &x, Some(&labels));
                for (id, layer) in exec.layers.iter().enumerate() {
                    let base = layer.base();
                    if !matches!(base.kind, LayerKind::Conv { .. }) {
                        continue;
                    }
                    let dist = base.out_dist.clone().expect("conv output is sharded");
                    let cx = BwdCx {
                        plan: &exec.plans[id][rank],
                        params: &net.params[id],
                        pass: &pass,
                        wants_dx: exec
                            .schedule
                            .backward
                            .iter()
                            .any(|s| s.layer == id && s.wants_dx()),
                    };
                    let dy = Act::Shard(DistTensor::new_unpadded(dist, rank));
                    let out = layer.backward(comm, &cx, dy);
                    assert_eq!(
                        out.dparents.is_empty(),
                        unread.contains(&base.name.as_str()),
                        "layer {}",
                        base.name
                    );
                    assert!(out.grads.is_some(), "the filter gradient is always computed");
                }
            });
        }
    }

    /// A layer whose `backward` calls are counted, by layer id. Wrapped
    /// around a compiled executor's layers: a step calls nothing else.
    #[derive(Debug)]
    struct Counted(Box<dyn DistLayer>, Arc<Vec<AtomicUsize>>);

    impl DistLayer for Counted {
        fn base(&self) -> &crate::layers::LayerBase {
            self.0.base()
        }
        fn forward(&self, comm: &WorldComm, cx: &mut FwdCx<'_>) -> Act {
            self.0.forward(comm, cx)
        }
        fn backward(&self, comm: &WorldComm, cx: &BwdCx<'_>, dy: Act) -> crate::layers::BwdOut {
            self.1[self.base().id].fetch_add(1, Ordering::Relaxed);
            self.0.backward(comm, cx, dy)
        }
    }

    /// The analyzer books an error accumulator for exactly the layers
    /// the backward walk runs — never for `data`, whose slot nothing
    /// fills — on every net × strategy of `tests/schedule_golden.rs`;
    /// and the walk runs exactly those layers, counted on a live world.
    #[test]
    fn err_intervals_are_exactly_the_layers_backward_runs() {
        let mut stems = NetworkSpec::new();
        let i = stems.input("data", 3, 16, 16);
        let a = stems.conv("stem_a", i, 4, 3, 2, 1);
        let b = stems.conv("stem_b", i, 4, 5, 2, 2);
        let j = stems.add_join("join", &[a, b]);
        let pred = stems.conv("pred", j, 2, 1, 1, 0);
        stems.loss("loss", pred);

        for (spec, hybrid, head) in [
            (mini_mesh_net(), ProcGrid::hybrid(2, 2, 2), 4),
            (mini_resnet(), ProcGrid::hybrid(2, 1, 2), 5),
            (stems, ProcGrid::hybrid(2, 2, 1), 3),
        ] {
            // Layers [0, head) spatial, the rest sample-parallel: a
            // shuffle on every edge across the boundary.
            let mut mixed = Strategy::uniform(&spec, ProcGrid::sample(4));
            mixed.grids[..head].fill(ProcGrid::spatial(2, 2));
            for (strategy, batch) in [
                (Strategy::uniform(&spec, ProcGrid::sample(4)), 4),
                (Strategy::uniform(&spec, ProcGrid::spatial(2, 2)), 2),
                (Strategy::uniform(&spec, hybrid), 4),
                (mixed, 4),
            ] {
                let mut exec = DistExecutor::new(spec.clone(), strategy, batch).unwrap();
                let mut runs = vec![false; spec.len()];
                for step in exec.schedule.backward.iter().filter(|s| !s.seeds) {
                    runs[step.layer] = true;
                }
                assert!(!runs[0], "nothing reads the gradient of `data`");
                let report = exec.analyze_memory_with(|rank, ivs| {
                    let mut booked = vec![false; spec.len()];
                    for iv in ivs.iter().filter(|iv| iv.class == BufClass::Err) {
                        booked[iv.layer] = !exec.layers[iv.layer].seeds_backward();
                    }
                    assert_eq!(booked, runs, "rank {rank}");
                });
                assert!(report.is_clean(), "{report}");
                if exec.strategy.world_size() != 4 {
                    continue;
                }

                let calls = Arc::new(runs.iter().map(|_| AtomicUsize::new(0)).collect::<Vec<_>>());
                let layers = std::mem::take(&mut exec.layers);
                exec.layers =
                    layers.into_iter().map(|l| Box::new(Counted(l, calls.clone())) as _).collect();
                let (x, labels) = if spec.find("fc").is_some() {
                    cls_batch(batch)
                } else {
                    seg_batch(batch, 16, 16)
                };
                let net = Network::init(spec.clone(), 11);
                run_ranks(4, |comm| exec.loss_and_grads(comm, &net.params, &x, &labels));
                let called: Vec<usize> = calls.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                let want: Vec<usize> = runs.iter().map(|&r| if r { 4 } else { 0 }).collect();
                assert_eq!(called, want, "one `backward` per rank on exactly the scheduled layers");
            }
        }
    }

    #[test]
    fn static_bounds_cover_all_ranks_and_strategies() {
        // Bounds are positive wherever a rank holds data (that they are
        // the bounds the fused step is held to is pinned above).
        let spec = mini_mesh_net();
        let exec =
            DistExecutor::new(spec.clone(), Strategy::uniform(&spec, ProcGrid::spatial(2, 2)), 2)
                .unwrap();
        let report = exec.analyze_memory();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.bounds.len(), 4);
        for b in &report.bounds {
            assert!(b.peak_bytes > 0);
            assert!(b.peak_bytes >= b.persistent_bytes, "peak covers the whole-step term");
        }
    }

    /// `resilient_train` reuses one executor across attempts: a step
    /// abandoned by an unwinding rank must leave nothing behind that the
    /// next world on the same executor can trip over.
    #[test]
    fn executor_is_reusable_after_an_abandoned_step() {
        use fg_comm::{run_ranks_opts, FaultPlan, RunOptions};

        let spec = mini_mesh_net();
        let (x, labels) = seg_batch(2, 16, 16);
        let net = Network::init(spec.clone(), 17);
        let strategy = Strategy::uniform(&spec, ProcGrid::spatial(2, 2));
        let train = |step: &dyn Fn(&mut [LayerParams], &mut Sgd) -> f64| {
            let mut params = net.params.clone();
            let mut opt = Sgd::new(0.02, 0.9, 1e-4, &params);
            (0..3).map(|_| step(&mut params, &mut opt).to_bits()).collect::<Vec<u64>>()
        };
        let fresh = DistExecutor::new(spec.clone(), strategy.clone(), 2).unwrap();
        let want = run_ranks(4, |comm| train(&|p, o| fresh.train_step(comm, p, o, &x, &labels)));

        let exec = DistExecutor::new(spec.clone(), strategy, 2).unwrap();
        // Probe one clean step's op count, then kill rank 2 halfway
        // through the next world's second step — windows built, peers
        // blocked on its halos.
        let probe = run_ranks_opts(4, RunOptions::with_faults(FaultPlan::default()), |comm| {
            let mut params = net.params.clone();
            let mut opt = Sgd::new(0.02, 0.9, 1e-4, &params);
            exec.train_step(comm, &mut params, &mut opt, &x, &labels);
            comm.ops()
        });
        let step_ops = *probe[2].as_ref().expect("probe is fault-free");
        let plan = FaultPlan::new(9).kill_rank(2, step_ops + step_ops / 2);
        let faulted = run_ranks_opts(4, RunOptions::with_faults(plan), |comm| {
            train(&|p, o| exec.train_step(comm, p, o, &x, &labels))
        });
        assert!(faulted.iter().all(|r| r.is_err()), "the kill must abandon the step everywhere");

        // A clean world on the same executor walks the trajectory of a
        // never-faulted one.
        let got = run_ranks(4, |comm| train(&|p, o| exec.train_step(comm, p, o, &x, &labels)));
        assert_eq!(got, want, "an abandoned step must not leak into later steps");

        let serial = {
            let mut n = net.clone();
            let mut opt = Sgd::new(0.02, 0.9, 1e-4, &n.params);
            (0..3)
                .map(|_| {
                    let (loss, grads) = n.loss_and_grads(&x, &labels);
                    opt.step(&mut n.params, &grads);
                    loss
                })
                .collect::<Vec<_>>()
        };
        for (s, d) in serial.iter().zip(&got[0]) {
            let d = f64::from_bits(*d);
            assert!((s - d).abs() <= 1e-3 * s.abs().max(1.0), "serial {s} vs distributed {d}");
        }
    }

    /// What the benchmark's traced mode does: fused `train_step`s
    /// interleaved with split `forward`/`backward` steps on one rank
    /// must walk the trajectory of `train_step` alone.
    #[test]
    fn interleaved_fused_and_split_steps_share_one_trajectory() {
        let spec = mini_resnet();
        let (x, labels) = cls_batch(4);
        let net = Network::init(spec.clone(), 13);
        let exec =
            DistExecutor::new(spec.clone(), Strategy::uniform(&spec, ProcGrid::hybrid(2, 1, 2)), 4)
                .unwrap();
        let run = |split_odd_steps: bool| {
            run_ranks(4, |comm| {
                let mut params = net.params.clone();
                let mut opt = Sgd::new(0.02, 0.9, 1e-4, &params);
                let losses: Vec<u64> = (0..4)
                    .map(|step| {
                        if split_odd_steps && step % 2 == 1 {
                            let pass = exec.forward(comm, &params, &x, Some(&labels));
                            let grads = exec.backward(comm, &params, &pass);
                            opt.step(&mut params, &grads);
                            pass.loss.expect("loss layer").to_bits()
                        } else {
                            exec.train_step(comm, &mut params, &mut opt, &x, &labels).to_bits()
                        }
                    })
                    .collect();
                (losses, grad_bits(&params))
            })
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn screened_step_rejection_leaves_state_untouched() {
        let spec = mini_mesh_net();
        let (x, labels) = seg_batch(2, 16, 16);
        let net = Network::init(spec.clone(), 5);
        let strategy = Strategy::uniform(&spec, ProcGrid::spatial(2, 2));
        let exec = DistExecutor::new(spec, strategy, 2).unwrap();
        run_ranks(4, |comm| {
            let mut params = net.params.clone();
            let mut opt = Sgd::new(0.02, 0.9, 1e-4, &params);
            let n_layers = params.len();
            let (loss, committed) =
                exec.screened_train_step(comm, &mut params, &mut opt, &x, &labels, |l, grads| {
                    assert!(l.is_finite());
                    assert_eq!(grads.len(), n_layers);
                    false
                });
            assert!(!committed);
            assert!(loss.is_finite());
            for (p, q) in params.iter().zip(&net.params) {
                assert_eq!(p.to_flat(), q.to_flat(), "rejected step must not move parameters");
            }
            // An accepting screen behaves exactly like train_step.
            let mut p2 = net.params.clone();
            let mut opt2 = Sgd::new(0.02, 0.9, 1e-4, &p2);
            let (l2, committed) =
                exec.screened_train_step(comm, &mut p2, &mut opt2, &x, &labels, |_, _| true);
            assert!(committed);
            let plain = exec.train_step(comm, &mut params, &mut opt, &x, &labels);
            assert_eq!(l2.to_bits(), plain.to_bits());
            for (a, b) in p2.iter().zip(&params) {
                assert_eq!(a.to_flat(), b.to_flat());
            }
        });
    }

    #[test]
    fn executor_rejects_invalid_strategies() {
        let spec = mini_resnet();
        let s = Strategy::sample_parallel(&spec, 8);
        // Batch 4 cannot feed 8 sample-parallel ranks.
        assert!(DistExecutor::new(spec, s, 4).is_err());
    }

    #[test]
    fn equal_rank_weights_normalize_to_the_uniform_strategy() {
        let spec = mini_mesh_net();
        let uniform = Strategy::uniform(&spec, ProcGrid::spatial(4, 1));
        let weighted = uniform.clone().with_rank_weights(vec![7, 7, 7, 7]);
        assert_eq!(uniform, weighted, "equal weights must normalize away entirely");
    }

    /// A weighted layout (one rank with a third of the others' speed)
    /// compiles, statically verifies clean, keeps every rank in bitwise
    /// agreement, and trains within the usual cross-layout tolerance of
    /// the uniform run — the math is unchanged, only box boundaries move.
    #[test]
    fn weighted_layout_verifies_and_trains() {
        let spec = mini_mesh_net();
        let (x, labels) = seg_batch(2, 16, 16);
        let net = Network::init(spec.clone(), 42);
        let grid = ProcGrid::spatial(4, 1);

        let weighted = Strategy::uniform(&spec, grid).with_rank_weights(vec![1, 3, 3, 3]);
        assert!(weighted.rank_weights.is_some());
        let wexec = DistExecutor::new(spec.clone(), weighted, 2)
            .expect("weighted layout compiles, verifies");

        let uexec =
            DistExecutor::new(spec.clone(), Strategy::uniform(&spec, grid), 2).expect("uniform");

        let run = |exec: &DistExecutor| {
            run_ranks(4, |comm| {
                let mut params = net.params.clone();
                let mut opt = Sgd::new(0.02, 0.9, 1e-4, &params);
                (0..3).map(|_| exec.train_step(comm, &mut params, &mut opt, &x, &labels)).collect()
            })
        };
        let w_losses: Vec<Vec<f64>> = run(&wexec);
        let u_losses: Vec<Vec<f64>> = run(&uexec);
        for l in &w_losses {
            assert_eq!(l, &w_losses[0], "ranks disagree under the weighted layout");
        }
        for (wl, ul) in w_losses[0].iter().zip(&u_losses[0]) {
            assert!(
                (wl - ul).abs() <= 1e-3 * ul.abs().max(1.0),
                "weighted layout diverged: {:?} vs {:?}",
                w_losses[0],
                u_losses[0]
            );
        }
    }
}
