//! Distributed layer implementations (paper §III) behind the
//! plan-once/execute-many [`DistLayer`] interface.
//!
//! Each submodule holds one layer family: its distributed math (free
//! functions and layer structs, exactly as before the refactor) plus its
//! [`DistLayer`] impl, which the executor drives uniformly:
//!
//! * [`plan`] — the [`LayerPlan`]/[`DistLayer`] interface itself;
//! * [`conv`] — distributed convolution ([`crate::DistConv2d`] driver);
//! * [`pool`] — distributed pooling ([`DistPool2d`]);
//! * [`batchnorm`] — batch normalization ([`BnMode`], `dist_bn_*`);
//! * [`pointwise`] — ReLU and residual add;
//! * [`gap`] — global average pooling (shard → per-sample replicated);
//! * [`fc`] — fully connected layers on per-sample activations;
//! * [`loss`] — softmax cross-entropy (sharded and per-sample);
//! * [`groups`] — spatial / cross-section sub-communicator layouts;
//! * [`input`] — the input layer (external activation intake).

pub mod batchnorm;
pub mod conv;
pub mod fc;
pub mod gap;
pub mod groups;
pub mod input;
pub mod loss;
pub mod plan;
pub mod pointwise;
pub mod pool;
pub(crate) mod schedule;

pub use batchnorm::{BatchNormLayer, BnMode};
pub use conv::ConvLayer;
pub use fc::FcLayer;
pub use gap::GapLayer;
pub use groups::{cross_section_group_layout, spatial_group_layout};
pub use input::InputLayer;
pub use loss::SoftmaxLossLayer;
pub use plan::{
    window_elems, ArenaSlot, BwdCx, BwdOut, DistLayer, FwdCx, LayerBase, LayerBufs, LayerPlan,
    TraceCx,
};
pub use pointwise::{AddLayer, ReluLayer};
pub use pool::{DistPool2d, PoolLayer};

use fg_kernels::conv::ConvGeometry;
use fg_nn::{LayerKind, NetworkSpec};
use fg_tensor::{Shape4, TensorDist};

use crate::distconv::DistConv2d;
use crate::strategy::Strategy;

/// Build the per-layer [`DistLayer`] objects for a validated
/// spec/strategy pair. Called once by `DistExecutor::new`; the executor
/// then schedules these uniformly and never matches on layer kinds.
pub(crate) fn build_layers(
    spec: &NetworkSpec,
    strategy: &Strategy,
    batch: usize,
) -> Vec<Box<dyn DistLayer>> {
    let mut layers: Vec<Box<dyn DistLayer>> = Vec::with_capacity(spec.len());
    for (id, l) in spec.layers().iter().enumerate() {
        let parent_dists = l.parents.iter().map(|&p| layers[p].base().out_dist.clone()).collect();
        layers.push(build_layer(spec, strategy, batch, id, parent_dists));
    }
    layers
}

/// Build layer `id`'s object on its grid in `strategy`, fed by parents
/// whose outputs are distributed as `parent_dists`.
pub(crate) fn build_layer(
    spec: &NetworkSpec,
    strategy: &Strategy,
    batch: usize,
    id: usize,
    parent_dists: Vec<Option<TensorDist>>,
) -> Box<dyn DistLayer> {
    let l = spec.layer(id);
    let shape = |id: usize| {
        let (c, h, w) = spec.shape(id);
        Shape4::new(batch, c, h, w)
    };
    let grid = strategy.grids[id];
    let base = |in_dist: Option<TensorDist>, out_dist: Option<TensorDist>| LayerBase {
        id,
        name: l.name.clone(),
        kind: l.kind.clone(),
        parents: l.parents.clone(),
        grid,
        in_dist,
        out_dist,
        parent_dists,
    };
    let sharded = strategy.dist_for(shape(id), grid);
    match &l.kind {
        LayerKind::Input { .. } => Box::new(InputLayer::new(base(None, Some(sharded)))),
        LayerKind::Conv { kernel, stride, pad, .. } => {
            let p = shape(l.parents[0]);
            let geom = ConvGeometry::square(p.h, p.w, *kernel, *stride, *pad);
            let conv = DistConv2d::with_dists(geom, strategy.dist_for(p, grid), sharded);
            let b = base(Some(conv.in_dist.clone()), Some(conv.out_dist.clone()));
            Box::new(ConvLayer::new(b, conv))
        }
        LayerKind::Pool { kind, kernel, stride, pad } => {
            let p = shape(l.parents[0]);
            let geom = ConvGeometry::square(p.h, p.w, *kernel, *stride, *pad);
            let pool = DistPool2d::with_dists(*kind, geom, strategy.dist_for(p, grid), sharded);
            let b = base(Some(pool.in_dist.clone()), Some(pool.out_dist.clone()));
            Box::new(PoolLayer::new(b, pool))
        }
        LayerKind::BatchNorm => {
            Box::new(batchnorm::BatchNormLayer::new(base(Some(sharded.clone()), Some(sharded))))
        }
        LayerKind::Relu => Box::new(ReluLayer::new(base(Some(sharded.clone()), Some(sharded)))),
        LayerKind::Add => Box::new(AddLayer::new(base(Some(sharded.clone()), Some(sharded)))),
        LayerKind::GlobalAvgPool => {
            let in_dist = strategy.dist_for(shape(l.parents[0]), grid);
            Box::new(GapLayer::new(base(Some(in_dist), None)))
        }
        LayerKind::Fc { out_features } => Box::new(FcLayer::new(base(None, None), *out_features)),
        LayerKind::SoftmaxCrossEntropy => {
            // Per-sample only when the parent actually produces the
            // replicated representation (GAP/FC); a conv that happens
            // to emit a 1×1 map is still sharded.
            let parent_kind = &spec.layer(l.parents[0]).kind;
            let per_sample = matches!(parent_kind, LayerKind::GlobalAvgPool | LayerKind::Fc { .. });
            let b = if per_sample {
                base(None, None)
            } else {
                base(Some(sharded.clone()), Some(sharded))
            };
            Box::new(SoftmaxLossLayer::new(b, per_sample, batch))
        }
    }
}
