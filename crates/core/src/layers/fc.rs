//! [`DistLayer`] driver for fully connected layers on per-sample
//! replicated activations (paper §III-B): compute is purely local per
//! sample block; gradients sum across distinct sample blocks via the
//! precompiled cross-section group.

use fg_comm::WorldComm;
use fg_nn::network::{fc_backward, fc_forward};
use fg_nn::LayerParams;
use fg_tensor::Tensor;

use crate::distconv::allreduce_grads;
use crate::executor::Act;
use crate::layers::groups::cross_section_group_layout;
use crate::layers::plan::{BwdCx, BwdOut, DistLayer, FwdCx, LayerBase, LayerPlan, TraceCx};

fn fc_params(p: &LayerParams) -> (&Tensor, &[f32]) {
    match p {
        LayerParams::Fc { w, b } => (w, b),
        other => panic!("expected fc params, found {other:?}"),
    }
}

/// [`DistLayer`] driver for fully connected layers.
#[derive(Debug)]
pub struct FcLayer {
    base: LayerBase,
    out_features: usize,
}

impl FcLayer {
    /// Wrap a fully connected layer for uniform scheduling.
    pub fn new(base: LayerBase, out_features: usize) -> Self {
        FcLayer { base, out_features }
    }
}

impl DistLayer for FcLayer {
    fn base(&self) -> &LayerBase {
        &self.base
    }

    fn compile_plan(&self, rank: usize) -> LayerPlan {
        let mut plan = self.base.compile_io(rank);
        plan.cross_group = Some(cross_section_group_layout(rank, self.base.grid));
        plan
    }

    fn forward(&self, _comm: &WorldComm, cx: &mut FwdCx<'_>) -> Act {
        let x = cx.input(0).per_sample_of(self.base.id, &self.base.kind);
        let (w, b) = fc_params(cx.params);
        Act::PerSample(fc_forward(x, w, b, self.out_features))
    }

    fn backward(&self, comm: &WorldComm, cx: &BwdCx<'_>, dy: Act) -> BwdOut {
        let dy = dy.into_per_sample_of(self.base.id, &self.base.kind);
        let x = cx.input(&self.base, 0).per_sample_of(self.base.id, &self.base.kind);
        let (w, _b) = fc_params(cx.params);
        let (dx, dw, db) = fc_backward(x, w, &dy);
        // Sum FC gradients over distinct sample blocks only (replicas
        // within a sample group hold identical partials).
        let group = cx.plan.cross_group.as_ref().expect("FC plan has a cross-section group");
        let sub = group.bind(comm);
        let (w, b) = allreduce_grads(&sub, dw, Some(db));
        BwdOut {
            dparents: vec![(0, Act::PerSample(dx))],
            grads: Some(LayerParams::Fc { w, b: b.expect("reduced with the weights") }),
        }
    }

    fn needs_input_for_backward(&self) -> bool {
        true
    }

    fn record_backward(&self, cx: &TraceCx<'_>, rec: &mut fg_comm::TraceRecorder) {
        let group = cx.plan.cross_group.as_ref().expect("FC plan has a cross-section group");
        rec.sub_allreduce(
            group.members(),
            group.group_id(),
            cx.param_elems,
            fg_comm::ScalarType::F32,
        );
    }
}
