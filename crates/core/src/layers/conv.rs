//! [`DistLayer`] driver for distributed convolution
//! ([`crate::DistConv2d`] holds the math; see `distconv.rs`).

use fg_comm::WorldComm;
use fg_nn::LayerParams;
use fg_tensor::Tensor;

use crate::distconv::{DistConv2d, InteriorPlan};
use crate::executor::Act;
use crate::layers::plan::{
    window_elems, BwdCx, BwdOut, DistLayer, FwdCx, LayerBase, LayerBufs, LayerPlan, TraceCx,
};
use fg_comm::{ScalarType, TraceRecorder};
use fg_tensor::halo::record_halo_exchange;

fn conv_params(p: &LayerParams) -> (&Tensor, Option<&[f32]>) {
    match p {
        LayerParams::Conv { w, b } => (w, b.as_deref()),
        other => panic!("expected conv params, found {other:?}"),
    }
}

/// [`DistLayer`] driver for [`DistConv2d`].
#[derive(Debug)]
pub struct ConvLayer {
    base: LayerBase,
    conv: DistConv2d,
}

impl ConvLayer {
    /// Wrap a convolution layer for uniform scheduling.
    pub fn new(base: LayerBase, conv: DistConv2d) -> Self {
        ConvLayer { base, conv }
    }
}

impl DistLayer for ConvLayer {
    fn base(&self) -> &LayerBase {
        &self.base
    }

    fn compile_plan(&self, rank: usize) -> LayerPlan {
        let mut plan = self.base.compile_io(rank);
        plan.x_halo = Some(self.conv.x_halo_plan(rank));
        plan.dy_halo = Some(self.conv.dy_halo_plan(rank));
        plan.interior = Some(InteriorPlan::build(&self.conv, rank));
        plan
    }

    fn forward(&self, comm: &WorldComm, cx: &mut FwdCx<'_>) -> Act {
        let x = cx.input(0).shard_of(self.base.id, &self.base.kind);
        let (w, b) = conv_params(cx.params);
        let x_halo = cx.plan.x_halo.as_ref().expect("conv plan has an x halo");
        let store =
            cx.window_slot.as_ref().map(|s| s.alloc(self.memory_model(cx.rank).window_elems));
        // §IV-A: the halo exchange overlaps the interior compute.
        let iplan = cx.plan.interior.as_ref().expect("conv plan has an interior plan");
        let (y, win) = self.conv.forward(comm, x, w, b, x_halo, iplan, store);
        *cx.window = Some(win);
        Act::Shard(y)
    }

    fn backward(&self, comm: &WorldComm, cx: &BwdCx<'_>, dy: Act) -> BwdOut {
        let dy = dy.into_shard_of(self.base.id, &self.base.kind);
        let (w, b) = conv_params(cx.params);
        let win = cx.window(&self.base);
        let dy_halo = cx.plan.dy_halo.as_ref().expect("conv plan has a dy halo");
        let store =
            cx.dyw_slot.as_ref().map(|s| s.alloc(self.memory_model(cx.rank).dy_window_elems));
        // §IV-A: the dy halo exchange hides inside the (halo-free)
        // filter convolution.
        let (dx, dw, db, spent) =
            self.conv.backward(comm, win, &dy, w, b.is_some(), cx.wants_dx, dy_halo, store);
        if let (Some(slot), Some(buf)) = (cx.dyw_slot.as_ref(), spent) {
            slot.release(buf);
        }
        BwdOut {
            dparents: dx.into_iter().map(|dx| (0, Act::Shard(dx))).collect(),
            grads: Some(LayerParams::Conv { w: dw, b: db }),
        }
    }

    fn memory_model(&self, rank: usize) -> LayerBufs {
        let (xlo, xhi) = self.conv.x_margins;
        let (dlo, dhi) = self.conv.dy_margins;
        LayerBufs {
            window_elems: window_elems(&self.conv.in_dist, rank, xlo, xhi),
            dy_window_elems: window_elems(&self.conv.out_dist, rank, dlo, dhi),
        }
    }

    // The interior decomposition only reschedules compute: the wire ops
    // are those of a plain halo exchange, in the same order.
    fn record_forward(&self, cx: &TraceCx<'_>, rec: &mut TraceRecorder) {
        let x_halo = cx.plan.x_halo.as_ref().expect("conv plan has an x halo");
        record_halo_exchange(rec, x_halo);
    }

    fn record_backward(&self, cx: &TraceCx<'_>, rec: &mut TraceRecorder) {
        let dy_halo = cx.plan.dy_halo.as_ref().expect("conv plan has a dy halo");
        record_halo_exchange(rec, dy_halo);
        rec.world_allreduce(cx.param_elems, ScalarType::F32);
    }
}
