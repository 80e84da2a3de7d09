//! The plan-once/execute-many layer interface.
//!
//! The paper's implementation sets up all communication for a layer when
//! the network is constructed and reuses it every iteration. Here that
//! structure is explicit: `DistExecutor::new` compiles one [`LayerPlan`]
//! per layer per rank — shuffle geometry for mismatched parent grids,
//! halo plans (forward and adjoint), the §IV-A interior/boundary
//! decomposition, and sub-communicator layouts — and the training
//! loop executes the plans without rebuilding any geometry.
//!
//! [`DistLayer`] is the uniform interface the executor schedules:
//! `compile_plan` runs once at construction, `forward`/`backward` run
//! every step against an [`FwdCx`]/[`BwdCx`] holding the plan, the
//! layer's parameters, and its (possibly redistributed) inputs.

use std::cell::RefCell;
use std::ops::Range;

use fg_comm::{SubCommLayout, TraceRecorder, WorldComm};
use fg_kernels::batchnorm::BnStats;
use fg_kernels::loss::Labels;
use fg_nn::{LayerKind, LayerParams};
use fg_tensor::halo::HaloPlan;
use fg_tensor::shuffle::ShufflePlan;
use fg_tensor::{DistTensor, ProcGrid, StepArena, TensorDist, NDIMS};

use crate::distconv::InteriorPlan;
use crate::executor::{Act, DistPass};
use crate::layers::schedule::EdgeIn;
use crate::layers::BnMode;

/// One rank's precompiled communication/compute geometry for one layer.
/// Built by [`DistLayer::compile_plan`]; every field a layer does not
/// use stays `None`/empty.
#[derive(Debug, Clone, Default)]
pub struct LayerPlan {
    /// Per parent edge: the §III-C shuffle bringing the parent's output
    /// into this layer's input distribution (`None` when they match or
    /// the edge is per-sample). Empty when no edge of the layer
    /// shuffles; read a slot with [`LayerPlan::in_shuffle`].
    pub in_shuffles: Vec<Option<ShufflePlan>>,
    /// Per parent edge: the adjoint shuffle routing this layer's `dx`
    /// back to the parent's distribution. Empty like `in_shuffles`;
    /// read a slot with [`LayerPlan::back_shuffle`].
    pub back_shuffles: Vec<Option<ShufflePlan>>,
    /// Forward halo plan for the input window (conv/pool).
    pub x_halo: Option<HaloPlan>,
    /// Adjoint halo plan for the error-signal window (conv/pool).
    pub dy_halo: Option<HaloPlan>,
    /// Interior/boundary decomposition for the §IV-A overlap (conv).
    pub interior: Option<InteriorPlan>,
    /// Spatial sub-communicator layout (global average pooling).
    pub spatial_group: Option<SubCommLayout>,
    /// Cross-section sub-communicator layout (FC, per-sample loss).
    pub cross_group: Option<SubCommLayout>,
    /// This rank's sample block of the global labels (per-sample loss).
    pub label_range: Option<Range<usize>>,
}

impl LayerPlan {
    /// The forward shuffle of parent edge `edge`, if it shuffles.
    pub(crate) fn in_shuffle(&self, edge: usize) -> Option<&ShufflePlan> {
        self.in_shuffles.get(edge).and_then(Option::as_ref)
    }

    /// The adjoint shuffle of parent edge `edge`, if it shuffles.
    pub(crate) fn back_shuffle(&self, edge: usize) -> Option<&ShufflePlan> {
        self.back_shuffles.get(edge).and_then(Option::as_ref)
    }
}

/// Spec- and strategy-derived identity shared by every layer object.
#[derive(Debug, Clone)]
pub struct LayerBase {
    /// Layer index in the network spec.
    pub id: usize,
    /// Layer name from the spec.
    pub name: String,
    /// Layer kind (for diagnostics and panic context).
    pub kind: LayerKind,
    /// Parent layer indices.
    pub parents: Vec<usize>,
    /// This layer's process grid.
    pub grid: ProcGrid,
    /// Distribution this layer consumes sharded inputs in (`None` when
    /// its inputs are per-sample replicated).
    pub in_dist: Option<TensorDist>,
    /// Distribution of this layer's own sharded output (`None` for
    /// per-sample producers: GAP, FC, per-sample loss).
    pub out_dist: Option<TensorDist>,
    /// Each parent's `out_dist`, for compiling the backward shuffles.
    pub parent_dists: Vec<Option<TensorDist>>,
}

impl LayerBase {
    /// Does parent edge `i` need a §III-C shuffle — both ends sharded,
    /// in different distributions? The one predicate behind the compiled
    /// plans and the step schedule.
    pub(crate) fn shuffles_edge(&self, i: usize) -> bool {
        matches!((&self.in_dist, &self.parent_dists[i]), (Some(want), Some(have)) if want != have)
    }

    /// Compile the shuffle geometry shared by all layer kinds: one
    /// forward and one adjoint [`ShufflePlan`] per parent edge whose
    /// distributions differ. A layer none of whose edges shuffles — every
    /// layer of a uniform strategy — gets no slots at all: an
    /// `Option<ShufflePlan>` is 200 B, and two `vec![None; parents]` per
    /// layer and rank were most of the allocations of a paper-scale
    /// compile.
    pub fn compile_io(&self, rank: usize) -> LayerPlan {
        let mut plan = LayerPlan::default();
        if !(0..self.parent_dists.len()).any(|i| self.shuffles_edge(i)) {
            return plan;
        }
        for (i, have) in self.parent_dists.iter().enumerate() {
            let ends = self.in_dist.as_ref().zip(have.as_ref()).filter(|_| self.shuffles_edge(i));
            let build = |from: &TensorDist, to: &TensorDist| {
                ShufflePlan::build(from.clone(), to.clone(), rank)
            };
            plan.in_shuffles.push(ends.map(|(want, have)| build(have, want)));
            plan.back_shuffles.push(ends.map(|(want, have)| build(want, have)));
        }
        plan
    }
}

/// Element count of a rank's haloed window over `dist`: the owned box
/// expanded by the margins — exactly the local buffer
/// [`DistTensor::to_window_in`] builds. This is the single sizing formula
/// shared by the memory analyzer (interval bytes) and the layer drivers
/// (arena checkout sizes), so the static plan and the runtime requests
/// can never disagree.
pub fn window_elems(
    dist: &TensorDist,
    rank: usize,
    margin_lo: [usize; NDIMS],
    margin_hi: [usize; NDIMS],
) -> usize {
    let b = dist.local_box(rank);
    (0..NDIMS).map(|d| (b.hi[d] - b.lo[d]) + margin_lo[d] + margin_hi[d]).product()
}

/// Step-transient buffer sizes one layer needs on one rank, reported by
/// [`DistLayer::memory_model`]. Element counts, not bytes; zero means
/// the layer does not keep that buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerBufs {
    /// The haloed input window built in forward and kept until backward.
    pub window_elems: usize,
    /// The transient error-signal window built (and dropped) inside
    /// backward.
    pub dy_window_elems: usize,
}

/// A checkout handle on one slot of a rank's step arena, handed to a
/// layer through its context. The layer draws its planned buffer from
/// the slot with [`ArenaSlot::alloc`]; storage returns to the slot via
/// [`ArenaSlot::release`] (dy windows, inside backward) or via the
/// executor's end-of-step sweep (kept forward windows).
#[derive(Debug)]
pub struct ArenaSlot<'a> {
    pub(crate) pool: &'a RefCell<StepArena>,
    pub(crate) slot: usize,
}

impl ArenaSlot<'_> {
    /// Check the slot out as a buffer of `elems` elements. Panics (slot
    /// named) on double checkout or over-capacity requests — plan
    /// violations the static checker proves absent.
    pub fn alloc(&self, elems: usize) -> Vec<f32> {
        self.pool.borrow_mut().alloc(self.slot, elems)
    }

    /// Return the buffer to the slot.
    pub fn release(&self, buf: Vec<f32>) {
        self.pool.borrow_mut().release(self.slot, buf)
    }
}

/// A uniformly schedulable distributed layer. Object-safe — its methods
/// take the concrete [`WorldComm`], not a generic communicator — so the
/// executor holds `Vec<Box<dyn DistLayer>>` and never matches on layer
/// kinds itself.
pub trait DistLayer: std::fmt::Debug + Send + Sync {
    /// The layer's spec/strategy-derived identity.
    fn base(&self) -> &LayerBase;

    /// Compile this rank's plan — pure geometry, no communication.
    /// Called once per rank in `DistExecutor::new`. The default is the
    /// shuffle geometry every layer kind shares.
    fn compile_plan(&self, rank: usize) -> LayerPlan {
        self.base().compile_io(rank)
    }

    /// Execute the planned forward step; returns the output activation.
    /// Side outputs (kept windows, BN statistics, losses) go into `cx`.
    fn forward(&self, comm: &WorldComm, cx: &mut FwdCx<'_>) -> Act;

    /// Execute the planned backward step for error signal `dy`;
    /// `dx` contributions come back in this layer's input distribution
    /// (the scheduler applies the adjoint shuffles).
    fn backward(&self, comm: &WorldComm, cx: &BwdCx<'_>, dy: Act) -> BwdOut;

    /// Does this layer originate the backward pass (loss layers)? The
    /// scheduler seeds its parent with the saved loss gradient instead
    /// of calling [`DistLayer::backward`].
    fn seeds_backward(&self) -> bool {
        false
    }

    /// Does [`DistLayer::backward`] read this layer's forward input
    /// (via [`BwdCx::input`])? Decides, in the step schedule, whether a
    /// redistributed input is saved and whether a parent's activation
    /// may be given up once this layer has run.
    fn needs_input_for_backward(&self) -> bool {
        false
    }

    /// Record the wire ops [`DistLayer::forward`] would issue into a
    /// symbolic trace — same exchanges, same order, same payload sizes,
    /// no tensor math. The default records nothing (compute-only layer).
    fn record_forward(&self, cx: &TraceCx<'_>, rec: &mut TraceRecorder) {
        let _ = (cx, rec);
    }

    /// Record the wire ops [`DistLayer::backward`] would issue.
    fn record_backward(&self, cx: &TraceCx<'_>, rec: &mut TraceRecorder) {
        let _ = (cx, rec);
    }

    /// Step-transient buffers this layer keeps on `rank` — the sizing
    /// contract between the static memory analyzer (which turns these
    /// into [`LiveInterval`]s and arena slots) and the runtime (which
    /// checks out exactly these counts). The default reports none
    /// (layers that keep no windows).
    ///
    /// [`LiveInterval`]: fg_tensor::LiveInterval
    fn memory_model(&self, rank: usize) -> LayerBufs {
        let _ = rank;
        LayerBufs::default()
    }
}

/// What a layer's trace-recording hooks see: the same plan its
/// forward/backward would execute, plus the execution-context facts
/// (batch-norm scope, parameter sizes) that decide which collectives run
/// and how large their payloads are.
#[derive(Debug)]
pub struct TraceCx<'a> {
    /// This layer's precompiled plan (the one being verified).
    pub plan: &'a LayerPlan,
    /// Batch-norm statistics scope from the strategy.
    pub bn_mode: BnMode,
    /// World size.
    pub world: usize,
    /// The rank being traced.
    pub rank: usize,
    /// Element count of this layer's parameters (and hence of its
    /// gradient allreduce payload); 0 for parameter-free layers.
    pub param_elems: usize,
}

/// Everything a layer's forward step reads and writes besides its output
/// activation: precompiled geometry, and this layer's view of the pass.
/// Built fresh by the scheduler each step.
#[derive(Debug)]
pub struct FwdCx<'a> {
    /// This layer's precompiled plan.
    pub plan: &'a LayerPlan,
    /// This layer's parameters.
    pub params: &'a LayerParams,
    /// Global labels (loss layers; `None` for label-free passes).
    pub labels: Option<&'a Labels>,
    /// Fixed statistics for BN inference mode.
    pub bn_override: Option<&'a BnStats>,
    /// Batch-norm statistics scope.
    pub bn_mode: BnMode,
    /// This rank.
    pub rank: usize,
    /// How each parent edge's input arrives (this layer's row of the
    /// step schedule) and where from.
    pub(crate) edges: &'a [EdgeIn],
    pub(crate) parents: &'a [usize],
    /// The activations of every earlier layer.
    pub(crate) acts: &'a mut [Act],
    /// This layer's row of [`DistPass::inputs`]: its redistributed
    /// inputs by parent edge, `None` once taken.
    pub(crate) shuffled: &'a mut [Option<Act>],
    /// The externally supplied activation (input layer only).
    pub external: Option<Act>,
    /// Arena slot for the kept input window in the fused step (`None`
    /// in the split API, whose pass escapes: conventional allocation).
    pub window_slot: Option<ArenaSlot<'a>>,
    /// Out: haloed input window kept for backward (conv/pool).
    pub window: &'a mut Option<DistTensor>,
    /// Out: batch-norm statistics.
    pub bn_stats: &'a mut Option<BnStats>,
    /// Out: global mean loss.
    pub loss: &'a mut Option<f64>,
    /// Out: ∂loss/∂logits in this layer's representation.
    pub loss_grad: &'a mut Option<Act>,
}

impl FwdCx<'_> {
    /// View input `i`.
    pub fn input(&self, i: usize) -> &Act {
        match self.edges[i] {
            EdgeIn::Shuffled { .. } => {
                self.shuffled[i].as_ref().expect("forward input already taken")
            }
            EdgeIn::Moved | EdgeIn::Borrowed => &self.acts[self.parents[i]],
        }
    }

    /// Take ownership of input `i`: the redistributed copy (nothing gets
    /// saved then), the parent's own activation when the edge gives it
    /// up anyway, a clone otherwise.
    pub fn take_input(&mut self, i: usize) -> Act {
        let from = &mut self.acts[self.parents[i]];
        match self.edges[i] {
            EdgeIn::Shuffled { .. } => {
                self.shuffled[i].take().expect("forward input already taken")
            }
            EdgeIn::Moved => std::mem::replace(from, Act::consumed()),
            EdgeIn::Borrowed => from.clone(),
        }
    }
}

/// Read-only view of the saved pass a layer's backward step runs
/// against.
#[derive(Debug)]
pub struct BwdCx<'a> {
    /// This layer's precompiled plan.
    pub plan: &'a LayerPlan,
    /// This layer's parameters.
    pub params: &'a LayerParams,
    /// The saved forward pass.
    pub pass: &'a DistPass,
    /// Batch-norm statistics scope.
    pub bn_mode: BnMode,
    /// This rank.
    pub rank: usize,
    /// Arena slot for the transient dy window in the fused step (`None`
    /// in the split API, whose pass escapes: conventional allocation).
    pub dyw_slot: Option<ArenaSlot<'a>>,
    /// Does anyone read this layer's input gradient? False when every
    /// parent is parent-less (the network input): the scheduler drops
    /// what a step sends up such an edge, so a convolution need not
    /// compute it. From the step schedule.
    pub wants_dx: bool,
}

impl BwdCx<'_> {
    /// The activation this layer consumed as input `i` in forward: the
    /// privately saved copy when one was kept (redistributed inputs),
    /// otherwise the parent's own activation (which the step schedule
    /// guarantees is still in the pass).
    pub fn input(&self, base: &LayerBase, i: usize) -> &Act {
        let saved = self.pass.inputs[base.id].get(i).and_then(Option::as_ref);
        saved.unwrap_or(&self.pass.acts[base.parents[i]])
    }

    /// The haloed input window saved in forward.
    pub fn window(&self, base: &LayerBase) -> &DistTensor {
        self.pass.windows[base.id].as_ref().unwrap_or_else(|| {
            panic!("layer {} ({:?}): no window saved in forward", base.id, base.kind)
        })
    }

    /// The batch-norm statistics saved in forward.
    pub fn bn_stats(&self, base: &LayerBase) -> &BnStats {
        self.pass.bn_stats[base.id].as_ref().unwrap_or_else(|| {
            panic!("layer {} ({:?}): no BN statistics saved in forward", base.id, base.kind)
        })
    }
}

/// What a layer's backward step produced.
#[derive(Debug)]
pub struct BwdOut {
    /// `(parent edge index, dx)` contributions, each in this layer's
    /// input distribution; the scheduler applies the adjoint shuffles
    /// and accumulates into the parents' error slots.
    pub dparents: Vec<(usize, Act)>,
    /// Parameter gradients, already globally reduced (identical on all
    /// ranks), if the layer has parameters.
    pub grads: Option<LayerParams>,
}

impl BwdOut {
    /// No contributions (input layer).
    pub fn none() -> BwdOut {
        BwdOut { dparents: Vec::new(), grads: None }
    }
}
