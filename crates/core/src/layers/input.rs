//! The input layer: intake of the externally supplied activation.

use fg_comm::WorldComm;

use crate::executor::Act;
use crate::layers::plan::{BwdCx, BwdOut, DistLayer, FwdCx, LayerBase};

/// [`DistLayer`] for the network's input: forwards the externally
/// supplied activation, contributes nothing in backward.
#[derive(Debug)]
pub struct InputLayer {
    base: LayerBase,
}

impl InputLayer {
    /// Wrap the input layer for uniform scheduling.
    pub fn new(base: LayerBase) -> Self {
        InputLayer { base }
    }
}

impl DistLayer for InputLayer {
    fn base(&self) -> &LayerBase {
        &self.base
    }

    fn forward(&self, _comm: &WorldComm, cx: &mut FwdCx<'_>) -> Act {
        cx.external.take().unwrap_or_else(|| {
            panic!("layer {} ({:?}): no external activation supplied", self.base.id, self.base.kind)
        })
    }

    fn backward(&self, _comm: &WorldComm, _cx: &BwdCx<'_>, _dy: Act) -> BwdOut {
        BwdOut::none()
    }
}
