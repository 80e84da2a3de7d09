//! The step schedule: what the network's shape and the strategy decide
//! about a training step, decided once.
//!
//! Which parent edge is redistributed, moved or borrowed, which
//! redistributed input stays in the pass for backward, which layers run
//! backward and in what order, since when each one's error accumulator
//! is live, and whose input gradient nobody reads — none of it depends
//! on the rank, so [`StepSchedule::compile`] works it out from the layer
//! objects alone and every walker of a step reads the same value: the
//! executor (tensor math), `verify::record_rank` (wire ops and
//! `Advance`s) and `mem::rank_intervals` (bytes and ticks).

use crate::layers::DistLayer;

/// How a layer's forward input arrives over one parent edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeIn {
    /// Redistributed by the edge's §III-C shuffle into a copy of the
    /// layer's own, `saved` in the pass when backward reads the input.
    Shuffled { saved: bool },
    /// Read from the parent's slot, which the pass then gives up: sole
    /// consumer, no shuffle, and backward never reads the edge.
    Moved,
    /// Read from the parent's slot, which stays.
    Borrowed,
}

/// One entry of the backward walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BwdStep {
    /// The layer whose turn it is.
    pub layer: usize,
    /// A loss layer: it hands the pass's saved loss gradient to its
    /// parent instead of running `backward` on an error signal.
    pub seeds: bool,
    /// The layer whose step first filled this one's error accumulator
    /// (`layer` itself for a seed, which has none).
    pub err_from: usize,
    /// Per parent edge: does anyone read what this step sends up it?
    /// Not a parent-less layer (the network input): such a contribution
    /// is neither shuffled nor accumulated.
    pub feeds: Vec<bool>,
}

impl BwdStep {
    /// Does anyone read this layer's input gradient (`BwdCx::wants_dx`)?
    pub fn wants_dx(&self) -> bool {
        self.feeds.contains(&true)
    }
}

/// One training step's schedule; see the module header.
#[derive(Debug)]
pub(crate) struct StepSchedule {
    /// Per layer, per parent edge.
    pub edges: Vec<Vec<EdgeIn>>,
    /// The layers that run backward, in execution order: loss seeds in
    /// their place, branches no error signal reaches absent.
    pub backward: Vec<BwdStep>,
}

impl StepSchedule {
    /// Work the schedule out from the layer objects.
    pub(crate) fn compile(layers: &[Box<dyn DistLayer>]) -> StepSchedule {
        let mut consumers = vec![0usize; layers.len()];
        for &p in layers.iter().flat_map(|l| &l.base().parents) {
            consumers[p] += 1;
        }
        let edges = layers
            .iter()
            .map(|l| {
                let (base, reads) = (l.base(), l.needs_input_for_backward());
                let edge = |(i, &p): (usize, &usize)| {
                    if base.shuffles_edge(i) {
                        EdgeIn::Shuffled { saved: reads }
                    } else if consumers[p] == 1 && !reads {
                        EdgeIn::Moved
                    } else {
                        EdgeIn::Borrowed
                    }
                };
                base.parents.iter().enumerate().map(edge).collect()
            })
            .collect();

        // Reverse order; a layer runs when it seeds the pass or some
        // step before it fed its error accumulator.
        let mut has_signal: Vec<Option<usize>> = vec![None; layers.len()];
        let mut backward = Vec::new();
        for (id, layer) in layers.iter().enumerate().rev() {
            let seeds = layer.seeds_backward();
            if !seeds && has_signal[id].is_none() {
                continue;
            }
            let parents = &layer.base().parents;
            let feeds: Vec<bool> =
                parents.iter().map(|&p| !layers[p].base().parents.is_empty()).collect();
            for (&p, _) in parents.iter().zip(&feeds).filter(|(_, &fed)| fed) {
                has_signal[p].get_or_insert(id);
            }
            let err_from = has_signal[id].unwrap_or(id);
            backward.push(BwdStep { layer: id, seeds, err_from, feeds });
        }
        StepSchedule { edges, backward }
    }
}
