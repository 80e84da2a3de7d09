//! Tensor-liveness intervals and their exact peak.
//!
//! The memory analyzer (fg-core's `mem` module) walks a rank's compiled
//! forward/backward schedule and records every buffer the step touches
//! as a [`LiveInterval`] on a discrete tick line: layer `L` of an
//! `n`-layer network computes forward at tick `L` and backward at tick
//! `2n - 1 - L`, so one training step spans ticks `0 ..= 2n - 1`. The
//! sweep [`peak_bytes`] sums the bytes live at each tick; its maximum is
//! the static per-rank memory bound.

use std::fmt;

/// Bytes per element; every runtime buffer in the workspace is `f32`.
pub const ELT_BYTES: usize = 4;

/// What a recorded buffer holds. Classes partition the analyzer's
/// accounting so bounds can be decomposed (activations vs staging vs
/// persistent state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BufClass {
    /// A layer's output activation, live from its forward tick until
    /// its backward tick (it is a backward input).
    Act,
    /// A backward error signal (dL/dy accumulator for one layer).
    Err,
    /// A haloed input window built in forward and kept for backward.
    Window,
    /// The transient dy window built inside backward.
    DyWindow,
    /// Halo-exchange pack/unpack staging (send + recv payloads).
    HaloStage,
    /// Shuffle/regrid staging (send + recv payloads of a
    /// redistribution).
    ShuffleStage,
    /// Flattened gradient staging for the weight allreduce.
    GradStage,
    /// Batch-norm statistics (mean + variance per channel).
    BnStats,
    /// Integrity replay-window budget (per-link retransmit staging).
    ReplayWindow,
    /// Parameters, gradients, and optimizer momentum — live for the
    /// whole step.
    Persistent,
}

impl BufClass {
    /// Short label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            BufClass::Act => "act",
            BufClass::Err => "err",
            BufClass::Window => "window",
            BufClass::DyWindow => "dy-window",
            BufClass::HaloStage => "halo-stage",
            BufClass::ShuffleStage => "shuffle-stage",
            BufClass::GradStage => "grad-stage",
            BufClass::BnStats => "bn-stats",
            BufClass::ReplayWindow => "replay-window",
            BufClass::Persistent => "persistent",
        }
    }
}

impl fmt::Display for BufClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One buffer's live interval on the step's tick line. Ticks are
/// inclusive on both ends: a buffer with `start == end` is live for
/// exactly one tick.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveInterval {
    /// Layer that owns the buffer (the network-spec layer id).
    pub layer: usize,
    /// What the buffer holds.
    pub class: BufClass,
    /// Buffer size in bytes.
    pub bytes: usize,
    /// First tick at which the buffer is live.
    pub start: usize,
    /// Last tick at which the buffer is live (inclusive).
    pub end: usize,
}

impl fmt::Display for LiveInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "layer {} {} {} B live [{}, {}]",
            self.layer, self.class, self.bytes, self.start, self.end
        )
    }
}

/// Exact peak of the interval set: the maximum, over ticks, of the sum
/// of bytes live at that tick: the static per-rank bound. Costs
/// O(intervals + last tick): a step's tick line is two ticks per layer.
pub fn peak_bytes(intervals: &[LiveInterval]) -> usize {
    // Delta sweep over a dense tick array: +bytes at `start`, -bytes at
    // `end + 1`. Applying all deltas for a tick before sampling makes the
    // running sum equal the bytes live at that tick (inclusive ends).
    let ticks = intervals.iter().map(|iv| iv.start.max(iv.end) + 2).max().unwrap_or(0);
    let mut deltas = vec![0i64; ticks];
    for iv in intervals {
        debug_assert!(iv.start <= iv.end, "inverted interval {iv}");
        deltas[iv.start] += iv.bytes as i64;
        deltas[iv.end + 1] -= iv.bytes as i64;
    }
    let mut live = 0i64;
    let mut peak = 0i64;
    for d in deltas {
        live += d;
        peak = peak.max(live);
    }
    debug_assert_eq!(live, 0, "interval deltas must cancel");
    peak as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(layer: usize, class: BufClass, bytes: usize, start: usize, end: usize) -> LiveInterval {
        LiveInterval { layer, class, bytes, start, end }
    }

    #[test]
    fn peak_is_exact_for_staggered_intervals() {
        // [0,2] 100 B, [1,1] 50 B, [3,3] 400 B: peak is max(150, 400).
        let ivs = [
            iv(0, BufClass::Act, 100, 0, 2),
            iv(1, BufClass::HaloStage, 50, 1, 1),
            iv(2, BufClass::GradStage, 400, 3, 3),
        ];
        assert_eq!(peak_bytes(&ivs), 400);
        assert_eq!(peak_bytes(&[]), 0);
    }

    /// The sweep as first written, one `BTreeMap` entry per distinct
    /// endpoint: the reference the dense sweep in [`peak_bytes`] must
    /// equal.
    fn peak_bytes_reference(intervals: &[LiveInterval]) -> usize {
        let mut deltas: std::collections::BTreeMap<usize, i64> = Default::default();
        for iv in intervals {
            *deltas.entry(iv.start).or_insert(0) += iv.bytes as i64;
            *deltas.entry(iv.end + 1).or_insert(0) -= iv.bytes as i64;
        }
        let mut live = 0i64;
        let mut peak = 0i64;
        for (_, d) in deltas {
            live += d;
            peak = peak.max(live);
        }
        peak as usize
    }

    #[test]
    fn dense_peak_equals_the_map_reference_on_random_intervals() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        assert_eq!(peak_bytes(&[]), peak_bytes_reference(&[]));
        let mut rng = StdRng::seed_from_u64(0x5eed_7ea4);
        for case in 0..500 {
            let last_tick = rng.gen_range(0usize..200);
            let ivs: Vec<LiveInterval> = (0..rng.gen_range(1usize..40))
                .map(|i| {
                    let start = rng.gen_range(0..=last_tick);
                    // Every third interval lives for one tick, every third
                    // runs to the last tick, the rest end anywhere.
                    let end = match i % 3 {
                        0 => start,
                        1 => last_tick,
                        _ => rng.gen_range(start..=last_tick),
                    };
                    iv(i, BufClass::Act, rng.gen_range(0usize..1 << 30), start, end)
                })
                .collect();
            assert_eq!(peak_bytes(&ivs), peak_bytes_reference(&ivs), "case {case}: {ivs:?}");
        }
    }
}
