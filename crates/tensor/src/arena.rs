//! Tensor-liveness intervals, interval-graph coloring into a memory
//! plan, and the per-rank step arena that executes it.
//!
//! The memory analyzer (fg-core's `mem` module) walks a rank's compiled
//! forward/backward schedule and records every buffer the step touches
//! as a [`LiveInterval`] on a discrete tick line: layer `L` of an
//! `n`-layer network computes forward at tick `L` and backward at tick
//! `2n - 1 - L`, so one training step spans ticks `0 ..= 2n - 1`. Two
//! things come out of that interval list:
//!
//! * an **exact peak**: sweep the tick line summing live bytes
//!   ([`peak_bytes`]) — the static per-rank memory bound;
//! * a **memory plan**: interval-graph coloring of the arena-managed
//!   intervals ([`MemPlan::color`]) assigning each to a reusable slot.
//!   Greedy first-fit over start-sorted intervals is optimal for
//!   interval graphs, so the slot count (and arena size) is minimal.
//!
//! [`StepArena`] executes a plan at runtime: per-slot recycled buffers
//! preallocated to the slot capacity, with checkout tracking and a
//! high-water mark so every executed step can assert
//! `measured_peak <= static_bound`. [`check_mem_plan`] is the static
//! soundness gate: overlapping intervals must not share a slot, no
//! interval may exceed its slot's capacity, and the declared arena size
//! must cover the slots.

use std::fmt;

/// Bytes per element; every runtime buffer in the workspace is `f32`.
pub const ELT_BYTES: usize = 4;

/// What a recorded buffer holds. Classes partition the analyzer's
/// accounting so bounds can be decomposed (activations vs staging vs
/// persistent state) and so the arena knows which buffers it manages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BufClass {
    /// A layer's output activation, live from its forward tick until
    /// its backward tick (it is a backward input).
    Act,
    /// A backward error signal (dL/dy accumulator for one layer).
    Err,
    /// A haloed input window built in forward and kept for backward.
    /// Arena-managed.
    Window,
    /// The transient dy window built inside backward. Arena-managed.
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

    /// Whether buffers of this class draw their storage from the step
    /// arena. Only the haloed windows do today: they are the largest
    /// step-transient buffers. Everything else is still *accounted*
    /// (the static bound covers all classes) but allocated
    /// conventionally.
    pub fn arena_managed(self) -> bool {
        matches!(self, BufClass::Window | BufClass::DyWindow)
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

impl LiveInterval {
    /// Inclusive-interval overlap test.
    pub fn overlaps(&self, other: &LiveInterval) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Whether the step arena manages this buffer's storage.
    pub fn managed(&self) -> bool {
        self.class.arena_managed()
    }
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
/// of bytes live at that tick. This is the static per-rank bound the
/// runtime high-water mark is checked against. Costs O(intervals + last
/// tick): a step's tick line is two ticks per layer.
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

/// One arena-managed interval's slot assignment within a [`MemPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotAssign {
    /// The managed interval (a copy — plans are self-contained so they
    /// can be checked, serialized, and corrupted by mutation tests
    /// independently of the analyzer's full interval list).
    pub interval: LiveInterval,
    /// Arena slot the buffer draws its storage from.
    pub slot: usize,
}

/// Slot assignments and arena sizing for one rank's step: the product
/// of interval-graph coloring, executed by [`StepArena`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemPlan {
    /// One entry per arena-managed interval.
    pub assigns: Vec<SlotAssign>,
    /// Capacity of each slot in bytes (max over its intervals).
    pub slot_bytes: Vec<usize>,
    /// Total arena size in bytes (sum of slot capacities).
    pub arena_bytes: usize,
}

impl MemPlan {
    /// Color the arena-managed intervals of `intervals` into slots.
    /// Greedy first-fit over start-sorted intervals: a slot is free for
    /// an interval iff the last interval placed there ended strictly
    /// before the new one starts (ticks are inclusive). For interval
    /// graphs this greedy is optimal, so `slot_bytes.len()` equals the
    /// maximum number of simultaneously-live managed buffers.
    pub fn color(intervals: &[LiveInterval]) -> MemPlan {
        let mut managed: Vec<LiveInterval> =
            intervals.iter().filter(|iv| iv.managed()).cloned().collect();
        managed.sort_by_key(|iv| (iv.start, iv.end, iv.layer));
        let mut last_end: Vec<usize> = Vec::new();
        let mut slot_bytes: Vec<usize> = Vec::new();
        let mut assigns = Vec::with_capacity(managed.len());
        for iv in managed {
            let slot = match last_end.iter().position(|&end| end < iv.start) {
                Some(s) => {
                    last_end[s] = iv.end;
                    slot_bytes[s] = slot_bytes[s].max(iv.bytes);
                    s
                }
                None => {
                    last_end.push(iv.end);
                    slot_bytes.push(iv.bytes);
                    last_end.len() - 1
                }
            };
            assigns.push(SlotAssign { interval: iv, slot });
        }
        let arena_bytes = slot_bytes.iter().sum();
        MemPlan { assigns, slot_bytes, arena_bytes }
    }

    /// The slot assigned to `(layer, class)`, if that buffer is in the
    /// plan. Each layer has at most one managed buffer per class.
    pub fn slot_for(&self, layer: usize, class: BufClass) -> Option<usize> {
        self.assigns
            .iter()
            .find(|a| a.interval.layer == layer && a.interval.class == class)
            .map(|a| a.slot)
    }
}

/// A violation found by [`check_mem_plan`]: the plan, executed as
/// written, would corrupt or exceed memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemPlanIssue {
    /// Two live-overlapping intervals share a slot.
    SlotOverlap { slot: usize, a: LiveInterval, b: LiveInterval },
    /// An interval is larger than its slot's declared capacity.
    SlotUndersized { slot: usize, interval: LiveInterval, cap_bytes: usize },
    /// The declared arena size does not cover the slot capacities.
    ArenaUndersized { need_bytes: usize, declared_bytes: usize },
}

impl fmt::Display for MemPlanIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemPlanIssue::SlotOverlap { slot, a, b } => {
                write!(f, "slot {slot} double-booked: [{a}] overlaps [{b}]")
            }
            MemPlanIssue::SlotUndersized { slot, interval, cap_bytes } => {
                write!(f, "slot {slot} capacity {cap_bytes} B under interval [{interval}]")
            }
            MemPlanIssue::ArenaUndersized { need_bytes, declared_bytes } => {
                write!(f, "arena declared {declared_bytes} B but slots need {need_bytes} B")
            }
        }
    }
}

/// Statically check a [`MemPlan`] for soundness. Returns every issue
/// found (empty means the plan is safe to execute).
pub fn check_mem_plan(plan: &MemPlan) -> Vec<MemPlanIssue> {
    let mut issues = Vec::new();
    for (i, a) in plan.assigns.iter().enumerate() {
        for b in &plan.assigns[i + 1..] {
            if a.slot == b.slot && a.interval.overlaps(&b.interval) {
                issues.push(MemPlanIssue::SlotOverlap {
                    slot: a.slot,
                    a: a.interval.clone(),
                    b: b.interval.clone(),
                });
            }
        }
        let cap = plan.slot_bytes.get(a.slot).copied().unwrap_or(0);
        if a.interval.bytes > cap {
            issues.push(MemPlanIssue::SlotUndersized {
                slot: a.slot,
                interval: a.interval.clone(),
                cap_bytes: cap,
            });
        }
    }
    let need: usize = plan.slot_bytes.iter().sum();
    if need > plan.arena_bytes {
        issues.push(MemPlanIssue::ArenaUndersized {
            need_bytes: need,
            declared_bytes: plan.arena_bytes,
        });
    }
    issues
}

/// Runtime executor of a [`MemPlan`]: per-slot recycled `f32` buffers
/// preallocated to the slot capacity, so the step's hot path performs
/// no heap allocation after the first use of each slot. Checkout is
/// tracked per slot (double-checkout and over-capacity requests panic
/// with the slot named), and a byte high-water mark lets callers assert
/// `measured_peak() <= static bound` after every step.
#[derive(Debug)]
pub struct StepArena {
    /// Capacity of each slot in elements.
    slot_elems: Vec<usize>,
    /// Recycled storage per slot; `None` while checked out.
    free: Vec<Option<Vec<f32>>>,
    arena_bytes: usize,
    /// Bytes currently checked out.
    outstanding: usize,
    /// High-water mark of `outstanding`.
    peak: usize,
}

impl StepArena {
    /// Build the arena for `plan`, preallocating every slot to its
    /// capacity.
    pub fn new(plan: &MemPlan) -> StepArena {
        let slot_elems: Vec<usize> =
            plan.slot_bytes.iter().map(|b| b.div_ceil(ELT_BYTES)).collect();
        let free = slot_elems.iter().map(|&e| Some(Vec::with_capacity(e))).collect();
        StepArena { slot_elems, free, arena_bytes: plan.arena_bytes, outstanding: 0, peak: 0 }
    }

    /// Check out slot `slot` as a buffer of `elems` elements (length 0,
    /// capacity at least `elems`; zero-fill via [`Tensor::zeros_in`]).
    /// Panics if the slot is already checked out or `elems` exceeds the
    /// slot capacity — both are memory-plan violations the static
    /// checker should have caught.
    ///
    /// [`Tensor::zeros_in`]: crate::Tensor::zeros_in
    pub fn alloc(&mut self, slot: usize, elems: usize) -> Vec<f32> {
        assert!(
            elems <= self.slot_elems[slot],
            "arena slot {slot}: requested {elems} elems exceeds capacity {}",
            self.slot_elems[slot]
        );
        let buf = self.free[slot]
            .take()
            .unwrap_or_else(|| panic!("arena slot {slot} already checked out"));
        self.outstanding += elems * ELT_BYTES;
        self.peak = self.peak.max(self.outstanding);
        buf
    }

    /// Return a buffer to its slot. The buffer's length must equal the
    /// element count it was checked out for.
    pub fn release(&mut self, slot: usize, buf: Vec<f32>) {
        assert!(self.free[slot].is_none(), "arena slot {slot} released while free");
        self.outstanding -= buf.len() * ELT_BYTES;
        self.free[slot] = Some(buf);
    }

    /// Total arena capacity in bytes.
    pub fn arena_bytes(&self) -> usize {
        self.arena_bytes
    }

    /// Bytes currently checked out.
    pub fn outstanding_bytes(&self) -> usize {
        self.outstanding
    }

    /// High-water mark of checked-out bytes since construction.
    pub fn measured_peak(&self) -> usize {
        self.peak
    }
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

    #[test]
    fn coloring_reuses_slots_for_disjoint_intervals() {
        // Two disjoint windows share a slot; an overlapping third needs
        // its own.
        let ivs = [
            iv(0, BufClass::Window, 100, 0, 1),
            iv(1, BufClass::Window, 80, 2, 3),
            iv(2, BufClass::DyWindow, 60, 1, 2),
            // Unmanaged classes never enter the plan.
            iv(3, BufClass::Act, 1000, 0, 3),
        ];
        let plan = MemPlan::color(&ivs);
        assert_eq!(plan.assigns.len(), 3);
        assert_eq!(plan.slot_bytes.len(), 2);
        let s0 = plan.slot_for(0, BufClass::Window).unwrap();
        let s1 = plan.slot_for(1, BufClass::Window).unwrap();
        let s2 = plan.slot_for(2, BufClass::DyWindow).unwrap();
        assert_eq!(s0, s1, "disjoint intervals share a slot");
        assert_ne!(s0, s2, "overlapping intervals get distinct slots");
        // Shared slot sized to the max of its intervals.
        assert_eq!(plan.slot_bytes[s0], 100);
        assert_eq!(plan.arena_bytes, 160);
        assert!(check_mem_plan(&plan).is_empty());
    }

    #[test]
    fn coloring_is_optimal_on_interval_graphs() {
        // Max clique = 3 simultaneously-live windows → exactly 3 slots.
        let ivs: Vec<_> = (0..6).map(|i| iv(i, BufClass::Window, 10, i, i + 2)).collect();
        let plan = MemPlan::color(&ivs);
        assert_eq!(plan.slot_bytes.len(), 3);
        assert!(check_mem_plan(&plan).is_empty());
    }

    #[test]
    fn checker_flags_each_corruption_class() {
        let ivs = [iv(0, BufClass::Window, 100, 0, 2), iv(1, BufClass::DyWindow, 100, 1, 3)];
        let clean = MemPlan::color(&ivs);
        assert!(check_mem_plan(&clean).is_empty());

        // Overlapping intervals forced onto one slot.
        let mut overlap = clean.clone();
        let s = overlap.assigns[0].slot;
        overlap.assigns[1].slot = s;
        assert!(check_mem_plan(&overlap)
            .iter()
            .any(|i| matches!(i, MemPlanIssue::SlotOverlap { .. })));

        // A slot capacity understated below its interval.
        let mut small = clean.clone();
        small.slot_bytes[0] = 4;
        assert!(check_mem_plan(&small)
            .iter()
            .any(|i| matches!(i, MemPlanIssue::SlotUndersized { .. })));

        // Declared arena below the slot total.
        let mut arena = clean.clone();
        arena.arena_bytes = 8;
        assert!(check_mem_plan(&arena)
            .iter()
            .any(|i| matches!(i, MemPlanIssue::ArenaUndersized { .. })));
    }

    #[test]
    fn arena_recycles_storage_and_tracks_peak() {
        let ivs = [iv(0, BufClass::Window, 400, 0, 2), iv(1, BufClass::DyWindow, 200, 3, 3)];
        let plan = MemPlan::color(&ivs);
        let mut arena = StepArena::new(&plan);
        assert_eq!(arena.arena_bytes(), plan.arena_bytes);

        let s0 = plan.slot_for(0, BufClass::Window).unwrap();
        let mut buf = arena.alloc(s0, 100);
        let first_ptr = {
            buf.resize(100, 0.0);
            buf.as_ptr()
        };
        assert_eq!(arena.outstanding_bytes(), 400);
        arena.release(s0, buf);
        assert_eq!(arena.outstanding_bytes(), 0);

        // Second checkout reuses the same heap block (no allocation).
        let buf2 = arena.alloc(s0, 100);
        assert_eq!(buf2.as_ptr(), first_ptr);
        arena.release(s0, buf2);
        assert_eq!(arena.measured_peak(), 400);
    }

    #[test]
    #[should_panic(expected = "already checked out")]
    fn double_checkout_panics() {
        let plan = MemPlan::color(&[iv(0, BufClass::Window, 40, 0, 1)]);
        let mut arena = StepArena::new(&plan);
        let _a = arena.alloc(0, 10);
        let _b = arena.alloc(0, 10);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn over_capacity_checkout_panics() {
        let plan = MemPlan::color(&[iv(0, BufClass::Window, 40, 0, 1)]);
        let mut arena = StepArena::new(&plan);
        let _ = arena.alloc(0, 11);
    }
}
