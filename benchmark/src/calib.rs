//! Load compensation: a fixed piece of work, timed next to every
//! operation, that tells how fast the machine is running right now.
//!
//! The sandbox is a 2-vCPU guest on a shared host. Its speed moves by
//! 1.4–1.8× for minutes at a time (no steal time reported, nothing else
//! running in the guest), and it moves every wall clock with it: the
//! driver's first check of this benchmark saw ten runs of one build
//! spread by 30–48 % and their medians drift by 30 % between sets. No
//! statistic over the steps of a run removes a slow-down that lasts
//! longer than the run.
//!
//! So every timed operation is bracketed by two runs of [`Calibrator::run`]
//! on the thread(s) that execute it, and its wall time is scaled by
//! `REF_MS / (mean of the two calibration times)`: the time the operation
//! would have taken had the machine run at the speed of the quiet sizing
//! box. A change to the code under test moves the compensated time
//! exactly as it moves the wall time, because the calibration work is
//! frozen here and calls nothing from `crates/`; a change in machine
//! speed moves both clocks and cancels.
//!
//! The work is written in the style of what the workloads spend their
//! time in: a gather-form direct convolution with index arithmetic in the
//! inner loop (the shape of `conv2d_backward_data_region`, most of a live
//! step), then an ordered-map build and scan with small allocations (the
//! planner's search and event queues).

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// [`Calibrator::run`] time on the quiet sizing box (2 vCPUs of a
/// 2.1 GHz Sapphire Rapids host; medians of 24.7–25.5 ms with one or
/// both busy), ms. Compensated times are in milliseconds of that machine.
pub const REF_MS: f64 = 25.0;

const CHANNELS: usize = 14;
const SIDE: usize = 64;
const KERNEL: usize = 3;
const STRIDE: i64 = 2;
const MAP_KEYS: usize = 36_000;

/// Buffers of the calibration work, allocated once per thread so that a
/// run allocates only inside its map phase.
pub struct Calibrator {
    dy: Vec<f32>,
    w: Vec<f32>,
    dx: Vec<f32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// Allocate the buffers and run once unrecorded, so that the first
    /// recorded run does not pay for page faults and cold caches.
    pub fn new() -> Calibrator {
        let ramp = |n: usize| (0..n).map(|i| ((i * 37 % 101) as f32 - 50.0) / 64.0).collect();
        let mut calibrator = Calibrator {
            dy: ramp(CHANNELS * SIDE * SIDE),
            w: ramp(CHANNELS * CHANNELS * KERNEL * KERNEL),
            dx: vec![0.0; CHANNELS * (SIDE * STRIDE as usize) * (SIDE * STRIDE as usize)],
        };
        calibrator.run();
        calibrator
    }

    /// Do the fixed work once; returns its wall time in ms.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.conv_phase());
        black_box(map_phase());
        t.elapsed().as_secs_f64() * 1e3
    }

    /// Transposed (stride-2) 3×3 convolution in gather form: every input
    /// position collects from the outputs that read it.
    fn conv_phase(&mut self) -> f32 {
        let out = SIDE as i64;
        let side_in = SIDE * STRIDE as usize;
        self.dx.fill(0.0);
        for c in 0..CHANNELS {
            for ih in 0..side_in {
                let dx_base = (c * side_in + ih) * side_in;
                for r in 0..KERNEL {
                    let t = ih as i64 + 1 - r as i64;
                    if t < 0 || t % STRIDE != 0 || t / STRIDE >= out {
                        continue;
                    }
                    let oh = (t / STRIDE) as usize;
                    for f in 0..CHANNELS {
                        let w_base = ((f * CHANNELS + c) * KERNEL + r) * KERNEL;
                        let dy_base = (f * SIDE + oh) * SIDE;
                        for iw in 0..side_in {
                            let mut acc = 0.0f32;
                            for s in 0..KERNEL {
                                let u = iw as i64 + 1 - s as i64;
                                if u < 0 || u % STRIDE != 0 || u / STRIDE >= out {
                                    continue;
                                }
                                acc +=
                                    self.dy[dy_base + (u / STRIDE) as usize] * self.w[w_base + s];
                            }
                            self.dx[dx_base + iw] += acc;
                        }
                    }
                }
            }
        }
        self.dx.iter().sum()
    }
}

/// Build an ordered map of small vectors under pseudo-random keys, then
/// walk it in order.
fn map_phase() -> u64 {
    let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut key = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..MAP_KEYS as u64 {
        key = key.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        map.entry(key >> 44).or_default().push(i);
    }
    map.iter().fold(0u64, |acc, (k, v)| acc.wrapping_mul(31).wrapping_add(k ^ v.len() as u64))
}

/// Wall time `wall` of an operation, as the quiet sizing box would
/// have measured it: scaled by [`REF_MS`] over the mean of `calib_ms`,
/// the calibration runs that bracket the operation (before and after it,
/// on every thread that executes it). The unit of `wall` is kept.
pub fn compensate(wall: f64, calib_ms: &[f64]) -> f64 {
    wall * REF_MS / (calib_ms.iter().sum::<f64>() / calib_ms.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compensation_cancels_a_uniform_slow_down() {
        let quiet = compensate(300.0, &[REF_MS, REF_MS]);
        let slow = compensate(300.0 * 1.6, &[REF_MS * 1.6; 4]);
        assert_eq!(quiet, 300.0);
        assert!((slow - quiet).abs() < 1e-9);
        // A slow-down that sets in during the operation is seen by the
        // second calibration run only, and half of it is taken out.
        assert!((compensate(300.0, &[REF_MS, 3.0 * REF_MS]) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn calibration_work_is_deterministic_and_not_optimised_away() {
        let mut c = Calibrator::new();
        let first = c.conv_phase();
        assert_eq!(first.to_bits(), c.conv_phase().to_bits());
        assert!(first != 0.0 && first.is_finite());
        assert_eq!(map_phase(), map_phase());
        assert!(c.run() > 0.0);
    }
}
