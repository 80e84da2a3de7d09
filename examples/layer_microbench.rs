//! Layer microbenchmark demo (Figs. 2–3): the modeled per-layer
//! forward/backward times of the paper's four benchmark layers under
//! every parallelization scheme, plus a live distributed execution of a
//! scaled-down layer on the thread-simulated communicator with its
//! traffic statistics.
//!
//! ```text
//! cargo run --release --example layer_microbench
//! ```

use std::time::Instant;

use finegrain::comm::{run_ranks, Collectives, Communicator, OpClass};
use finegrain::core::distconv::InteriorPlan;
use finegrain::core::DistConv2d;
use finegrain::kernels::ConvGeometry;
use finegrain::perf::Platform;
use finegrain::tensor::{DistTensor, ProcGrid, Shape4, Tensor};

use fg_bench::experiments::microbench::{layer_series, paper_layers};

fn main() {
    let platform = Platform::lassen_like();

    println!("modeled layer microbenchmarks (Lassen-like V100 model), N = samples/group:\n");
    for (name, desc, ns) in paper_layers() {
        let n = ns[0];
        println!(
            "{name} (C={} H={} W={} F={} K={} S={}), N={n}:",
            desc.c, desc.h, desc.w, desc.f, desc.k, desc.s
        );
        println!("  {:>14} {:>12} {:>12}", "scheme", "FP", "BP");
        for p in layer_series(&platform, &desc, n, 16) {
            if p.gpus == 16 || (p.scheme == 1 && p.gpus == 1) {
                println!(
                    "  {:>10} @{:>2}G {:>10.3}ms {:>10.3}ms",
                    format!("{}/sample", p.scheme),
                    p.gpus,
                    p.fp * 1e3,
                    p.bp * 1e3
                );
            }
        }
        println!();
    }

    // Live execution: a conv1_1-like layer at 1/16 scale on 4 ranks.
    println!("live distributed execution (thread-sim, 4 ranks, conv1_1-like at 128x128):");
    let geom = ConvGeometry::square(128, 128, 5, 2, 2);
    for (label, grid) in [
        ("1 GPU/sample (sample parallel)", ProcGrid::sample(4)),
        ("2 GPUs/sample (hybrid)", ProcGrid::hybrid(2, 2, 1)),
        ("4 GPUs/sample (spatial 2x2)", ProcGrid::spatial(2, 2)),
    ] {
        let conv = DistConv2d::new(4, 18, 16, geom, grid);
        let x = Tensor::from_fn(Shape4::new(4, 18, 128, 128), |n, c, h, w| {
            ((n + c + h + w) % 7) as f32 * 0.1
        });
        let w = Tensor::from_fn(Shape4::new(16, 18, 5, 5), |f, c, r, s| {
            ((f + c + r + s) % 5) as f32 * 0.05
        });
        // Plans are compiled once, outside the timed region, as the
        // executor compiles them; the timer covers the forward pass the
        // step runs (halo overlapped with the interior compute).
        let (stats, secs): (Vec<_>, Vec<f64>) = run_ranks(4, |comm| {
            let rank = comm.rank();
            let (x_halo, interior) = (conv.x_halo_plan(rank), InteriorPlan::build(&conv, rank));
            let xs = DistTensor::from_global(conv.in_dist.clone(), rank, &x, [0; 4], [0; 4]);
            comm.barrier();
            let start = Instant::now();
            let _ = conv.forward(comm, &xs, &w, &x_halo, &interior);
            comm.barrier();
            (comm.stats(), start.elapsed().as_secs_f64())
        })
        .into_iter()
        .unzip();
        let elapsed = secs.into_iter().fold(0.0, f64::max);
        let halo_bytes: u64 = stats.iter().map(|s| s.bytes(OpClass::Halo)).sum();
        let halo_msgs: u64 = stats.iter().map(|s| s.messages(OpClass::Halo)).sum();
        println!(
            "  {label:<34} wall {:>7.1} ms | halo: {halo_msgs:>2} msgs, {:>8} bytes",
            elapsed * 1e3,
            halo_bytes
        );
    }
    println!("\n(ranks are threads sharing the host's cores, so wall time depends on how many");
    println!(" cores it has; the halo columns show the communication the schemes trade for");
    println!(" parallelism — zero for sample parallel.)");
}
