//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--md] <experiment>...
//!
//! experiments:
//!   fig2      ResNet-50 layer microbenchmarks (conv1, res3b_branch2a)
//!   fig3      2K mesh layer microbenchmarks (conv1_1, conv6_1)
//!   fig4      mesh model weak scaling, 4..2048 GPUs
//!   tab1      1K mesh strong scaling
//!   tab2      2K mesh strong scaling
//!   tab3      ResNet-50 strong scaling
//!   modelval  performance-model validation (kernel fit + traffic)
//!   strategy  strategy optimizer demonstration
//!   ext       extensions: modeled overlap ablation, memory-footprint arithmetic
//!   faults    fault-injection overhead + recovery cost vs ckpt interval
//!   verify    static schedule verification sweep (models × strategies × grids)
//!   simscale  executed discrete-event runs at paper scale (writes BENCH_simscale.json)
//!   memscale  static per-rank peak-memory bounds vs world size (writes BENCH_memory.json)
//!   stragglers gray-failure mitigation at paper scale (writes BENCH_stragglers.json)
//!   serve     serving tier: latency/goodput under load and chaos (writes BENCH_serving.json)
//!   ckptstore durable checkpoint store: redundancy cost + storage-chaos recovery (writes BENCH_ckpt.json)
//!   all       everything above
//! ```
//!
//! Timed results come from the calibrated Lassen-like performance model
//! (the same model the paper validates in §VI-B3); `modelval` grounds
//! the model against real execution on the thread-simulated
//! communicator. See EXPERIMENTS.md for paper-vs-reproduction notes.

use fg_bench::experiments::{
    ckptstore, extensions, faults, memscale, microbench, modelval, resnet, scaling, serve,
    simscale, stragglers, strategy, verify,
};
use fg_bench::table::Table;
use fg_models::MeshSize;
use fg_perf::Platform;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let md = args.iter().any(|a| a == "--md");
    let wanted: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    let wanted: Vec<&str> = if wanted.is_empty() || wanted.contains(&"all") {
        vec![
            "fig2",
            "fig3",
            "fig4",
            "tab1",
            "tab2",
            "tab3",
            "modelval",
            "strategy",
            "ext",
            "faults",
            "verify",
            "simscale",
            "memscale",
            "stragglers",
            "serve",
            "ckptstore",
        ]
    } else {
        wanted
    };
    let platform = Platform::lassen_like();

    let mut tables: Vec<Table> = Vec::new();
    for exp in &wanted {
        match *exp {
            "fig2" => tables.extend(microbench::fig2(&platform)),
            "fig3" => tables.extend(microbench::fig3(&platform)),
            "fig4" => {
                tables.push(scaling::fig4(&platform, MeshSize::OneK));
                tables.push(scaling::fig4(&platform, MeshSize::TwoK));
            }
            "tab1" => tables.push(scaling::table1(&platform)),
            "tab2" => tables.push(scaling::table2(&platform)),
            "tab3" => tables.push(resnet::table3(&platform)),
            "modelval" => tables.extend(modelval::modelval(&platform)),
            "strategy" => tables.push(strategy::strategy_report(&platform)),
            "ext" => tables.extend(extensions::extensions(&platform)),
            "faults" => tables.extend(faults::faults()),
            "verify" => tables.push(verify::verify_report(&platform)),
            "simscale" => tables.push(simscale::simscale_report(&platform)),
            "memscale" => tables.push(memscale::memscale_report()),
            "stragglers" => tables.extend(stragglers::stragglers_report(&platform)),
            "serve" => tables.push(serve::serve_report()),
            "ckptstore" => tables.extend(ckptstore::ckptstore_report()),
            other => {
                eprintln!("unknown experiment '{other}'; see --help in the module docs");
                std::process::exit(2);
            }
        }
    }
    for t in &tables {
        if md {
            println!("{}", t.to_markdown());
        } else {
            println!("{}", t.to_text());
        }
    }
}
