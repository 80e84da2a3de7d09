//! # fg-bench — evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§VI)
//! from the reproduction stack: per-layer microbenchmarks (Figs. 2–3),
//! mesh-model strong/weak scaling (Tables I–II, Fig. 4), ResNet-50
//! strong scaling (Table III), performance-model validation (§VI-B3),
//! and the strategy optimizer (§V-C).
//!
//! Run `cargo run --release -p fg-bench --bin repro -- all` to print
//! everything; see DESIGN.md for the per-experiment index and
//! EXPERIMENTS.md for the paper-vs-reproduction comparison. The
//! machine-readable `BENCH_*.json` files are written and read through
//! [`bench_file`].

pub mod bench_file;
pub mod experiments;
pub mod table;
