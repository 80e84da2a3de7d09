//! `fg-benchmark` — the repo's step-time benchmark.
//!
//! ```text
//! fg-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! fg-benchmark suite [--seed <n>] [--seconds <s>] [--sets <k>] [--out <file>]
//! fg-benchmark compare <base.json> <new.json>
//! ```
//!
//! The first form runs one workload in this process and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `README.md` beside this
//! package for the workloads, the metric glossary and the API surface
//! the benchmark depends on.

mod calib;
mod compare;
mod json;
mod live;
mod metrics;
mod plan;
mod replay;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use live::LiveKind;
use metrics::WORKLOADS;

/// The two communicator guards `scripts/ci.sh` runs the test suite
/// under; `resnet_mixed_guarded_p2` measures a step with both on.
pub const GUARD_ENV: [&str; 2] = ["FG_COMM_INTEGRITY", "FG_COMM_WATCHDOG"];
/// Worker-pool size of the discrete-event engine, pinned so that
/// `plan_paper_scale` does not change with the machine's core count.
const SIM_WORKERS: &str = "2";

/// Where run artifacts go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status (Linux)");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Arguments of a single-workload run.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// `--key value` pairs; every key in `keys` is optional here, the caller
/// decides which ones it requires.
fn parse_flags(args: &[String], keys: &[&str]) -> Result<Vec<Option<String>>, String> {
    let mut found = vec![None; keys.len()];
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let slot = keys.iter().position(|k| k == flag).ok_or(format!("unknown argument {flag}"))?;
        found[slot] = Some(it.next().ok_or(format!("{flag} needs a value"))?.clone());
    }
    Ok(found)
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let flags = parse_flags(args, &["--workload", "--seed", "--seconds", "--trace"])?;
    let need = |i: usize, name: &str| flags[i].clone().ok_or(format!("missing {name}"));
    let workload = need(0, "--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; choose one of {WORKLOADS:?}"));
    }
    let seed = need(1, "--seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = need(2, "--seconds")?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let trace = match need(3, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    Ok(RunArgs { workload, seed, seconds, trace })
}

/// Run one workload in this process.
fn run_workload(args: &RunArgs, epoch: Instant) -> ExitCode {
    // Pin the environment knobs the measured code reads, before any
    // thread exists: the guards only where the workload is defined with
    // them, the simulator's pool size always.
    let guarded = args.workload == "resnet_mixed_guarded_p2";
    for name in GUARD_ENV {
        if guarded {
            std::env::set_var(name, "1");
        } else {
            std::env::remove_var(name);
        }
    }
    std::env::set_var("FG_SIM_WORKERS", SIM_WORKERS);

    let live = match args.workload.as_str() {
        "mesh_sample_p2" => Some(LiveKind::MeshSample),
        "mesh_spatial_p2" => Some(LiveKind::MeshSpatial),
        "resnet_mixed_guarded_p2" => Some(LiveKind::ResnetMixed),
        "plan_paper_scale" => None,
        other => unreachable!("workload {other} passed validation"),
    };
    let (result, spans) = match live {
        Some(kind) => live::run(kind, args.seed, args.seconds, args.trace, epoch),
        None => plan::run(args.seconds, args.trace, epoch),
    };

    if args.trace {
        let path = out_dir().join(format!("trace-{}.json", args.workload));
        match trace::write_chrome(&path, &spans) {
            Ok(()) => eprintln!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        eprintln!("self time by span (ms, all ranks):");
        let mut own: Vec<_> = trace::self_time_ms(&spans).into_iter().collect();
        own.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, ms) in own.iter().take(12) {
            eprintln!("  {name:<40} {ms:>12.3}");
        }
    }
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    eprintln!(
        "{} seed {} trace {}: {} operations, {} failed, {} hardware threads",
        args.workload, args.seed, args.trace as u8, result.attempted, result.failed, threads
    );
    for p in &result.problems {
        eprintln!("incorrect: {p}");
    }
    for d in metrics::registry().iter().filter(|d| d.end_to_end != args.trace) {
        if let Some(v) = result.get(&d.name) {
            eprintln!("  {:<36} {v:>18.6} {}", d.name, d.unit);
        }
    }
    println!("{}", result.to_json_line(args.trace));
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_files(base: &str, new: &str) -> Result<ExitCode, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::parse_results(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (report, failed) = compare::compare(&load(base)?, &load(new)?);
    print!("{report}");
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

fn main() -> ExitCode {
    let epoch = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [base, new] => compare_files(base, new),
            _ => Err("usage: fg-benchmark compare <base.json> <new.json>".to_string()),
        },
        Some("suite") => suite::run(&args[1..]),
        _ => parse_run_args(&args).map(|a| run_workload(&a, epoch)),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("fg-benchmark: {message}");
        ExitCode::from(2)
    })
}
