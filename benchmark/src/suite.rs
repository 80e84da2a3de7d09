//! `fg-benchmark suite`: every workload, untraced then traced, each in
//! its own child process (so `peak_rss_mb` belongs to one workload),
//! collected into one result file that `compare` reads.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::json;
use crate::metrics::WORKLOADS;
use crate::{out_dir, parse_flags};

/// Run the suite; `args` are the flags after `suite`.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["--seed", "--seconds", "--sets", "--out"])?;
    let num = |i: usize, default: u64, name: &str| match &flags[i] {
        Some(v) => v.parse::<u64>().map_err(|e| format!("{name}: {e}")),
        None => Ok(default),
    };
    let (seed, seconds, sets) =
        (num(0, 1, "--seed")?, num(1, 20, "--seconds")?, num(2, 1, "--sets")?);
    let out = flags[3].clone().map_or_else(|| out_dir().join("result.json"), PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;

    let mut runs = Vec::new();
    let mut all_ok = true;
    for set in 0..sets {
        for trace in [0u8, 1] {
            for workload in WORKLOADS {
                let seed = seed + set;
                eprintln!("== {workload} seed {seed} trace {trace}");
                let child = Command::new(&exe)
                    .args(["--workload", workload])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&child.stdout);
                let line = stdout.lines().last().unwrap_or("");
                all_ok &= child.status.success();
                // A child that died without a result line leaves a hole
                // the comparison must see, not a run that is skipped.
                let result = match json::parse(line) {
                    Ok(_) => line.to_string(),
                    Err(_) => {
                        all_ok = false;
                        "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
                            .to_string()
                    }
                };
                let mut run = String::from("    {\"workload\": ");
                json::write_str(&mut run, workload);
                run.push_str(&format!(
                    ", \"trace\": {trace}, \"seed\": {seed}, \"result\": {result}}}"
                ));
                runs.push(run);
            }
        }
    }
    let doc = format!(
        "{{\"seconds\": {seconds}, \"sets\": {sets}, \"runs\": [\n{}\n]}}\n",
        runs.join(",\n")
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc).map_err(|e| format!("{}: {e}", out.display()))?;
    eprintln!("results written to {}", out.display());
    Ok(if all_ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}
