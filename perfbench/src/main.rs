//! The repository benchmark: one command per workload that measures the
//! end-to-end metrics (untraced) or the per-layer metrics (traced), checks
//! the program's outputs, and prints one JSON result as its last line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ask|etl|stream --seed N --seconds S --trace 0|1
//! ```
//!
//! See `perfbench/NOTES.md` for what each workload exercises and bypasses.

mod ask;
mod etl;
mod probe;
mod report;
mod stats;
mod stream;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// Measuring time: workloads run whole units of work (sessions, passes,
    /// streams) that fit in it, and always at least one.
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans (`None` = keep in memory only).
    pub out_dir: Option<PathBuf>,
}

/// How many times each run sets up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Runs `f` [`SETUP_REPEATS`] times, recording each duration in `samples`,
/// and returns the last result.
pub fn repeated_setup<T>(
    samples: &mut Vec<f64>,
    mut f: impl FnMut() -> aryn_core::Result<T>,
) -> aryn_core::Result<T> {
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        last = Some(f()?);
        samples.push(t.elapsed().as_secs_f64());
    }
    Ok(last.expect("SETUP_REPEATS is at least one"))
}

/// Runs units of work (sessions, passes, streams) numbered from 0: at least
/// `min_units`, then more while the next one, at the mean duration of those
/// so far, would still end within `seconds`.
pub fn run_units<T>(
    seconds: f64,
    min_units: usize,
    mut unit: impl FnMut(usize) -> aryn_core::Result<T>,
) -> aryn_core::Result<Vec<T>> {
    let start = Instant::now();
    let mut done = Vec::new();
    loop {
        let k = done.len();
        if k >= min_units.max(1) {
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed + elapsed / k as f64 > seconds {
                return Ok(done);
            }
        }
        done.push(unit(k)?);
    }
}

fn usage() -> String {
    "usage: perfbench --workload ask|etl|stream --seed N --seconds S --trace 0|1".into()
}

fn parse_args() -> Result<(String, RunCfg), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    let cfg = RunCfg {
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
        out_dir: Some(PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))),
    };
    Ok((workload, cfg))
}

fn run(workload: &str, cfg: &RunCfg) -> Result<Report, String> {
    let out = match workload {
        "ask" => ask::run(cfg, &ask::Size::FULL),
        "etl" => etl::run(cfg, &etl::Size::FULL),
        "stream" => stream::run(cfg, &stream::Size::FULL),
        other => return Err(format!("unknown workload {other:?}\n{}", usage())),
    };
    out.map_err(|e| format!("{workload}: {e}"))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&workload, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match report.render(cfg.trace) {
        Ok((human, json)) => {
            print!("{human}");
            println!("{json}");
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
