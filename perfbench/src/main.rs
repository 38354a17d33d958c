//! NDSEARCH end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch_paper|serve_int8|mixed_sharded> --seed <n> \
//!     --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! One run sets the workload up three times (`setup_s` is the median),
//! repeats its measured phase for `--seconds` host seconds (`host_run_s`
//! is the median), checks every repetition's simulated output is
//! bit-identical, checks the outputs, and prints a human-readable report
//! followed by one JSON result line. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` alternates untraced and traced repetitions and
//! reports the per-layer metrics, writing the spans to
//! `perfbench/out/<workload>-seed<seed>.trace.json`.

mod batch_paper;
mod calib;
mod harness;
mod metrics;
mod mixed_sharded;
mod serve_int8;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;

use harness::{Opts, Outcome};

const WORKLOADS: [&str; 3] = ["batch_paper", "serve_int8", "mixed_sharded"];
const DEFAULT_SEED: u64 = 1;

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--smoke]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {:?}", opts.workload));
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(opts)
}

/// The build and host this result came from.
fn environment() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let exec_threads = ndsearch_core::exec::default_threads();
    let simd = if ndsearch_vector::distance::simd_enabled() {
        "avx2+fma"
    } else {
        "portable"
    };
    let rustc = std::process::Command::new(std::env::var("RUSTC").unwrap_or("rustc".into()))
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    format!(
        "env: nproc={nproc} exec_threads={exec_threads} simd={simd} rustc=\"{rustc}\" commit={}",
        git_commit()
    )
}

/// The commit checked out in the working directory, read from `.git`
/// directly (no `git` process; nothing outside the checkout).
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (no .git in the working directory)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

fn run(opts: &Opts) -> Outcome {
    match opts.workload.as_str() {
        "batch_paper" => harness::run(&batch_paper::BatchPaper::new(opts), opts),
        "serve_int8" => harness::run(&serve_int8::ServeInt8::new(opts), opts),
        "mixed_sharded" => harness::run(&mixed_sharded::MixedSharded::new(opts), opts),
        other => unreachable!("workload {other} passed validation"),
    }
}

/// JSON has no non-finite numbers.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        metrics::INFINITELY_LATE_US
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    // Each NDSEARCH_* override changes the program being measured.
    let overrides: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("NDSEARCH_"))
        .collect();
    if !overrides.is_empty() {
        eprintln!(
            "error: refusing to run with {} set: the overrides change the measured program",
            overrides.join(", ")
        );
        return ExitCode::from(3);
    }

    println!("{}", environment());
    println!(
        "workload={} seed={} seconds={} trace={} smoke={}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8, opts.smoke
    );
    let out = run(&opts);
    for note in &out.notes {
        println!("note: {note}");
    }
    for c in &out.checks {
        println!(
            "check {:<32} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }

    let reported = if opts.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    for (name, unit) in metrics::END_TO_END.iter().chain(metrics::PER_LAYER) {
        if let Some(v) = out.values.get(name) {
            println!("metric {name:<36} {v:>22} {unit}");
        }
    }
    let mut json = String::new();
    for (i, (name, unit)) in reported.iter().enumerate() {
        let v = finite(out.values.get(name).copied().unwrap_or(0.0));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    let correct = out.checks.iter().all(|c| c.ok);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.attempted.max(1),
        out.failed
    );
    ExitCode::SUCCESS
}
