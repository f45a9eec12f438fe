//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <aramco|takedown|jobs|natanz_trace> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one line per metric for people, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0`
//! the metrics are the end-to-end ones, with `--trace 1` the per-layer ones.
//! Files go under `.perfbench_work/` in the working directory and are
//! removed before exit.

use std::path::Path;
use std::process::ExitCode;

use malsim_perfbench::{run, workload, Report};

const WORK_DIR: &str = ".perfbench_work";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line: numbers as measured, with all their digits.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.verdict.failed == 0,
        report.verdict.attempted,
        report.verdict.failed,
        metrics.join(", ")
    )
}

/// Makes glibc's malloc keep freed memory instead of handing it back to the
/// kernel. By default it unmaps large blocks and trims heap tops on free, so
/// every new world faults its pages in again. On a shared virtual machine
/// the cost of a page fault swings with the host's load: the `jobs`
/// workload took 230,000 to 755,000 faults per 5 s run and spent a fifth to
/// a half of its CPU time in the kernel. With freed memory kept, the faults drop to about
/// 7,000 (first touch only), and the timings follow the program's own work.
///
/// The arena cap (the main thread plus the two workers of `jobs`) keeps a
/// worker that starts while the previous run's workers are still exiting
/// from opening a fresh arena, which would raise the peak memory of a run
/// by chance.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_TOP_PAD: i32 = -2;
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two plain integers and only adjusts malloc's
    // tuning parameters; it is called before this process starts any thread
    // or allocates anything large. The values are within glibc's documented
    // ranges (the mmap threshold's maximum is 32 MiB on 64-bit targets).
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_TOP_PAD, 64 << 20);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_ARENA_MAX, 1 + malsim_perfbench::jobs::WORKERS as i32);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

fn main() -> ExitCode {
    keep_freed_memory();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let work_dir = Path::new(WORK_DIR);
    let report = {
        let mut w = match workload(&args.workload, args.seed, work_dir) {
            Ok(w) => w,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        };
        run(w.as_mut(), args.seconds, args.trace)
    };
    // Removes the directory only if the workload left it empty.
    let _ = std::fs::remove_dir(work_dir);

    if let Some(bad) = report.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("error: metric {} is not a number ({})", bad.name, bad.value);
        return ExitCode::FAILURE;
    }
    for problem in &report.verdict.problems {
        eprintln!("check failed: {problem}");
    }
    let v = &report.verdict;
    println!(
        "{} seed {} trace {}: {} of {} operations failed (failed_frac {})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        v.failed,
        v.attempted,
        v.failed as f64 / v.attempted.max(1) as f64
    );
    for m in &report.metrics {
        println!("  {:<28} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!("{}", result_json(&report));
    ExitCode::SUCCESS
}
