//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints one line per metric, the full result document as a JSON line,
//! and, last, the result line: `correct`, `attempted`, `failed` and the
//! metrics. Exits 0 only when every correctness check held.

use std::process::ExitCode;

use pathway_perfbench::bench::{self, Request};
use pathway_perfbench::workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload <leaf-ode|geobacter-608|leaf-analytic> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Request, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Request {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size: workload.full_size(),
        state_dir: bench::default_state_dir(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let request = match parse(&args) {
        Ok(request) => request,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = bench::run(&request);
    println!(
        "perfbench {} seed {} ({}), {} studies, {} failed",
        report.workload.name(),
        report.seed,
        if report.trace { "traced" } else { "end to end" },
        report.attempted,
        report.failed
    );
    for metric in &report.metrics {
        println!(
            "  {:<34} {:>16.6} {:<6} (n={})",
            metric.name, metric.value, metric.unit, metric.samples
        );
    }
    for check in report.checks.iter().filter(|c| !c.ok) {
        println!("  CHECK FAILED: {}: {}", check.name, check.detail);
    }
    println!("{}", report.document().to_compact());
    println!("{}", report.result_line().to_compact());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
