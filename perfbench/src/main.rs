//! Command line: `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>`.
//!
//! Prints the workload record and one line per metric, then, as the last
//! line of standard output, the JSON result. Exits non-zero without a
//! result when the run cannot be measured.

use perfbench::runner::{run, RunConfig};
use perfbench::workload::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    Ok(RunConfig {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        scale: workload.scale(),
        work_root: PathBuf::from(".bench_work"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = perfbench::check_measured_configuration() {
        eprintln!("perfbench: refusing to run: {e}");
        return ExitCode::from(2);
    }
    let w = cfg.workload;
    println!("workload {}", w.record());
    println!(
        "run: scale {} fact rows, seed {}, {} s of operation CPU time, trace {}, \
         available parallelism {}",
        cfg.scale,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let report = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    for note in &report.notes {
        println!("note: {note}");
    }
    match &report.reopen {
        Some(Ok(())) => println!("check reopen: passed"),
        Some(Err(e)) => println!("check reopen: failed: {e}"),
        None => {}
    }
    for m in &report.metrics {
        println!("metric {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    match perfbench::result_json(&report) {
        Some(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("perfbench: a metric is not a finite number");
            ExitCode::from(1)
        }
    }
}
