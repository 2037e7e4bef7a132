//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints each metric with its unit, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Exits non-zero
//! without a result line if the run cannot be made.

use perfbench::workload::{Scale, Workload};
use perfbench::{run, RunOptions};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<RunOptions, String> {
    let mut opts = RunOptions {
        workload: Workload::WanImagenet,
        seed: 1,
        seconds: 10.0,
        trace: false,
        data_dir: PathBuf::from(".perfbench-data"),
        scale: Scale::Full,
        corrupt_reference: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (valid: {})", names.join(", "))
                })?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: bad value {value:?} (valid: 0, 1)")),
                }
            }
            "--data-dir" => opts.data_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(report) => {
            for (name, unit, value) in &report.metrics {
                println!("{name:<32} {value:>14.4} {unit}");
            }
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!(
                "perfbench: {} seed {}: {e}",
                opts.workload.name(),
                opts.seed
            );
            ExitCode::FAILURE
        }
    }
}
