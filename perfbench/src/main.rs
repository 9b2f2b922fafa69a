//! The Spitz benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|verified_read|served_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` the run measures the
//! end-to-end metrics with telemetry off; with `--trace 1` it measures an
//! untraced reference phase and then a traced phase (telemetry on, counting
//! chunk store, benchmark-side spans) and reports the per-layer metrics.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A failed correctness check ends the run with exit code 1 and no result;
//! a verified reply with a wrong value prints `"correct": false` and exits 1.
//! See `perfbench/README.md` for the workloads and metrics.

mod common;
mod counting;
mod driver;
mod gen;
mod ingest;
mod layers;
mod served;
mod stats;
mod verified_read;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// The two phases of a traced run, half of `seconds` each: an untraced
    /// reference, then the traced phase.
    pub fn traced_phases(&self) -> (Args, Args) {
        let seconds = (self.seconds / 2).max(1);
        let traced = Args {
            seconds,
            ..self.clone()
        };
        let untraced = Args {
            trace: false,
            ..traced.clone()
        };
        (untraced, traced)
    }
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse(&argv).and_then(|args| {
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        eprintln!("perfbench: {args:?}, {cores} cores");
        let outcome = match args.workload.as_str() {
            "ingest" => driver::run(&ingest::Ingest::new(args.seed), &args),
            "verified_read" => driver::run(&verified_read::VerifiedRead::new(args.seed), &args),
            "served_mixed" => driver::run(&served::ServedMixed::new(args.seed), &args),
            other => Err(format!("unknown workload {other}")),
        }?;
        let expected = if args.trace {
            layers::PER_LAYER
        } else {
            stats::END_TO_END
        };
        if !outcome.reports_exactly(expected) {
            return Err("the run did not report exactly the benchmark's metrics".to_string());
        }
        Ok(outcome)
    });
    let cleanup = std::time::Instant::now();
    let _ = std::fs::remove_dir_all(common::work_root());
    eprintln!(
        "perfbench: removed scratch databases in {:?}",
        cleanup.elapsed()
    );
    match result {
        Ok(outcome) if outcome.correct => println!("{}", outcome.to_json()),
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            eprintln!("perfbench: a verified result did not match the expected data");
            std::process::exit(1);
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let args = parse(&argv("--workload ingest --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (args.workload.as_str(), args.seed, args.seconds, args.trace),
            ("ingest", 3, 10, true)
        );
        assert!(parse(&argv("--workload ingest --seed x --seconds 10")).is_err());
        assert!(parse(&argv("--workload ingest --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse(&argv("--seed 1 --seconds 10")).is_err());
        assert!(parse(&argv("--workload ingest --seed")).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        let entries = |section: &str| -> Vec<String> {
            let start = spec
                .find(&format!("\"{section}\": ["))
                .expect("section present");
            let end = start + spec[start..].find(']').expect("section closes");
            spec[start..end]
                .lines()
                .filter(|l| l.contains("\"name\""))
                .map(|l| l.trim().trim_end_matches(',').to_string())
                .collect()
        };
        let end_to_end = entries("end_to_end");
        assert_eq!(end_to_end.len(), stats::END_TO_END.len());
        for (line, &(name, unit)) in end_to_end.iter().zip(stats::END_TO_END) {
            assert!(
                line.starts_with(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{line}"
            );
        }
        let per_layer = entries("per_layer");
        assert_eq!(per_layer.len(), layers::PER_LAYER.len());
        for (line, &(name, unit)) in per_layer.iter().zip(layers::PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(
                line.starts_with(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{line}"
            );
        }
    }
}
