//! `omcf-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. Failed output checks show in `correct` and `failed`; the
//! exit code is 2 on a usage error and 0 otherwise.

use omcf_numerics::parallel::THREADS_ENV;
use omcf_perfbench::report::{render_result, END_TO_END, PER_LAYER};
use omcf_perfbench::workloads::{self, DEFAULT_SEED, WORKLOADS};
use omcf_perfbench::{run, RunConfig, THREADS};
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!("omcf-perfbench: {problem}");
    eprintln!(
        "usage: omcf-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match workloads::find(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed `{value}`")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage(&format!("bad --seconds `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("--trace takes 0 or 1, not `{value}`")),
            },
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    // Pools the program sizes itself (`Parallelism::Auto`, the rayon
    // global pool) read these variables, so they get the same cap.
    std::env::set_var(THREADS_ENV, THREADS.to_string());
    std::env::set_var("RAYON_NUM_THREADS", THREADS.to_string());
    let cfg = RunConfig { workload, seed, seconds, trace };
    let result = run(&cfg);
    let defs: &[_] = if trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", render_result(result.attempted, result.failed, defs, &result.metrics));
    ExitCode::SUCCESS
}
