//! Runs one benchmark workload and prints its result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid-paper --seed 1 --seconds 12 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The lines
//! before it are a human-readable report and a provenance record.

use paradl_core::jsonio::Json;
use perfbench::{end_to_end, host, per_layer, run_workload, tail, Outcome, Plan};
use std::process::ExitCode;

struct Args {
    workload: String,
    plan: Plan,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut plan = Plan { seed: 1, seconds: 10, traced: false, short: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => plan.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                plan.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                plan.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--short" => plan.short = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, plan })
}

fn provenance(args: &Args, outcome: &Outcome, steal_share: f64) -> Json {
    let (p, _) = tail(&outcome.latencies);
    Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::count(args.plan.seed as usize)),
        ("seconds", Json::count(args.plan.seconds as usize)),
        ("traced", Json::Bool(args.plan.traced)),
        ("sizes", Json::str(&outcome.sizes)),
        ("ops_measured", Json::count(outcome.latencies.len())),
        ("tail_percentile", Json::num(p)),
        ("rounds_discarded_for_steal", Json::count(outcome.discarded_rounds)),
        ("setup_covers", Json::str(outcome.setup_covers)),
        ("host_steal_share", Json::num(steal_share)),
        ("nproc", Json::count(host::nproc())),
        ("cpu", Json::str(host::cpu_model())),
        ("kernel", Json::str(host::kernel())),
        ("rustc", Json::str(host::rustc())),
        ("commit", Json::str(host::git_commit())),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (steal_before, total_before) = host::cpu_ticks();
    let outcome = match run_workload(&args.workload, &args.plan) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    println!("workload {} (seed {}): {}", args.workload, args.plan.seed, outcome.sizes);
    println!("setup_s covers: {}", outcome.setup_covers);
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }
    let metrics = if args.plan.traced {
        per_layer(&outcome, host::peak_rss_mib())
    } else {
        end_to_end(&outcome)
    };
    let (p, _) = tail(&outcome.latencies);
    let n = outcome.latencies.len();
    for &(name, value, unit) in &metrics {
        if name == "latency_tail_ms" {
            println!("  {name:<36} {value:>14.4} {unit}  (p{p} of {n} ops)");
        } else {
            println!("  {name:<36} {value:>14.4} {unit}");
        }
    }
    if let Some(share) = outcome.layers.get("grid.stage_sum_share") {
        let verdict = if (0.95..=1.0).contains(&share) { "within" } else { "OUTSIDE" };
        println!(
            "grid stage sum / sweep wall time = {share:.4} ({verdict} the 0.95-1.00 tolerance)"
        );
    }
    let (steal_after, total_after) = host::cpu_ticks();
    let steal_share =
        (steal_after - steal_before) as f64 / (total_after - total_before).max(1) as f64;
    println!("provenance {}", provenance(&args, &outcome, steal_share).render());

    let correct = outcome.failed == 0 && outcome.attempted > 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::count(outcome.attempted)),
        ("failed", Json::count(outcome.failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|&(name, value, unit)| {
                (name, Json::obj([("value", Json::num(value)), ("unit", Json::str(unit))]))
            })),
        ),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
