//! The benchmark's own tests. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (debug builds make the paper-grid sweep slow).

use paradl_core::grid::GridSweep;
use paradl_core::jsonio::Json;
use perfbench::grid_paper::{self, Totals};
use perfbench::{conformance, query_fullrank, serve_interactive, Outcome, Plan, WORKLOADS};
use std::process::Command;

fn short_plan(traced: bool) -> Plan {
    Plan { seed: 7, seconds: 1, traced, short: true }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// Runs the binary in short mode and returns its stdout and parsed result.
fn run_short(workload: &str, trace: &str) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--short",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{workload} --trace {trace} failed:\n{stdout}");
    let last = stdout.lines().last().expect("output has a result line");
    (stdout.clone(), Json::parse(last).expect("last line is JSON"))
}

#[test]
fn short_mode_prints_every_named_metric_with_its_unit() {
    let spec = benchmark_json();
    let names: Vec<&str> =
        spec.req("workloads").as_arr().iter().map(|w| w.req("name").as_str()).collect();
    assert_eq!(names, WORKLOADS);
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (stdout, result) = run_short(workload, trace);
            assert_eq!(result.req("correct").boolean(), Some(true), "{workload}");
            assert_eq!(result.req("failed").usize(), Some(0), "{workload}");
            assert!(result.req("attempted").usize().unwrap_or(0) >= 1, "{workload}");
            let metrics = result.req("metrics");
            let wanted = spec.req(list).as_arr();
            assert_eq!(metrics.fields().map(<[_]>::len), Some(wanted.len()), "{workload} {list}");
            for m in wanted {
                let (name, unit) = (m.req("name").as_str(), m.req("unit").as_str());
                let got = metrics.get(name).unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(got.req("unit").as_str(), unit, "{workload}: {name}");
                assert!(
                    got.req("value").number().is_some_and(f64::is_finite),
                    "{workload}: {name}"
                );
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.split_whitespace().next() == Some(name) && l.contains(unit)),
                    "{workload}: {name} not in the report"
                );
            }
            assert!(stdout.contains("provenance {"), "{workload}: no provenance line");
        }
    }
}

#[test]
fn grid_paper_accounting_totals_match_the_paper_grid() {
    let reference = grid_paper::reference(&GridSweep::new());
    assert_eq!(reference.len(), 72);
    let totals = Totals::of(reference.values());
    assert_eq!(totals.enumerated, 12_205_002);
    assert_eq!(totals.evaluated, 4_531_165);
    assert_eq!(totals.pruned_by_memory, 4_829_724);
    assert_eq!(totals.pruned_by_dominance, 2_844_113);
    assert_eq!(totals, grid_paper::TOTALS);

    let (m, b, c) = ([3, 1, 0, 2], [5, 0, 4, 1, 3, 2], [2, 0, 1]);
    let grid = grid_paper::paper_grid(&m, &b, &c);
    let report = GridSweep::new().run(&grid);
    assert_eq!(grid_paper::check(&grid, &c, &report, &reference), Ok(grid_paper::TOTALS));

    // A corrupted reference cell fails the op.
    let mut corrupted = reference.clone();
    let cell = corrupted.values_mut().next().expect("72 cells");
    cell.ranked.swap(0, 1);
    assert!(grid_paper::check(&grid, &c, &report, &corrupted).is_err());
}

#[test]
fn corrupted_fullrank_reference_counts_as_failed_op() {
    let queries = query_fullrank::queries(true);
    let mut cases = query_fullrank::references(&queries).expect("references");
    let mut out = Outcome::default();
    query_fullrank::measure(&short_plan(false), &cases, &mut out);
    assert_eq!((out.attempted, out.failed), (1, 0));

    cases[0].digest ^= 1;
    let mut out = Outcome::default();
    query_fullrank::measure(&short_plan(false), &cases, &mut out);
    assert_eq!((out.attempted, out.failed), (1, 1), "{:?}", out.failures);
}

#[test]
fn corrupted_served_reference_counts_as_failed_op() {
    let queries = serve_interactive::queries(true);
    let mut cases = serve_interactive::references(&queries).expect("references");
    let mut daemon = serve_interactive::start(&cases).expect("daemon starts");
    cases[0].answer.push(' ');
    let mut out = Outcome::default();
    serve_interactive::measure(&short_plan(false), &mut daemon, &cases, &mut out);
    let per_connection = queries.len();
    assert_eq!(out.attempted, serve_interactive::CONNECTIONS * per_connection);
    assert_eq!(out.failed, serve_interactive::CONNECTIONS, "{:?}", out.failures);
}

#[test]
fn corrupted_conformance_reference_counts_as_failed_op() {
    let mut cases = conformance::cases(true);
    cases[0].top10.pop();
    let mut out = Outcome::default();
    conformance::measure(&short_plan(false), &cases, &mut out);
    assert_eq!((out.attempted, out.failed), (1, 1), "{:?}", out.failures);
}
