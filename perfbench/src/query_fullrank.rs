//! `query-fullrank`: the library path, where nothing is amortized. One op
//! is a cold standalone `Query::run` in `FullRank` mode (exhaustive to 1024
//! PEs) plus `QueryAnswer::to_json().render()`. A pass visits the 24
//! queries (4 models × batches {256, 1024} × 3 clusters) in a seeded order.

use crate::grid_paper::{record_kernel, Totals};
use crate::{
    config_for, digest, mean, repeat_setup, run_rounds, timed, Layers, Outcome, Plan, SplitMix,
};
use paradl_core::jsonio::Json;
use paradl_core::oracle::{Constraints, Oracle, PeSweep};
use paradl_core::query::{Query, QueryAnswer, QueryMode};
use paradl_core::search::RankedCandidate;

/// Passes per second of measuring time (one pass ≈ 1.3 s on a 2-vCPU host).
const PASSES_PER_SECOND: f64 = 0.75;

/// One query with its references.
pub struct Case {
    /// The full-rank query.
    pub query: Query,
    /// Digest of the rendered full-rank answer.
    pub digest: u64,
    /// The same query's `TopK(10)` ranking.
    pub top10: Vec<RankedCandidate>,
}

/// The workload's queries, in canonical order (`short` keeps one).
pub fn queries(short: bool) -> Vec<Query> {
    let constraints =
        Constraints { max_pes: 1024, sweep: PeSweep::Exhaustive, ..Constraints::default() };
    let mut out = Vec::new();
    for model in paradl_models::paper_models() {
        for batch in [256usize, 1024] {
            let config = config_for(&model, batch);
            for cluster in paradl_bench::cluster_axis() {
                out.push(
                    Query::full_rank()
                        .with_model(model.clone())
                        .with_config(config)
                        .with_cluster(cluster)
                        .with_constraints(constraints),
                );
            }
        }
    }
    if short {
        out.truncate(1);
    }
    out
}

/// Computes every query's references.
pub fn references(queries: &[Query]) -> Result<Vec<Case>, String> {
    queries
        .iter()
        .map(|q| {
            let text = q.run()?.to_json().render();
            let topk = q.clone().with_mode(QueryMode::TopK(10)).run()?;
            let top10 = topk.report().ok_or("TopK answer is not ranked")?.top(10).to_vec();
            Ok(Case { query: q.clone(), digest: digest(text.as_bytes()), top10 })
        })
        .collect()
}

/// Checks one op's answer and rendered bytes against the case.
pub fn check(case: &Case, answer: &QueryAnswer, text: &str) -> Result<(), String> {
    if digest(text.as_bytes()) != case.digest {
        return Err("rendered full-rank answer differs from the reference".to_string());
    }
    let report = answer.report().ok_or("full-rank answer is not ranked")?;
    if report.top(10) != case.top10.as_slice() {
        return Err("full-rank top-10 differs from the TopK(10) answer".to_string());
    }
    Ok(())
}

/// Per-layer samples of the traced ops.
#[derive(Default)]
struct Trace {
    vet_us: Vec<f64>,
    build_ms: Vec<f64>,
    answer_ms: Vec<f64>,
    render_ms: Vec<f64>,
    parse_ms: Vec<f64>,
    bytes: Vec<f64>,
    counts: Vec<Totals>,
}

/// One op split at the public calls `Query::run` makes: vet, engine build,
/// answer, render. Returns the answer, its text, and the op's seconds
/// (without the extra response parse, which is timed on its own).
fn traced_op(query: &Query, trace: &mut Trace) -> Result<(QueryAnswer, String, f64), String> {
    let model = query.model.as_ref().ok_or("query has no model")?;
    let config = query.config.ok_or("query has no config")?;
    let cluster = query.cluster.as_ref().ok_or("query has no cluster")?;
    let (vetted, t_vet) = timed(|| query.vet());
    vetted.map_err(|e| e.to_string())?;
    let oracle = Oracle::new(model, &cluster.device, cluster, config);
    let (engine, t_build) = timed(|| oracle.try_engine());
    let engine = engine.map_err(|e| e.to_string())?;
    let (answer, t_answer) = timed(|| oracle.answer_with_engine(&engine, query));
    let (text, t_render) = timed(|| answer.to_json().render());
    let (parsed, t_parse) = timed(|| Json::parse(&text));
    parsed.map_err(|e| format!("rendered answer does not parse: {e}"))?;
    trace.vet_us.push(t_vet * 1e6);
    trace.build_ms.push(t_build * 1e3);
    trace.answer_ms.push(t_answer * 1e3);
    trace.render_ms.push(t_render * 1e3);
    trace.parse_ms.push(t_parse * 1e3);
    trace.bytes.push(text.len() as f64);
    trace.counts.push(Totals::of(answer.report()));
    Ok((answer, text, t_vet + t_build + t_answer + t_render))
}

fn record(layers: &mut Layers, trace: &Trace) {
    layers.set("vet.vet_us", mean(&trace.vet_us), "us");
    layers.set("engine.build_ms", mean(&trace.build_ms), "ms");
    layers.set("search.answer_ms", mean(&trace.answer_ms), "ms");
    layers.set("jsonio.render_ms", mean(&trace.render_ms), "ms");
    layers.set("jsonio.parse_ms", mean(&trace.parse_ms), "ms");
    layers.set("jsonio.answer_bytes", mean(&trace.bytes), "bytes");
    record_kernel(layers, &trace.counts);
}

/// Runs the workload against precomputed cases (the benchmark's own tests
/// pass corrupted ones).
pub fn measure(plan: &Plan, cases: &[Case], out: &mut Outcome) {
    let mut order: Vec<usize> = (0..cases.len()).collect();
    SplitMix::new(plan.seed).shuffle(&mut order);
    let mut trace = Trace::default();
    run_rounds(plan, plan.passes(PASSES_PER_SECOND, cases.len()), out, |passes, out| {
        let mut latencies = Vec::new();
        for pass in passes {
            for &i in &order {
                let case = &cases[i];
                if plan.traced_pass(pass) {
                    let result =
                        traced_op(&case.query, &mut trace).and_then(|(answer, text, t)| {
                            out.traced_latencies.push(t);
                            check(case, &answer, &text)
                        });
                    out.record(result);
                } else {
                    let (result, t) = timed(|| {
                        case.query.run().map(|answer| {
                            let text = answer.to_json().render();
                            (answer, text)
                        })
                    });
                    latencies.push(t);
                    out.record(result.and_then(|(answer, text)| check(case, &answer, &text)));
                }
            }
        }
        let wall = latencies.iter().sum();
        (latencies, wall)
    });
    if plan.traced {
        record(&mut out.layers, &trace);
    }
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    let queries = queries(plan.short);
    let (cases, setup_s) = repeat_setup(plan, || references(&queries));
    let mut out = Outcome {
        setup_s,
        setup_covers: "full-rank and TopK(10) reference answers of every query",
        sizes: format!("{} queries per pass, FullRank, exhaustive to 1024 PEs", queries.len()),
        ..Outcome::default()
    };
    match cases {
        Ok(cases) => measure(plan, &cases, &mut out),
        Err(e) => out.record(Err(format!("reference computation failed: {e}"))),
    }
    out
}
