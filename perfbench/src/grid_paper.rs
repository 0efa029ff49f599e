//! `grid-paper`: the amortized planner sweep. One op is a
//! `GridSweep::run` over the 72-cell paper grid (the four Table-5 models ×
//! six global batches × the three `cluster_axis()` variants, exhaustive PE
//! sweep to 16 Ki PEs, top-10). The seed permutes the order of the models,
//! batches and clusters in the grid; every cell must still equal the
//! canonical-order reference computed in set-up.

use crate::{config_for, mean, repeat_setup, run_rounds, timed, Layers, Outcome, Plan, SplitMix};
use paradl_core::grid::{GridReport, GridStageTimings, GridSweep, QueryGrid};
use paradl_core::oracle::{Constraints, PeSweep};
use paradl_core::search::SearchReport;
use std::collections::BTreeMap;

/// Global batch axis (1536 is CosmoFlow's dataset cap).
pub const BATCHES: [usize; 6] = [128, 256, 512, 768, 1024, 1536];

/// Accounting totals of one sweep over the paper grid.
pub const TOTALS: Totals = Totals {
    enumerated: 12_205_002,
    evaluated: 4_531_165,
    pruned_by_memory: 4_829_724,
    pruned_by_dominance: 2_844_113,
};

/// Ops per second of measuring time (one op ≈ 0.3 s on a 2-vCPU host).
const OPS_PER_SECOND: f64 = 3.4;

/// Candidate accounting summed over a sweep's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Totals {
    /// Candidates enumerated.
    pub enumerated: usize,
    /// Candidates costed (enumerated minus every pruning class).
    pub evaluated: usize,
    /// Candidates pruned by the memory check.
    pub pruned_by_memory: usize,
    /// Candidates pruned by the static dominance bound.
    pub pruned_by_dominance: usize,
}

impl Totals {
    /// Sums the accounting of `reports`.
    pub fn of<'a>(reports: impl IntoIterator<Item = &'a SearchReport>) -> Totals {
        let mut t = Totals::default();
        for r in reports {
            t.enumerated += r.enumerated;
            t.pruned_by_memory += r.pruned_by_memory;
            t.pruned_by_dominance += r.pruned_by_dominance;
            t.evaluated +=
                r.enumerated - r.pruned_by_memory - r.pruned_by_dominance - r.pruned_by_bound;
        }
        t
    }
}

/// Records the per-op mean of `ops` as the `kernel.*` per-layer metrics.
pub fn record_kernel(layers: &mut Layers, ops: &[Totals]) {
    let col = |f: fn(&Totals) -> usize| mean(&ops.iter().map(|t| f(t) as f64).collect::<Vec<_>>());
    let (enumerated, evaluated) = (col(|t| t.enumerated), col(|t| t.evaluated));
    layers.set("kernel.enumerated", enumerated, "count");
    layers.set("kernel.evaluated", evaluated, "count");
    layers.set("kernel.pruned_by_memory", col(|t| t.pruned_by_memory), "count");
    layers.set("kernel.pruned_by_dominance", col(|t| t.pruned_by_dominance), "count");
    layers.set("kernel.evaluated_share", evaluated / enumerated.max(1.0), "ratio");
}

/// Identifies a cell independently of the grid's axis order: model name,
/// batch, and the cluster's index in `cluster_axis()`.
type CellKey = (String, usize, usize);

/// The paper grid with its axes in the given orders (indices into
/// `paper_models()`, [`BATCHES`] and `cluster_axis()`).
pub fn paper_grid(models: &[usize], batches: &[usize], clusters: &[usize]) -> QueryGrid {
    let constraints = Constraints {
        max_pes: 16 * 1024,
        pipeline_segments: 512,
        sweep: PeSweep::Exhaustive,
        top_k: Some(10),
        ..Constraints::default()
    };
    let all_models = paradl_models::paper_models();
    let all_clusters = paradl_bench::cluster_axis();
    let mut grid = QueryGrid::new(constraints).with_batches(batches.iter().map(|&b| BATCHES[b]));
    for &c in clusters {
        grid = grid.with_cluster(all_clusters[c].clone());
    }
    for &m in models {
        let model = &all_models[m];
        grid = grid.with_model(model.clone(), config_for(model, BATCHES[0]));
    }
    grid
}

/// The cells of `report` keyed by [`CellKey`]; `clusters` maps the grid's
/// cluster index to the `cluster_axis()` index.
fn keyed<'a>(
    grid: &QueryGrid,
    clusters: &[usize],
    report: &'a GridReport,
) -> BTreeMap<CellKey, &'a SearchReport> {
    report
        .cells
        .iter()
        .map(|c| {
            let name = grid.models()[c.query.model].model.name.clone();
            ((name, c.query.batch, clusters[c.query.cluster]), &c.report)
        })
        .collect()
}

/// The reference: every cell's search report, keyed by [`CellKey`].
pub type Reference = BTreeMap<CellKey, SearchReport>;

/// Computes the reference with the canonical axis order.
pub fn reference(sweep: &GridSweep) -> Reference {
    let (m, b, c) =
        ((0..4).collect::<Vec<_>>(), (0..6).collect::<Vec<_>>(), (0..3).collect::<Vec<_>>());
    let grid = paper_grid(&m, &b, &c);
    let report = sweep.run(&grid);
    keyed(&grid, &c, &report).into_iter().map(|(k, r)| (k, r.clone())).collect()
}

/// Checks one sweep against the reference: every cell's counts and top-10,
/// and the four accounting totals.
pub fn check(
    grid: &QueryGrid,
    clusters: &[usize],
    report: &GridReport,
    reference: &Reference,
) -> Result<Totals, String> {
    let cells = keyed(grid, clusters, report);
    if cells.len() != reference.len() {
        return Err(format!("{} cells, expected {}", cells.len(), reference.len()));
    }
    for (key, want) in reference {
        let got = cells.get(key).ok_or_else(|| format!("cell {key:?} missing"))?;
        let counts = |r: &SearchReport| (r.enumerated, r.pruned_by_memory, r.pruned_by_dominance);
        if counts(got) != counts(want) {
            return Err(format!("cell {key:?}: counts {:?} != {:?}", counts(got), counts(want)));
        }
        if got.top(10) != want.top(10) {
            return Err(format!("cell {key:?}: top-10 differs from the reference"));
        }
    }
    let totals = Totals::of(cells.values().copied());
    if totals != TOTALS {
        return Err(format!("totals {totals:?} != {TOTALS:?}"));
    }
    Ok(totals)
}

/// Records the per-op mean of traced sweeps' stage times (with each
/// sweep's measured wall seconds) as the `grid.*` per-layer metrics.
pub fn record_stages(layers: &mut Layers, stages: &[(GridStageTimings, f64)]) {
    let ms = |f: fn(&GridStageTimings) -> f64| {
        mean(&stages.iter().map(|(s, _)| f(s) * 1e3).collect::<Vec<_>>())
    };
    layers.set("grid.caches_ms", ms(|s| s.caches), "ms");
    layers.set("grid.supersets_ms", ms(|s| s.supersets), "ms");
    layers.set("grid.engines_ms", ms(|s| s.engines), "ms");
    layers.set("grid.preps_ms", ms(|s| s.preps), "ms");
    layers.set("grid.comms_ms", ms(|s| s.comms), "ms");
    layers.set("grid.cells_ms", ms(|s| s.cells), "ms");
    layers.set("grid.eval_ms", ms(|s| s.eval), "ms");
    layers.set("grid.finish_ms", ms(|s| s.finish), "ms");
    let wall = mean(&stages.iter().map(|(_, w)| w * 1e3).collect::<Vec<_>>());
    let sum = mean(&stages.iter().map(|(s, _)| stage_sum(s) * 1e3).collect::<Vec<_>>());
    layers.set("grid.wall_ms", wall, "ms");
    layers.set("grid.stage_sum_share", sum / wall, "ratio");
}

/// The sum of a sweep's stage times in seconds.
pub fn stage_sum(s: &GridStageTimings) -> f64 {
    s.caches + s.supersets + s.engines + s.preps + s.comms + s.cells + s.eval + s.finish
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    let sweep = GridSweep::new();
    let (reference, setup_s) = repeat_setup(plan, || reference(&sweep));
    let mut out = Outcome {
        setup_s,
        setup_covers: "one canonical-order sweep of the 72-cell grid, kept as the reference",
        ..Outcome::default()
    };

    let mut rng = SplitMix::new(plan.seed);
    let mut models: Vec<usize> = (0..4).collect();
    let mut batches: Vec<usize> = (0..6).collect();
    let mut clusters: Vec<usize> = (0..3).collect();
    rng.shuffle(&mut models);
    rng.shuffle(&mut batches);
    rng.shuffle(&mut clusters);
    let grid = paper_grid(&models, &batches, &clusters);
    out.sizes = format!(
        "72 cells (4 models x 6 batches x 3 clusters), exhaustive to 16384 PEs, top-10, {} candidates per op",
        TOTALS.enumerated
    );

    let mut stages = Vec::new();
    let mut totals = Vec::new();
    run_rounds(plan, plan.passes(OPS_PER_SECOND, 1), &mut out, |ops, out| {
        let mut latencies = Vec::new();
        for i in ops {
            if plan.traced_pass(i) {
                let ((report, timings), t) = timed(|| sweep.run_timed(&grid));
                out.traced_latencies.push(t);
                stages.push((timings, t));
                let result = check(&grid, &clusters, &report, &reference);
                if let Ok(op_totals) = &result {
                    totals.push(*op_totals);
                }
                out.record(result.map(|_| ()));
            } else {
                let (report, t) = timed(|| sweep.run(&grid));
                latencies.push(t);
                out.record(check(&grid, &clusters, &report, &reference).map(|_| ()));
            }
        }
        let wall = latencies.iter().sum();
        (latencies, wall)
    });
    if plan.traced {
        record_stages(&mut out.layers, &stages);
        record_kernel(&mut out.layers, &totals);
    }
    out
}
