//! `conformance`: the closed oracle-vs-simulator loop, the only workload
//! that runs `paradl-sim` and `calibrate`. One op is one cell of the
//! `bench_sim_summary` grid (4 models × batches {64, 128, 256} × 3
//! clusters, powers of two to 256 PEs, top-10), run as a 1-cell
//! `GridSweep`, `Conformance::validate_sweep`, `fit` and
//! `validate_sweep_calibrated`. A pass visits one batch of every (model,
//! cluster) pair in a seeded order.

use crate::grid_paper::{record_kernel, record_stages, Totals};
use crate::{
    config_for, digest, mean, repeat_setup, run_rounds, timed, Layers, Outcome, Plan, SplitMix,
};
use paradl_core::calibrate::{CalSample, Calibration};
use paradl_core::grid::{GridReport, GridStageTimings, GridSweep, QueryGrid};
use paradl_core::oracle::{Constraints, PeSweep};
use paradl_core::prelude::{ClusterSpec, Model};
use paradl_core::search::RankedCandidate;
use paradl_core::validate::FidelityReport;
use paradl_sim::{Conformance, OverheadModel, Simulator};
use std::collections::BTreeMap;

/// Batch axis of the conformance grid.
pub const BATCHES: [usize; 3] = [64, 128, 256];

/// The batch each (model, cluster) pair is replayed at.
pub const OP_BATCH: usize = 128;

/// Passes per second of measuring time (one pass of 12 ops ≈ 5 s on a
/// 2-vCPU host).
const PASSES_PER_SECOND: f64 = 0.19;

/// The harness, configured like `bench_sim_summary`.
pub fn harness() -> Conformance {
    Conformance::new()
        .with_overheads(OverheadModel::chainermnx_quiet())
        .with_samples(2)
        .with_replay_top(10)
        .with_seed(0x5EED)
}

fn constraints() -> Constraints {
    Constraints {
        max_pes: 256,
        top_k: Some(10),
        sweep: PeSweep::PowersOfTwo,
        ..Constraints::default()
    }
}

/// A grid over `models` × `batches` × `clusters`.
fn grid(models: &[Model], batches: &[usize], clusters: &[ClusterSpec]) -> QueryGrid {
    let mut grid = QueryGrid::new(constraints()).with_batches(batches.iter().copied());
    for c in clusters {
        grid = grid.with_cluster(c.clone());
    }
    for m in models {
        grid = grid.with_model(m.clone(), config_for(m, batches[0]));
    }
    grid
}

/// One op's cell with its references.
pub struct Case {
    /// Model index in `paper_models()`.
    pub model: usize,
    /// Cluster index in `cluster_axis()`.
    pub cluster: usize,
    /// The 1-cell grid the op sweeps.
    pub grid: QueryGrid,
    /// The cell's top-10 in the full 36-cell sweep.
    pub top10: Vec<RankedCandidate>,
    /// Digest of the cell's uncalibrated fidelity report.
    pub uncalibrated: u64,
}

/// Digest of a fidelity report (its `Debug` form prints every float with
/// all its digits).
fn report_digest(report: &FidelityReport) -> u64 {
    digest(format!("{report:?}").as_bytes())
}

/// Sweeps the full 36-cell grid and builds one case per (model, cluster)
/// pair at [`OP_BATCH`], with the cell's uncalibrated report digest
/// (`short` keeps one case).
pub fn cases(short: bool) -> Vec<Case> {
    let models = paradl_models::paper_models();
    let clusters = paradl_bench::cluster_axis();
    let full = GridSweep::new().run(&grid(&models, &BATCHES, &clusters));
    let mut out = Vec::new();
    for (m, model) in models.iter().enumerate() {
        for (c, cluster) in clusters.iter().enumerate() {
            let top10 = full
                .get(m, OP_BATCH, c)
                .map(|cell| cell.report.top(10).to_vec())
                .unwrap_or_default();
            let grid =
                grid(std::slice::from_ref(model), &[OP_BATCH], std::slice::from_ref(cluster));
            out.push(Case { model: m, cluster: c, grid, top10, uncalibrated: 0 });
        }
    }
    if short {
        out.truncate(1);
    }
    let harness = harness();
    for case in &mut out {
        let sweep = GridSweep::new().run(&case.grid);
        case.uncalibrated =
            harness.validate_sweep(&case.grid, &sweep).as_ref().map_or(0, report_digest);
    }
    out
}

/// What one op produced.
pub struct OpResult {
    /// The 1-cell sweep.
    pub sweep: GridReport,
    /// Uncalibrated fidelity.
    pub uncalibrated: Option<FidelityReport>,
    /// The fitted calibration.
    pub calibration: Option<Calibration>,
    /// Calibrated fidelity.
    pub calibrated: Option<FidelityReport>,
}

/// The op, untraced.
pub fn op(harness: &Conformance, case: &Case) -> OpResult {
    let sweep = GridSweep::new().run(&case.grid);
    let uncalibrated = harness.validate_sweep(&case.grid, &sweep);
    let calibration = harness.fit(&case.grid, &sweep);
    let calibrated = calibration
        .as_ref()
        .and_then(|cal| harness.validate_sweep_calibrated(&case.grid, &sweep, cal));
    OpResult { sweep, uncalibrated, calibration, calibrated }
}

/// Checks one op: the sweep's top-10 equals the full-grid reference, both
/// reports carry 10 samples, calibration does not raise the mean APE, the
/// uncalibrated report equals the set-up reference, and the calibrated
/// report equals the one this cell produced on its first pass.
pub fn check(
    case: &Case,
    r: &OpResult,
    digests: &mut BTreeMap<(usize, usize), u64>,
) -> Result<(), String> {
    let cell = (case.model, case.cluster);
    let top = r.sweep.cells.first().map(|c| c.report.top(10)).unwrap_or_default();
    if top != case.top10.as_slice() {
        return Err(format!("cell {cell:?}: 1-cell sweep top-10 differs from the full grid"));
    }
    let (Some(uncal), Some(cal)) = (&r.uncalibrated, &r.calibrated) else {
        return Err(format!("cell {cell:?}: no fidelity report"));
    };
    if uncal.num_samples() != 10 || cal.num_samples() != 10 {
        return Err(format!(
            "cell {cell:?}: {} / {} samples, expected 10",
            uncal.num_samples(),
            cal.num_samples()
        ));
    }
    if cal.overall.mean_ape > uncal.overall.mean_ape {
        return Err(format!(
            "cell {cell:?}: calibrated mean APE {} above uncalibrated {}",
            cal.overall.mean_ape, uncal.overall.mean_ape
        ));
    }
    if report_digest(uncal) != case.uncalibrated {
        return Err(format!(
            "cell {cell:?}: uncalibrated report differs from the set-up reference"
        ));
    }
    let d = report_digest(cal);
    if d != *digests.entry(cell).or_insert(d) {
        return Err(format!("cell {cell:?}: calibrated report changed between passes"));
    }
    Ok(())
}

/// Per-layer samples of the traced ops.
#[derive(Default)]
struct Trace {
    stages: Vec<(GridStageTimings, f64)>,
    sweep_ms: Vec<f64>,
    validate_ms: Vec<f64>,
    fit_ms: Vec<f64>,
    calibrated_ms: Vec<f64>,
    replays: Vec<f64>,
    simulate_ms: Vec<f64>,
    fit_us: Vec<f64>,
    counts: Vec<Totals>,
}

/// The op split at its four calls. The simulator and `Calibration::fit`
/// are then timed on their own, outside the op, by replaying the op's
/// winners once more. Returns the op's result and seconds.
fn traced_op(harness: &Conformance, case: &Case, trace: &mut Trace) -> (OpResult, f64) {
    let ((sweep, stages), t_sweep) = timed(|| GridSweep::new().run_timed(&case.grid));
    let (uncalibrated, t_validate) = timed(|| harness.validate_sweep(&case.grid, &sweep));
    let (calibration, t_fit) = timed(|| harness.fit(&case.grid, &sweep));
    let (calibrated, t_cal) = timed(|| {
        calibration
            .as_ref()
            .and_then(|cal| harness.validate_sweep_calibrated(&case.grid, &sweep, cal))
    });
    trace.stages.push((stages, t_sweep));
    trace.sweep_ms.push(t_sweep * 1e3);
    trace.validate_ms.push(t_validate * 1e3);
    trace.fit_ms.push(t_fit * 1e3);
    trace.calibrated_ms.push(t_cal * 1e3);
    let samples = |r: &Option<FidelityReport>| r.as_ref().map_or(0, FidelityReport::num_samples);
    let replays = samples(&uncalibrated)
        + calibration.as_ref().map_or(0, Calibration::num_samples)
        + samples(&calibrated);
    trace.replays.push(replays as f64);
    trace.counts.push(Totals::of(sweep.cells.iter().map(|c| &c.report)));

    let gm = &case.grid.models()[0];
    let cluster = &case.grid.clusters()[0];
    let config = gm.config_at(OP_BATCH);
    let mut cal_samples = Vec::new();
    for (rank, candidate) in
        sweep.winners(harness.replay_top).iter().flat_map(|(_, w)| w.iter()).enumerate()
    {
        let sim = Simulator::new(&cluster.device, cluster)
            .with_overheads(harness.overheads)
            .with_samples(harness.sample_iterations)
            .with_seed(harness.base_seed ^ rank as u64);
        let (measured, t) = timed(|| sim.simulate(&gm.model, &config, candidate.strategy));
        trace.simulate_ms.push(t * 1e3);
        cal_samples
            .push(CalSample::from_estimate(&candidate.projection.cost, measured.per_epoch.total()));
    }
    let (_, t_cal_fit) = timed(|| Calibration::fit(&cal_samples, harness.base_seed));
    trace.fit_us.push(t_cal_fit * 1e6);
    (
        OpResult { sweep, uncalibrated, calibration, calibrated },
        t_sweep + t_validate + t_fit + t_cal,
    )
}

fn record(layers: &mut Layers, trace: &Trace) {
    layers.set("conformance.sweep_ms", mean(&trace.sweep_ms), "ms");
    layers.set("conformance.validate_ms", mean(&trace.validate_ms), "ms");
    layers.set("conformance.fit_ms", mean(&trace.fit_ms), "ms");
    layers.set("conformance.validate_calibrated_ms", mean(&trace.calibrated_ms), "ms");
    layers.set("conformance.replays_per_op", mean(&trace.replays), "count");
    layers.set("sim.simulate_ms", mean(&trace.simulate_ms), "ms");
    layers.set("calibrate.fit_us", mean(&trace.fit_us), "us");
    record_stages(layers, &trace.stages);
    record_kernel(layers, &trace.counts);
}

/// Runs the workload against precomputed cases.
pub fn measure(plan: &Plan, cases: &[Case], out: &mut Outcome) {
    let harness = harness();
    let mut order: Vec<usize> = (0..cases.len()).collect();
    SplitMix::new(plan.seed).shuffle(&mut order);
    let mut digests = BTreeMap::new();
    let mut trace = Trace::default();
    run_rounds(plan, plan.passes(PASSES_PER_SECOND, cases.len()), out, |passes, out| {
        let mut latencies = Vec::new();
        for pass in passes {
            for &i in &order {
                let case = &cases[i];
                if plan.traced_pass(pass) {
                    let (result, t) = traced_op(&harness, case, &mut trace);
                    out.traced_latencies.push(t);
                    out.record(check(case, &result, &mut digests));
                } else {
                    let (result, t) = timed(|| op(&harness, case));
                    latencies.push(t);
                    out.record(check(case, &result, &mut digests));
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
    let (cases, setup_s) = repeat_setup(plan, || cases(plan.short));
    let mut out = Outcome {
        setup_s,
        setup_covers: "a sweep of the 36-cell grid (top-10 reference) and each op cell's uncalibrated report",
        sizes: format!(
            "{} cells per pass (batch {OP_BATCH}), top-10 replays x 2 sampled iterations, seed 0x5EED",
            cases.len()
        ),
        ..Outcome::default()
    };
    measure(plan, &cases, &mut out);
    out
}
