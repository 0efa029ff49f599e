//! Amortized multi-query oracle: evaluate a whole configuration grid
//! (model × global batch × cluster) at near-single-query cost.
//!
//! The oracle is most useful when queried many times — across models, batch
//! sizes, clusters and PE budgets, exactly the grids the paper's tables and
//! figures sweep. A naive sweep calls
//! [`Oracle::search`](crate::oracle::Oracle::search) per cell and pays, for
//! every cell, a full [`CostEngine`] tabulation, a candidate-space
//! enumeration and the evaluation pass.
//! [`GridSweep`] answers the same grid while amortizing everything shareable:
//!
//! * **engines** — one [`CostEngine`] per (model, cluster) pair; the other
//!   batches of the grid get [`CostEngine::rebatch`]ed siblings that share
//!   every batch-invariant table through the engine's `Arc`-held core,
//! * **topology tables** — one [`ClusterCache`] per cluster
//!   ([`std::sync::Arc`]-shared), so every engine on a cluster reuses its
//!   communication-model derivations,
//! * **candidate spaces** — one enumerated superset per model at the
//!   largest batch; each batch's space is an order-preserving `O(1)`-per-
//!   candidate filter of the superset (valid because every batch-dependent
//!   enumeration bound is also checked by [`ModelLimits::is_valid`], and
//!   validity is monotone in the batch, so each candidate resolves its
//!   validity once at the smallest admitting batch), so enumeration runs
//!   once per model instead of once per cell,
//! * **evaluation prep** — per-PE memory and the compute-only lower bound
//!   are cluster-independent given the device profile, so one
//!   structure-of-arrays prep pass per (model, batch, device) feeds every
//!   cluster cell sharing that device: the memory pruning, its counter, and
//!   the bound column are computed once instead of once per cell,
//! * **reporting** — in top-k mode only the `k` best and the per-budget
//!   winners are reported, so they are folded incrementally (two relaxed
//!   atomic reads for the common non-improving candidate) instead of
//!   materializing the hundreds of thousands of costed candidates per cell,
//! * **parallelism** — evaluation is split into fixed-size candidate chunks
//!   interleaved round-robin across *all* cells and run rayon-parallel, so
//!   one huge query (a CosmoFlow-scale exhaustive space) doesn't serialize
//!   the sweep behind it, and per-query serial phases (enumeration, final
//!   ranking sort) run concurrently across cells,
//! * **allocation** — the chunk columns come from the shared prep tables
//!   and each worker reuses a thread-local survivor buffer, so the
//!   per-candidate hot path allocates nothing,
//! * **analytic evaluation** — the chunks run through the
//!   [`crate::kernel`] module: a fused memory+bound prep pass
//!   ([`CostEngine::prep_terms`]), static dominance bounds seeded per cell
//!   (seed *selection* reuses the device-dependent prep columns across
//!   clusters; seed *times* are costed per cell because communication is
//!   cluster-dependent), a branchless mask pass over the `lbs` column, and
//!   incremental [`CostEngine::estimate_delta_with_memory`] chains in
//!   full-ranking mode. Which engine tables the delta path may reuse is
//!   documented in the `engine` module (batch-invariant vs batch-dependent
//!   — load-bearing, exactly as with [`CostEngine::rebatch`]).
//!
//! [`GridSweep::run_timed`] returns per-stage wall-clock timings of a sweep.
//!
//! The sweep is *exact*: every cell's [`SearchReport`] equals what a
//! per-query [`Oracle::search`](crate::oracle::Oracle::search) at that
//! cell's configuration returns — byte-identical projections, since
//! rebatched engines are bit-equal to freshly built ones and the kernel's
//! reduction is order-independent — except for `pruned_by_dominance`: a
//! cell cuts on exact epoch times reconstructed from its communication
//! columns, which prunes at least as many candidates as the per-query
//! lower-bound cut. Property-tested in `tests/proptest_grid.rs`.

use crate::cluster::{ClusterCache, ClusterSpec};
use crate::config::TrainingConfig;
use crate::engine::CommCoef;
use crate::engine::{
    cluster_fingerprint, engine_fingerprint, CostEngine, EngineCache, ModelLimits,
};
use crate::kernel::{eval_chunk_kernel, select_seeds, KernelColumns, StaticBounds, DEFAULT_CHUNK};
use crate::model::Model;
use crate::oracle::Constraints;
use crate::search::{
    budget_index, finish_report, finish_report_topk, RankedCandidate, SearchReport, SearchShared,
    StrategySpace,
};
use crate::strategy::Strategy;
use rayon::prelude::*;
use std::sync::{Arc, Mutex};

/// One model entry of a [`QueryGrid`]: the model plus its base training
/// configuration (dataset size, datum width, memory-reuse factor). The
/// grid's batch axis overrides `base.batch_size` per cell.
#[derive(Debug, Clone)]
pub struct GridModel {
    /// The CNN model.
    pub model: Model,
    /// Base training configuration; `batch_size` is replaced per grid cell.
    pub base: TrainingConfig,
}

impl GridModel {
    /// The cell configuration at global batch `batch`.
    pub fn config_at(&self, batch: usize) -> TrainingConfig {
        TrainingConfig { batch_size: batch, ..self.base }
    }
}

/// Coordinates of one grid cell: indices into the grid's model and cluster
/// axes plus the global batch *value* of the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridQuery {
    /// Index into [`QueryGrid::models`].
    pub model: usize,
    /// Index into [`QueryGrid::clusters`].
    pub cluster: usize,
    /// Global mini-batch size of this cell.
    pub batch: usize,
}

/// A batched set of oracle queries: the cross product of models (with their
/// base configurations), global batch sizes, and clusters, all searched
/// under one [`Constraints`]. Build with the `with_*` methods, evaluate with
/// a [`GridSweep`].
///
/// Each cluster's [`ClusterSpec::device`] profile provides the per-layer
/// compute times for the cells on that cluster.
#[derive(Debug, Clone)]
pub struct QueryGrid {
    models: Vec<GridModel>,
    batches: Vec<usize>,
    clusters: Vec<ClusterSpec>,
    constraints: Constraints,
}

impl QueryGrid {
    /// An empty grid evaluated under `constraints`.
    pub fn new(constraints: Constraints) -> Self {
        QueryGrid { models: Vec::new(), batches: Vec::new(), clusters: Vec::new(), constraints }
    }

    /// Adds a model with its base training configuration (the grid's batch
    /// axis overrides `base.batch_size`).
    pub fn with_model(mut self, model: Model, base: TrainingConfig) -> Self {
        self.models.push(GridModel { model, base });
        self
    }

    /// Adds global batch sizes to the batch axis.
    pub fn with_batches(mut self, batches: impl IntoIterator<Item = usize>) -> Self {
        self.batches.extend(batches);
        self
    }

    /// Adds a cluster (its [`ClusterSpec::device`] provides the compute
    /// model for the cells on it).
    pub fn with_cluster(mut self, cluster: ClusterSpec) -> Self {
        self.clusters.push(cluster);
        self
    }

    /// The model axis.
    pub fn models(&self) -> &[GridModel] {
        &self.models
    }

    /// The global-batch axis.
    pub fn batches(&self) -> &[usize] {
        &self.batches
    }

    /// The cluster axis.
    pub fn clusters(&self) -> &[ClusterSpec] {
        &self.clusters
    }

    /// The shared search constraints.
    pub fn constraints(&self) -> &Constraints {
        &self.constraints
    }

    /// Number of cells (`models × batches × clusters`).
    pub fn num_queries(&self) -> usize {
        self.models.len() * self.batches.len() * self.clusters.len()
    }

    /// The cell coordinates in evaluation order: model-major, then batch,
    /// then cluster — the order of [`GridReport::cells`].
    pub fn queries(&self) -> Vec<GridQuery> {
        let mut out = Vec::with_capacity(self.num_queries());
        for m in 0..self.models.len() {
            for &batch in &self.batches {
                for c in 0..self.clusters.len() {
                    out.push(GridQuery { model: m, cluster: c, batch });
                }
            }
        }
        out
    }
}

/// One evaluated grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// The cell's coordinates.
    pub query: GridQuery,
    /// The cell's search result — identical to what a per-query
    /// [`Oracle::search`](crate::oracle::Oracle::search) at this configuration returns.
    pub report: SearchReport,
}

/// The result of a grid sweep: one [`GridCell`] per query, in
/// [`QueryGrid::queries`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridReport {
    /// Evaluated cells (model-major, then batch, then cluster).
    pub cells: Vec<GridCell>,
}

impl GridReport {
    /// Number of evaluated cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the report has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell for (model index, batch value, cluster index), if present.
    pub fn get(&self, model: usize, batch: usize, cluster: usize) -> Option<&GridCell> {
        self.cells.iter().find(|c| {
            c.query.model == model && c.query.batch == batch && c.query.cluster == cluster
        })
    }

    /// Per-cell winner extraction: the `n` fastest ranked candidates of
    /// every cell (fewer where the ranking is shorter), in cell order.
    /// Cells where nothing was feasible yield an empty slice. This is the
    /// list a conformance harness replays through a measurement source to
    /// build a [`crate::validate::FidelityReport`].
    pub fn winners(&self, n: usize) -> Vec<(GridQuery, &[RankedCandidate])> {
        self.cells.iter().map(|c| (c.query, c.report.top(n))).collect()
    }
}

/// Per-(model, batch, device) evaluation tables, shared by every cell whose
/// cluster carries that device profile: the filtered candidate count, the
/// memory-pruned count, and the memory-feasible candidates as
/// structure-of-arrays columns (strategy, per-PE memory, compute-only lower
/// bound) in deterministic enumeration order. Per-PE memory is
/// cluster-independent and the lower bound only depends on the device, so
/// one prep pass — enumeration filter, memory pruning, bound tabulation —
/// serves every cluster sharing the device instead of being repeated per
/// cell.
struct PreppedSpace {
    /// Candidates enumerated for this (model, batch) under the constraints.
    enumerated: usize,
    /// Of those, how many the memory-capacity check removed.
    mem_pruned: usize,
    /// Memory-feasible candidates, in enumeration order.
    cands: Vec<Strategy>,
    /// Per-PE memory column, aligned with `cands`.
    mems: Vec<f64>,
    /// Compute-only lower-bound column, aligned with `cands`.
    lbs: Vec<f64>,
    /// PE-budget slot column (`budget_index` of each candidate, ≤ 64 so it
    /// fits a byte), aligned with `cands`.
    slots: Vec<u8>,
    /// Seed-panel indices into `cands` (per-(family, slot) lower-bound
    /// minima; device-dependent but cluster-independent, so selected once
    /// per prep and costed per cell).
    seeds: Vec<usize>,
    /// Superset index of each feasible candidate (`cands[i]` is
    /// `superset[sup[i]]`), linking the prep rows to the per-(model,
    /// cluster) communication-coefficient columns.
    sup: Vec<u32>,
    /// Strategy-family byte per candidate ([`crate::strategy::StrategyKind`]
    /// as `u8`) — the kernel's communication dispatch, so the hot loop
    /// never decodes the strategy column.
    fams: Vec<u8>,
}

impl PreppedSpace {
    /// Builds the prep tables of one (model, device) for *every* batch of
    /// the grid in a single superset pass: candidate validity is monotone in
    /// the batch (every batch-dependent bound is a `≤ batch` comparison), so
    /// each candidate's validity is resolved once at the smallest admitting
    /// batch instead of being re-checked per batch. `base` is any engine of
    /// the (model, device) pair; per-batch siblings are rebatched from it.
    ///
    /// Memory and the lower bound come from the fused
    /// [`CostEngine::prep_terms`] pass, the budget-slot and seed-panel
    /// columns for the kernel are tabulated alongside, and — for the
    /// non-pipeline families, whose per-PE memory is provably nondecreasing
    /// in the batch (`2·batch·act/div + const`) — a candidate that exceeds
    /// the capacity at one batch skips the memory computation at every
    /// larger batch (it still counts as enumerated and memory-pruned
    /// there, so the accounting is unchanged).
    fn build_all(
        superset: &[Strategy],
        limits: &ModelLimits,
        base: &CostEngine<'_>,
        batches: &[usize],
        constraints: &Constraints,
    ) -> Vec<PreppedSpace> {
        let engines: Vec<CostEngine<'_>> = batches.iter().map(|&b| base.rebatched(b)).collect();
        let mut preps: Vec<PreppedSpace> = batches
            .iter()
            .map(|_| PreppedSpace {
                enumerated: 0,
                mem_pruned: 0,
                cands: Vec::new(),
                mems: Vec::new(),
                lbs: Vec::new(),
                slots: Vec::new(),
                seeds: Vec::new(),
                sup: Vec::new(),
                fams: Vec::new(),
            })
            .collect();
        // Ascending batch order: validity at one batch implies validity at
        // every larger one.
        let mut order: Vec<usize> = (0..batches.len()).collect();
        order.sort_by_key(|&i| batches[i]);
        for (si, &strategy) in superset.iter().enumerate() {
            let mut j = 0;
            while j < order.len() && !limits.is_valid(strategy, batches[order[j]]) {
                j += 1;
            }
            let slot = budget_index(strategy.total_pes()) as u8;
            let fam = strategy.kind() as u8;
            // Pipeline memory is a per-depth table, not the shared
            // `2·batch·act + const` form, so the monotone early-break only
            // applies to the other families.
            let monotone = !matches!(strategy, Strategy::Pipeline { .. });
            let mut infeasible = false;
            for &bi in &order[j..] {
                let prep = &mut preps[bi];
                prep.enumerated += 1;
                if infeasible {
                    continue;
                }
                let (mem, lb) = engines[bi].prep_terms(strategy);
                if mem > constraints.memory_capacity_bytes {
                    infeasible = monotone;
                    continue;
                }
                prep.cands.push(strategy);
                prep.mems.push(mem);
                prep.lbs.push(lb);
                prep.slots.push(slot);
                prep.sup.push(si as u32);
                prep.fams.push(fam);
            }
        }
        let n_slots = budget_index(constraints.max_pes.max(1)) + 1;
        for prep in &mut preps {
            prep.mem_pruned = prep.enumerated - prep.cands.len();
            prep.seeds = select_seeds(&prep.cands, &prep.lbs, &prep.slots, n_slots);
        }
        preps
    }
}

/// Per-(model, cluster) batch-invariant communication columns, aligned
/// with the model's candidate superset: one [`CommCoef`] row per superset
/// candidate, from which the kernel's fused evaluation pass reconstructs
/// every candidate's *exact* communication time
/// ([`CostEngine::comm_time_prepped`]) — the collective/link derivations
/// behind `comm_time` are tabulated once per (model, cluster) pair
/// instead of being re-derived in every batch's cell.
struct CommColumns {
    /// Coefficient rows, indexed by superset row.
    coef: Vec<CommCoef>,
}

/// One in-flight cell of a sweep.
struct CellCtx<'a, 'w> {
    query: GridQuery,
    engine: CostEngine<'a>,
    prep: &'w PreppedSpace,
    shared: SearchShared,
    /// Static dominance-prune bounds derived from the prep's seed panel
    /// through this cell's engine.
    bounds: StaticBounds,
    /// The (model, cluster) pair's batch-invariant communication columns,
    /// superset-aligned.
    comm: &'w CommColumns,
    /// Survivor accumulator (full-ranking mode, `top_k == None`).
    found: Mutex<Vec<RankedCandidate>>,
    /// Per-budget-slot running winners (top-k mode).
    winners: Vec<Mutex<Option<RankedCandidate>>>,
}

/// Per-stage wall-clock seconds of one [`GridSweep::run_timed`] sweep,
/// reported by `bench_kernel_summary` and the benchmark harness so the
/// per-stage split (prep, communication columns, evaluation) is visible
/// next to the end-to-end number.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridStageTimings {
    /// Cluster topology-cache derivation.
    pub caches: f64,
    /// Candidate-superset enumeration (one per model).
    pub supersets: f64,
    /// Engine builds (one per model × cluster).
    pub engines: f64,
    /// SoA prep passes (enumeration filter, memory pruning, bound/slot
    /// tabulation, seed selection).
    pub preps: f64,
    /// Batch-invariant communication-coefficient columns (one per
    /// model × cluster pair).
    pub comms: f64,
    /// Cell-context assembly (rebatched engines, static bounds).
    pub cells: f64,
    /// Chunked candidate evaluation — the kernel hot loop.
    pub eval: f64,
    /// Final per-cell ranking and report assembly.
    pub finish: f64,
}

/// Evaluates a [`QueryGrid`], amortizing engines, topology caches and
/// candidate enumeration across cells (see the [module docs](crate::grid)).
#[derive(Debug, Clone)]
pub struct GridSweep {
    /// Candidates per work unit of the interleaved evaluation.
    chunk: usize,
}

impl Default for GridSweep {
    fn default() -> Self {
        GridSweep::new()
    }
}

impl GridSweep {
    /// A sweep through the analytic kernel with the default work-splitting
    /// granularity (picked by the chunk sweep in `BENCH_kernel.json` — small
    /// enough that a paper-scale query splits into many units, large
    /// enough that chunk dispatch and mask-pass overhead stay negligible).
    pub fn new() -> Self {
        GridSweep { chunk: DEFAULT_CHUNK }
    }

    /// Overrides the candidates-per-chunk granularity (clamped to ≥ 1).
    pub fn with_chunk_size(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// Evaluates every cell of `grid`, returning one [`SearchReport`] per
    /// cell in [`QueryGrid::queries`] order — each identical to what
    /// [`Oracle::search`](crate::oracle::Oracle::search) would return for
    /// that cell, apart from the `pruned_by_dominance` count (see the
    /// [module docs](crate::grid)).
    pub fn run(&self, grid: &QueryGrid) -> GridReport {
        self.run_with(grid, None).0
    }

    /// Like [`GridSweep::run`], but also returns per-stage wall-clock
    /// timings (used by `bench_kernel_summary` and the benchmark harness to
    /// report the per-stage split).
    pub fn run_timed(&self, grid: &QueryGrid) -> (GridReport, GridStageTimings) {
        self.run_with(grid, None)
    }

    /// Like [`GridSweep::run`], but sourcing engine cores and cluster caches
    /// from (and contributing them back to) an [`EngineCache`], so *repeated*
    /// sweeps over the same (model, device, cluster, γ·δ) problems skip the
    /// engine builds entirely — the cross-request amortization behind the
    /// `paradl-serve` daemon. Exactly the same results as [`GridSweep::run`]:
    /// a hydrated engine is byte-for-byte identical to a fresh build
    /// ([`CostEngine::from_core`]).
    pub fn run_cached(&self, grid: &QueryGrid, cache: &EngineCache) -> GridReport {
        self.run_with(grid, Some(cache)).0
    }

    fn run_with(
        &self,
        grid: &QueryGrid,
        ecache: Option<&EngineCache>,
    ) -> (GridReport, GridStageTimings) {
        let mut timings = GridStageTimings::default();
        let queries = grid.queries();
        if queries.is_empty() {
            return (GridReport { cells: Vec::new() }, timings);
        }
        let mut last = std::time::Instant::now();
        let mut stage = move || -> f64 {
            let elapsed = last.elapsed().as_secs_f64();
            last = std::time::Instant::now();
            elapsed
        };
        let n_clusters = grid.clusters.len();
        let max_batch = *grid.batches.iter().max().expect("non-empty batch axis");
        let constraints = &grid.constraints;

        // Shared per-cluster topology caches, sourced from the engine cache
        // when one is supplied (the cache stores models, not times, so the
        // derived engines are identical either way).
        let caches: Vec<Arc<ClusterCache>> = grid
            .clusters
            .iter()
            .map(|c| match ecache {
                Some(ec) => ec.cluster(cluster_fingerprint(c), || Arc::new(ClusterCache::new(c))),
                None => Arc::new(ClusterCache::new(c)),
            })
            .collect();

        timings.caches = stage();
        // Per-model scaling limits (cheap, needed by both stages below).
        let limits: Vec<ModelLimits> =
            grid.models.iter().map(|gm| ModelLimits::of(&gm.model)).collect();

        // One candidate superset per model, enumerated at the largest batch;
        // models enumerate in parallel.
        let supersets: Vec<Vec<Strategy>> = (0..grid.models.len())
            .into_par_iter()
            .map(|m| StrategySpace::with_limits(max_batch, constraints, &limits[m]).into_vec())
            .collect();

        timings.supersets = stage();
        // One engine per (model, cluster) pair, sharing the cluster caches;
        // every batch of the grid reuses the pair's batch-invariant core.
        let engines: Vec<CostEngine<'_>> = (0..grid.models.len() * n_clusters)
            .into_par_iter()
            .map(|i| {
                let (m, c) = (i / n_clusters, i % n_clusters);
                let gm = &grid.models[m];
                let cluster = &grid.clusters[c];
                let config = gm.config_at(max_batch);
                // The grid's workloads are vetted/curated upstream; an
                // unbuildable engine here is a caller bug, not a request.
                match ecache {
                    Some(ec) => {
                        let core =
                            ec.core(engine_fingerprint(&gm.model, cluster, &gm.base), || {
                                CostEngine::with_cache(
                                    &gm.model,
                                    &cluster.device,
                                    cluster,
                                    config,
                                    &caches[c],
                                )
                                .expect("grid engine build failed")
                                .core_handle()
                            });
                        CostEngine::from_core(&gm.model, cluster, config, core)
                            .expect("grid engine hydration failed")
                    }
                    None => CostEngine::with_cache(
                        &gm.model,
                        &cluster.device,
                        cluster,
                        config,
                        &caches[c],
                    )
                    .expect("grid engine build failed"),
                }
            })
            .collect();

        timings.engines = stage();
        // Group clusters by device profile: per-PE memory and the compute
        // lower bound are cluster-independent given the device, so one prep
        // pass per (model, batch, device) serves every cluster in the group.
        let mut group_of = Vec::with_capacity(n_clusters);
        let mut group_reps: Vec<usize> = Vec::new();
        for (c, cluster) in grid.clusters.iter().enumerate() {
            match group_reps.iter().position(|&r| grid.clusters[r].device == cluster.device) {
                Some(g) => group_of.push(g),
                None => {
                    group_of.push(group_reps.len());
                    group_reps.push(c);
                }
            }
        }
        let n_groups = group_reps.len();

        // Per-(model, device) prepped spaces covering the whole batch axis:
        // one superset pass enumerates, memory-prunes and bound-tabulates
        // every batch's candidates.
        let preps: Vec<Vec<PreppedSpace>> = (0..grid.models.len() * n_groups)
            .into_par_iter()
            .map(|i| {
                let (m, g) = (i / n_groups, i % n_groups);
                PreppedSpace::build_all(
                    &supersets[m],
                    &limits[m],
                    &engines[m * n_clusters + group_reps[g]],
                    &grid.batches,
                    constraints,
                )
            })
            .collect();

        timings.preps = stage();
        // Per-(model, cluster) communication columns, aligned with the
        // model's candidate superset: the batch-invariant parts of every
        // candidate's communication time (collective times, link
        // parameters — the dominant per-candidate cost) are tabulated once
        // per pair instead of being re-derived in every batch's cell.
        // Rows no batch's prep references (invalid or memory-infeasible at
        // every batch) are skipped.
        let used: Vec<Vec<bool>> = (0..grid.models.len() * n_groups)
            .map(|i| {
                let m = i / n_groups;
                let mut used = vec![false; supersets[m].len()];
                for prep in &preps[i] {
                    for &si in &prep.sup {
                        used[si as usize] = true;
                    }
                }
                used
            })
            .collect();
        let coefs: Vec<CommColumns> = (0..grid.models.len() * n_clusters)
            .into_par_iter()
            .map(|i| {
                let (m, c) = (i / n_clusters, i % n_clusters);
                let engine = &engines[i];
                let used = &used[m * n_groups + group_of[c]];
                let coef = supersets[m]
                    .iter()
                    .zip(used)
                    .map(|(&s, &u)| if u { engine.comm_prep(s) } else { CommCoef::default() })
                    .collect();
                CommColumns { coef }
            })
            .collect();

        timings.comms = stage();
        // Cell contexts: a rebatched engine sibling plus the shared search
        // state each cell's chunks reduce into. The memory-pruned count is
        // seeded from the prep, and the cell's static dominance bounds are
        // derived here, costing the prep's seed panel through the cell's own
        // engine (communication is cluster-dependent, so seed *times* are
        // per cell even though seed *selection* is per prep).
        let cells: Vec<CellCtx<'_, '_>> = queries
            .iter()
            .map(|&query| {
                let b = grid.batches.iter().position(|&x| x == query.batch).expect("own axis");
                let prep = &preps[query.model * n_groups + group_of[query.cluster]][b];
                let shared = SearchShared::new(constraints);
                shared.set_memory_pruned(prep.mem_pruned);
                let winners = (0..shared.num_budget_slots()).map(|_| Mutex::new(None)).collect();
                let engine =
                    engines[query.model * n_clusters + query.cluster].rebatched(query.batch);
                let bounds = StaticBounds::from_seeds(
                    &engine,
                    &prep.cands,
                    &prep.lbs,
                    &prep.slots,
                    &prep.seeds,
                    &shared,
                );
                let comm = &coefs[query.model * n_clusters + query.cluster];
                CellCtx {
                    query,
                    engine,
                    prep,
                    shared,
                    bounds,
                    comm,
                    found: Mutex::new(Vec::new()),
                    winners,
                }
            })
            .collect();

        timings.cells = stage();
        // Candidate-level work splitting: fixed-size chunks, interleaved
        // round-robin across cells so a huge cell spreads over all workers
        // instead of pinning one. Round-robin also runs every cell's
        // lowest-bound chunk first, tightening the pruning thresholds before
        // the (wholesale-prunable) tails are touched.
        let chunk = self.chunk;
        let mut items: Vec<(usize, usize)> = Vec::new();
        let mut round = 0usize;
        loop {
            let mut any = false;
            for (ci, cell) in cells.iter().enumerate() {
                if round * chunk < cell.prep.cands.len() {
                    items.push((ci, round));
                    any = true;
                }
            }
            if !any {
                break;
            }
            round += 1;
        }
        let _: Vec<()> = items
            .par_iter()
            .map(|&(ci, round)| {
                let cell = &cells[ci];
                let lo = round * chunk;
                let hi = (lo + chunk).min(cell.prep.cands.len());
                eval_chunk_kernel(
                    &cell.engine,
                    KernelColumns {
                        cands: &cell.prep.cands,
                        mems: &cell.prep.mems,
                        lbs: &cell.prep.lbs,
                        slots: &cell.prep.slots,
                        sup: &cell.prep.sup,
                        fams: &cell.prep.fams,
                        coef: &cell.comm.coef,
                    },
                    &cell.bounds,
                    lo,
                    hi,
                    constraints,
                    &cell.shared,
                    &cell.winners,
                    &cell.found,
                );
            })
            .collect();

        timings.eval = stage();
        // Per-cell final ranking, in parallel across cells.
        let cells: Vec<GridCell> = cells
            .into_par_iter()
            .map(|cell| {
                let report = if constraints.top_k.is_some() {
                    let slot_best = cell
                        .winners
                        .into_iter()
                        .map(|slot| slot.into_inner().expect("winner slot poisoned"))
                        .collect();
                    finish_report_topk(cell.prep.enumerated, slot_best, constraints, cell.shared)
                } else {
                    let survivors = cell.found.into_inner().expect("grid accumulator poisoned");
                    finish_report(cell.prep.enumerated, survivors, constraints, cell.shared)
                };
                GridCell { query: cell.query, report }
            })
            .collect();
        timings.finish = stage();
        (GridReport { cells }, timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::oracle::PeSweep;

    fn model(seed: usize) -> Model {
        Model::new(
            format!("m{seed}"),
            3,
            vec![32, 32],
            vec![
                Layer::conv2d("c1", 3, 32 + 16 * seed, (32, 32), 3, 1, 1),
                Layer::pool2d("p1", 32 + 16 * seed, (32, 32), 2, 2),
                Layer::conv2d("c2", 32 + 16 * seed, 64, (16, 16), 3, 1, 1),
                Layer::global_pool("g", 64, &[16, 16]),
                Layer::fully_connected("fc", 64, 10),
            ],
        )
    }

    fn small_grid(constraints: Constraints) -> QueryGrid {
        QueryGrid::new(constraints)
            .with_model(model(0), TrainingConfig::small(8192, 64))
            .with_model(model(1), TrainingConfig::small(4096, 64))
            .with_batches([32usize, 64, 96])
            .with_cluster(ClusterSpec::paper_system())
            .with_cluster(ClusterSpec::workstation(8))
    }

    /// Asserts that every cell of `report` equals a per-cell
    /// [`Oracle::search`](crate::oracle::Oracle::search) on the whole
    /// report. The grid cuts on exact epoch times where a single query cuts
    /// on lower bounds, so only the dominance count may differ, and never
    /// downwards.
    fn assert_cells_match_per_query_search(grid: &QueryGrid, report: &GridReport) {
        assert_eq!(report.len(), grid.num_queries());
        for (cell, query) in report.cells.iter().zip(grid.queries()) {
            assert_eq!(cell.query, query);
            let gm = &grid.models()[query.model];
            let cluster = &grid.clusters()[query.cluster];
            let config = gm.config_at(query.batch);
            let alone = crate::oracle::Oracle::new(&gm.model, &cluster.device, cluster, config)
                .search(grid.constraints());
            assert_eq!(cell.report.pruned_by_bound, 0, "{query:?}");
            assert_eq!(alone.pruned_by_bound, 0, "{query:?}");
            assert!(cell.report.pruned_by_dominance >= alone.pruned_by_dominance, "{query:?}");
            let normalised = SearchReport {
                pruned_by_dominance: alone.pruned_by_dominance,
                ..cell.report.clone()
            };
            assert_eq!(normalised, alone, "{query:?}");
        }
    }

    #[test]
    fn filtered_superset_equals_direct_enumeration() {
        for sweep in [PeSweep::PowersOfTwo, PeSweep::Exhaustive] {
            let constraints =
                Constraints { max_pes: 256, sweep, pipeline_segments: 16, ..Default::default() };
            let m = model(0);
            let limits = ModelLimits::of(&m);
            let max_batch = 96;
            let superset: Vec<Strategy> =
                StrategySpace::with_limits(max_batch, &constraints, &limits).into_vec();
            for batch in [17usize, 32, 64, 96] {
                let filtered: Vec<Strategy> =
                    superset.iter().copied().filter(|&s| limits.is_valid(s, batch)).collect();
                let direct: Vec<Strategy> =
                    StrategySpace::with_limits(batch, &constraints, &limits).into_vec();
                assert_eq!(filtered, direct, "sweep {sweep:?}, batch {batch}");
            }
        }
    }

    #[test]
    fn sweep_matches_per_query_search() {
        let grid = small_grid(Constraints { max_pes: 256, ..Default::default() });
        let fast = GridSweep::new().with_chunk_size(64).run(&grid); // force many chunks
        assert_cells_match_per_query_search(&grid, &fast);
    }

    #[test]
    fn sweep_matches_per_query_search_with_pruning() {
        let grid = small_grid(Constraints {
            max_pes: 256,
            top_k: Some(7),
            sweep: PeSweep::Exhaustive,
            ..Default::default()
        });
        let fast = GridSweep::new().with_chunk_size(128).run(&grid);
        assert_cells_match_per_query_search(&grid, &fast);
        for cell in &fast.cells {
            assert_eq!(
                cell.report.evaluated() + cell.report.pruned(),
                cell.report.enumerated,
                "kernel accounting must add up at {:?}",
                cell.query
            );
        }
    }

    #[test]
    fn sweep_reports_are_identical_across_chunk_sizes_and_runs() {
        for sweep in [PeSweep::PowersOfTwo, PeSweep::Exhaustive] {
            for top_k in [None, Some(1), Some(7)] {
                let grid =
                    small_grid(Constraints { max_pes: 256, top_k, sweep, ..Default::default() });
                let base = GridSweep::new().run(&grid);
                assert_eq!(GridSweep::new().run(&grid), base, "{sweep:?}, top_k {top_k:?}: rerun");
                for chunk in [1usize, 7, 64] {
                    let chunked = GridSweep::new().with_chunk_size(chunk).run(&grid);
                    assert_eq!(chunked, base, "{sweep:?}, top_k {top_k:?}, chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn cached_sweep_matches_uncached_and_hits_on_repeat() {
        let grid = small_grid(Constraints { max_pes: 256, top_k: Some(5), ..Default::default() });
        let sweep = GridSweep::new();
        let cache = EngineCache::new(16);
        let plain = sweep.run(&grid);
        let cached = sweep.run_cached(&grid, &cache);
        assert_eq!(cached, plain, "cold cached sweep");
        let first = cache.stats();
        assert!(first.misses > 0, "cold sweep must populate the cache");
        // A second sweep over the same grid hits for every engine and
        // cluster cache, and still produces identical reports.
        let warm = sweep.run_cached(&grid, &cache);
        let second = cache.stats();
        assert_eq!(second.misses, first.misses, "warm sweep must not rebuild");
        assert!(second.hits > first.hits, "warm sweep must hit");
        assert_eq!(warm, plain, "warm cached sweep");
    }

    #[test]
    fn cells_follow_query_order_and_get_finds_them() {
        let grid = small_grid(Constraints { max_pes: 64, ..Default::default() });
        let report = GridSweep::new().run(&grid);
        let queries = grid.queries();
        assert_eq!(report.len(), queries.len());
        for (cell, q) in report.cells.iter().zip(&queries) {
            assert_eq!(cell.query, *q);
        }
        let found = report.get(1, 96, 1).expect("cell exists");
        assert_eq!(found.query, GridQuery { model: 1, cluster: 1, batch: 96 });
        assert!(report.get(2, 96, 1).is_none());
        assert!(!report.is_empty());
    }

    #[test]
    fn empty_grid_yields_empty_report() {
        let grid = QueryGrid::new(Constraints::default());
        assert_eq!(grid.num_queries(), 0);
        let report = GridSweep::new().run(&grid);
        assert!(report.is_empty());
        // A grid missing just one axis is also empty.
        let no_batches = QueryGrid::new(Constraints::default())
            .with_model(model(0), TrainingConfig::small(1024, 32))
            .with_cluster(ClusterSpec::paper_system());
        assert_eq!(no_batches.num_queries(), 0);
        assert!(GridSweep::new().run(&no_batches).is_empty());
    }
}
