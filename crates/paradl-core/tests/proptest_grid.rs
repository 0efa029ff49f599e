//! Property-based equivalence tests of the amortized [`GridSweep`] against
//! per-query [`Oracle::search`] calls: for *any* random grid of CNNs,
//! batch axes, clusters and constraints (with and without top-k pruning,
//! powers-of-two and exhaustive PE sweeps), every cell of the sweep must
//! equal the per-query search on the whole report. The one exception is
//! `pruned_by_dominance`: a grid cell cuts on exact epoch times where a
//! single query cuts on lower bounds, so the grid may prune more, never
//! fewer.

use paradl_core::prelude::*;
use proptest::prelude::{prop_assert, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;

/// A small random CNN, mirroring the generator in `proptest_engine.rs`.
fn arb_model() -> impl PropStrategy<Value = Model> {
    let spatial = prop_oneof![Just(16usize), Just(32)];
    let depth = 1usize..4;
    (spatial, depth, 4usize..32, 2usize..8).prop_map(|(s, depth, base_ch, classes)| {
        let mut layers = Vec::new();
        let mut ch = 3usize;
        let mut hw = s;
        for i in 0..depth {
            let out = base_ch * (i + 1);
            layers.push(Layer::conv2d(format!("conv{i}"), ch, out, (hw, hw), 3, 1, 1));
            if hw >= 8 {
                layers.push(Layer::pool2d(format!("pool{i}"), out, (hw, hw), 2, 2));
                hw /= 2;
            }
            ch = out;
        }
        layers.push(Layer::global_pool("gpool", ch, &[hw, hw]));
        layers.push(Layer::fully_connected("fc", ch, classes));
        Model::new("random", 3, vec![s, s], layers)
    })
}

fn arb_constraints() -> impl PropStrategy<Value = Constraints> {
    let top_k = prop_oneof![Just(None), (1usize..12).prop_map(Some)];
    let sweep = prop_oneof![Just(PeSweep::PowersOfTwo), Just(PeSweep::Exhaustive)];
    (top_k, sweep, 4usize..9, 2usize..12).prop_map(|(top_k, sweep, log_pes, segments)| {
        Constraints {
            max_pes: 1 << log_pes,
            top_k,
            sweep,
            pipeline_segments: segments,
            ..Constraints::default()
        }
    })
}

/// A random batch axis: 2–3 mixed power-of-two / odd batch sizes.
fn arb_batches() -> impl PropStrategy<Value = Vec<usize>> {
    let entry = || (3usize..8, 0usize..4);
    (entry(), entry(), entry(), 2usize..4).prop_map(|(a, b, c, len)| {
        [a, b, c].iter().take(len).map(|&(log, off)| (1usize << log) + off).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn grid_sweep_reproduces_per_query_searches(
        model_a in arb_model(),
        model_b in arb_model(),
        batches in arb_batches(),
        constraints in arb_constraints(),
        chunk in 1usize..400,
    ) {
        let grid = QueryGrid::new(constraints)
            .with_model(model_a, TrainingConfig::small(8192, 64))
            .with_model(model_b, TrainingConfig::small(2048, 64))
            .with_batches(batches)
            .with_cluster(ClusterSpec::paper_system())
            .with_cluster(ClusterSpec::workstation(8));
        let fast = GridSweep::new().with_chunk_size(chunk).run(&grid);
        prop_assert!(fast.len() == grid.num_queries());
        for (cell, query) in fast.cells.iter().zip(grid.queries()) {
            prop_assert!(cell.query == query);
            let gm = &grid.models()[query.model];
            let cluster = &grid.clusters()[query.cluster];
            let oracle =
                Oracle::new(&gm.model, &cluster.device, cluster, gm.config_at(query.batch));
            let alone = oracle.search(grid.constraints());
            prop_assert!(cell.report.pruned_by_bound == 0 && alone.pruned_by_bound == 0);
            prop_assert!(
                cell.report.pruned_by_dominance >= alone.pruned_by_dominance,
                "{query:?}: grid pruned fewer than the per-query search"
            );
            let normalised = SearchReport {
                pruned_by_dominance: alone.pruned_by_dominance,
                ..cell.report.clone()
            };
            prop_assert!(normalised == alone, "{query:?}: report diverged");
        }
    }
}
