//! Property tests of the wire codec.
//!
//! Three contracts:
//!
//! 1. any well-formed query request survives serialize → render → parse →
//!    deserialize → serialize byte-identically;
//! 2. any answer document renders *stably*: render → parse → render is a
//!    fixed point (the byte-identical-serving invariant depends on it);
//! 3. no byte-level mutation or truncation of a valid frame can panic the
//!    decoder stack — damage surfaces as `Err`, never as unwinding.

use paradl_core::cost::{CostEstimate, PhaseBreakdown};
use paradl_core::jsonio::Json;
use paradl_core::oracle::{Constraints, Projection};
use paradl_core::query::{Query, QueryAnswer, QueryMode};
use paradl_core::search::{BudgetWinner, RankedCandidate, SearchReport};
use paradl_core::strategy::{SpatialSplit, Strategy};
use paradl_serve::proto::{self, FrameRead, Request, Response, MAX_FRAME};
use proptest::prelude::{prop_assert, prop_oneof, proptest, Just, ProptestConfig};
use proptest::strategy::Strategy as PropStrategy;
use std::io::Cursor;

fn arb_mode() -> impl PropStrategy<Value = QueryMode> {
    prop_oneof![
        Just(QueryMode::Suggest),
        Just(QueryMode::FullRank),
        (1usize..32).prop_map(QueryMode::TopK),
        (1usize..512).prop_map(|pes| QueryMode::Survey { pes }),
    ]
}

fn arb_query() -> impl PropStrategy<Value = Query> {
    (arb_mode(), 3usize..12, 1usize..1024).prop_map(|(mode, logb, max_pes)| {
        Query::default()
            .with_model(paradl_models::alexnet())
            .with_config(paradl_core::config::TrainingConfig::imagenet(1 << logb))
            .with_cluster(paradl_core::cluster::ClusterSpec::workstation(8))
            .with_constraints(Constraints { max_pes, ..Constraints::default() })
            .with_mode(mode)
    })
}

fn arb_strategy() -> impl PropStrategy<Value = Strategy> {
    prop_oneof![
        Just(Strategy::Serial),
        (1usize..64).prop_map(|p| Strategy::Data { p }),
        (1usize..64).prop_map(|p| Strategy::Filter { p }),
        (1usize..64).prop_map(|p| Strategy::Channel { p }),
        (1usize..64).prop_map(|p| Strategy::Spatial { split: SpatialSplit::balanced_2d(p) }),
        (1usize..16, 1usize..16).prop_map(|(p, segments)| Strategy::Pipeline { p, segments }),
        (1usize..16, 1usize..16).prop_map(|(p1, p2)| Strategy::DataFilter { p1, p2 }),
        (1usize..16, 1usize..16)
            .prop_map(|(p1, p)| Strategy::DataSpatial { p1, split: SpatialSplit::width_only(p) }),
    ]
}

fn arb_projection() -> impl PropStrategy<Value = Projection> {
    (arb_strategy(), 0.0f64..1e6, 0.0f64..1e3, 1usize..100_000, 0.0f64..1e12, 0usize..4).prop_map(
        |(strategy, fw, comm, iterations, mem, flags)| Projection {
            cost: CostEstimate {
                strategy,
                per_epoch: PhaseBreakdown {
                    forward_backward: fw,
                    weight_update: fw * 0.01,
                    gradient_exchange: comm,
                    fb_collective: comm * 0.5,
                    halo_exchange: comm * 0.25,
                    pipeline_p2p: comm * 0.125,
                },
                iterations,
                memory_per_pe_bytes: mem,
            },
            fits_memory: flags & 1 != 0,
            within_scaling_limit: flags & 2 != 0,
        },
    )
}

fn arb_answer() -> impl PropStrategy<Value = QueryAnswer> {
    prop_oneof![
        Just(QueryAnswer::Suggestion(None)),
        arb_projection().prop_map(|p| QueryAnswer::Suggestion(Some(p))),
        (arb_projection(), arb_projection(), 0usize..4).prop_map(|(a, b, extra)| {
            QueryAnswer::Survey(std::iter::repeat_n(a, extra).chain([b]).collect())
        }),
        (arb_projection(), arb_projection(), 0usize..1000, 0usize..1000, 1usize..512).prop_map(
            |(a, b, enumerated, pruned, budget)| {
                QueryAnswer::Ranked(SearchReport {
                    enumerated,
                    pruned_by_memory: pruned,
                    pruned_by_bound: 0,
                    pruned_by_dominance: pruned / 3,
                    ranked: vec![
                        RankedCandidate { strategy: a.cost.strategy, projection: a },
                        RankedCandidate { strategy: b.cost.strategy, projection: b },
                    ],
                    best_per_budget: vec![BudgetWinner {
                        max_pes: budget,
                        candidate: RankedCandidate { strategy: a.cost.strategy, projection: a },
                    }],
                })
            }
        ),
    ]
}

/// Frames `payload` exactly as the daemon/client would put it on the wire.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    proto::write_frame(&mut bytes, payload, MAX_FRAME).expect("framing a small payload");
    bytes
}

/// Feeds raw bytes through the whole decoder stack: frame layer, UTF-8,
/// JSON, then both envelope parsers. Only the *outcome* is interesting to
/// the caller; the property is that this function returns at all.
fn decode_everything(bytes: &[u8]) {
    let mut cursor = Cursor::new(bytes);
    if let Ok(FrameRead::Frame(payload)) = proto::read_frame(&mut cursor, MAX_FRAME, || true) {
        if let Ok(text) = std::str::from_utf8(&payload) {
            if let Ok(json) = Json::parse(text) {
                let _ = Request::from_json(&json, &|name| {
                    (name == "AlexNet").then(paradl_models::alexnet)
                });
                let _ = Response::from_json(&json);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn query_requests_round_trip_byte_identically(
        query in arb_query(),
        deadline in prop_oneof![Just(None), (1usize..100_000).prop_map(|ms| Some(ms as u64))],
    ) {
        let request = Request::Query { query, deadline_ms: deadline };
        let rendered = request.to_json().expect("workload is complete").render();
        let parsed = Json::parse(&rendered).expect("own rendering parses");
        let reparsed = Request::from_json(&parsed, &|name| {
            (name == "AlexNet").then(paradl_models::alexnet)
        }).expect("own rendering deserializes");
        prop_assert!(
            reparsed.to_json().expect("still complete").render() == rendered,
            "request drifted across a wire round trip"
        );
    }

    #[test]
    fn answer_documents_render_stably(answer in arb_answer()) {
        // The serving invariant compares served bytes against a locally
        // rendered answer, so render → parse → render must be a fixed point.
        let rendered = answer.to_json().render();
        let reparsed = Json::parse(&rendered).expect("own rendering parses");
        prop_assert!(
            reparsed.render() == rendered,
            "answer rendering is not parse-stable"
        );
    }

    #[test]
    fn mutated_frames_never_panic_the_decoder(
        query in arb_query(),
        seed in 1u64..u64::MAX,
        flips in 1usize..6,
        truncate in 0usize..2,
    ) {
        let request = Request::Query { query, deadline_ms: None };
        let pristine = frame(request.to_json().expect("workload is complete").render().as_bytes());

        // Deterministically vandalize a copy: flip `flips` bytes at seeded
        // positions (any position: header, checksum, or payload), then
        // maybe truncate.
        let mut damaged = pristine.clone();
        let mut state = seed;
        for _ in 0..flips {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let pos = (state >> 33) as usize % damaged.len();
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            damaged[pos] ^= ((state >> 33) as u8) | 1;
        }
        if truncate == 1 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            damaged.truncate((state >> 33) as usize % (damaged.len() + 1));
        }

        // Must not panic, whatever the damage did.
        decode_everything(&damaged);
        // And the pristine frame still decodes after all that.
        let mut cursor = Cursor::new(pristine.as_slice());
        prop_assert!(matches!(
            proto::read_frame(&mut cursor, MAX_FRAME, || true),
            Ok(FrameRead::Frame(_))
        ));
    }
}
