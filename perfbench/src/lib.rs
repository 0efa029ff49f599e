//! End-to-end and per-layer benchmark of the ParaDL oracle stack.
//!
//! One command runs one workload in its own process through the public API
//! of the repository's crates, checks every output against references
//! computed during set-up, and prints the result. See `README.md` in this
//! directory for the workloads, the metrics and how to run them.
//!
//! Every run does identical work: a fixed number of whole passes over a
//! seeded op sequence, derived from `--seconds` but never from how fast the
//! host is, so the mix behind each median never changes between runs.

pub mod conformance;
pub mod grid_paper;
pub mod host;
pub mod query_fullrank;
pub mod serve_interactive;

use paradl_core::prelude::{Model, TrainingConfig};
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] =
    ["grid-paper", "query-fullrank", "serve-interactive", "conformance"];

/// How many times every workload repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// The fewest untraced ops a full run measures.
pub const MIN_OPS: usize = 40;

/// Rounds a run's passes are split into (fewer when there are fewer
/// passes).
const ROUNDS: usize = 5;

/// An untraced round during which the hypervisor stole more than this share
/// of the machine's CPU ticks is measured again.
const MAX_STEAL_SHARE: f64 = 0.05;

/// How many rounds a run may measure again: a run measures at most two
/// rounds more than planned, keeping it within the time the benchmark is
/// given.
const MAX_REPEATS: usize = 2;

/// What one run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Workload seed: orders the op sequence (the same seed gives the same
    /// inputs).
    pub seed: u64,
    /// Nominal measuring time in seconds; sets the pass count.
    pub seconds: u64,
    /// Traced run: alternate untraced and traced passes and report the
    /// per-layer metrics instead of the end-to-end ones.
    pub traced: bool,
    /// Smoke mode for the benchmark's own tests: one set-up, one pass, and
    /// the smallest op set that still exercises every check.
    pub short: bool,
}

impl Plan {
    /// How many set-ups the run makes.
    pub fn setups(&self) -> usize {
        if self.short {
            1
        } else {
            SETUP_REPEATS
        }
    }

    /// A fixed pass count: `seconds × per_second` (measured on a 2-vCPU
    /// host so that a run measures for about `seconds` there), but at least
    /// enough passes of `ops_per_pass` ops for [`MIN_OPS`] untraced ops, so
    /// that the tail metric has ten samples beyond p75. A traced run makes
    /// twice as many, half of them traced.
    pub fn passes(&self, per_second: f64, ops_per_pass: usize) -> usize {
        let untraced = if self.short {
            1
        } else {
            let n = (self.seconds as f64 * per_second).round() as usize;
            n.max(MIN_OPS.div_ceil(ops_per_pass.max(1)))
        };
        if self.traced {
            2 * untraced
        } else {
            untraced
        }
    }

    /// Whether pass `i` of a traced run is a traced one (odd passes).
    pub fn traced_pass(&self, i: usize) -> bool {
        self.traced && i % 2 == 1
    }
}

/// Per-layer metrics by name, with their units.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, (f64, &'static str)>);

impl Layers {
    /// Records (or overwrites) one metric.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, (value, unit));
    }

    /// The metric's value, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }
}

/// The outcome of one workload run, before formatting.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Median set-up seconds over the run's set-ups.
    pub setup_s: f64,
    /// What the set-up covers, printed next to `setup_s`.
    pub setup_covers: &'static str,
    /// Per-op latencies in seconds, untraced ops only.
    pub latencies: Vec<f64>,
    /// Per-op latencies in seconds of the traced ops (traced runs only).
    pub traced_latencies: Vec<f64>,
    /// Wall seconds of the measured passes (untraced passes only in a
    /// traced run).
    pub wall_s: f64,
    /// Rounds measured again because the hypervisor stole too much CPU
    /// during them; their ops count as attempted, their times are dropped.
    pub discarded_rounds: usize,
    /// Ops attempted (every pass, traced or not).
    pub attempted: usize,
    /// Ops that failed a check or were refused.
    pub failed: usize,
    /// Per-layer metrics (traced runs only).
    pub layers: Layers,
    /// Workload sizes, for the provenance line.
    pub sizes: String,
    /// One line per failed check, for the report.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one attempted op, recording `err` as a failure.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(e);
            }
        }
    }
}

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of `values` (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percentile `p` (0–100) of `values` by the nearest-rank rule.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The percentiles the tail metric may report, lowest first.
const TAIL_LADDER: [f64; 5] = [75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile with at least ten samples beyond it, and
/// its value; the median when there are too few samples for any.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    match TAIL_LADDER.iter().rev().find(|&&p| n * (1.0 - p / 100.0) >= 10.0) {
        Some(&p) => (p, percentile(values, p)),
        None => (50.0, median(values)),
    }
}

/// The training configuration of a paper model at `batch`: CosmoFlow's own
/// dataset, ImageNet for the others.
pub fn config_for(model: &Model, batch: usize) -> TrainingConfig {
    if model.name.starts_with("CosmoFlow") {
        TrainingConfig::cosmoflow(batch)
    } else {
        TrainingConfig::imagenet(batch)
    }
}

/// Runs `passes` passes as up to [`ROUNDS`] rounds of consecutive passes.
/// `round` runs the given passes, records every op's check in `out`, and
/// returns the untraced ops' latencies with the round's wall seconds. A
/// round of an untraced run during which the hypervisor stole more than
/// [`MAX_STEAL_SHARE`] of the CPU ticks is run again (at most
/// [`MAX_REPEATS`] times in all), so that the times come from a quiet host
/// when there is one; its ops still count as attempted.
pub fn run_rounds(
    plan: &Plan,
    passes: usize,
    out: &mut Outcome,
    mut round: impl FnMut(Range<usize>, &mut Outcome) -> (Vec<f64>, f64),
) {
    let rounds = ROUNDS.min(passes).max(1);
    let mut retries = MAX_REPEATS;
    for r in 0..rounds {
        let range = passes * r / rounds..passes * (r + 1) / rounds;
        loop {
            let (steal_before, total_before) = host::cpu_ticks();
            let (latencies, wall) = round(range.clone(), out);
            let (steal_after, total_after) = host::cpu_ticks();
            let steal = steal_after.saturating_sub(steal_before) as f64
                / total_after.saturating_sub(total_before).max(1) as f64;
            if !plan.traced && steal > MAX_STEAL_SHARE && retries > 0 {
                retries -= 1;
                out.discarded_rounds += 1;
                continue;
            }
            out.latencies.extend(latencies);
            out.wall_s += wall;
            break;
        }
    }
}

/// Times `f` and returns its result with the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Runs `setup` `plan.setups()` times and returns the last result with the
/// median set-up seconds. Every repetition does the same work; the earlier
/// results are dropped (a server is shut down by its drop).
pub fn repeat_setup<S>(plan: &Plan, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..plan.setups() {
        drop(last.take());
        let (s, t) = timed(&mut setup);
        seconds.push(t);
        last = Some(s);
    }
    (last.expect("at least one set-up"), median(&seconds))
}

/// SplitMix64: a tiny seeded generator for the op orders.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// FNV-1a digest of `bytes`, used to compare outputs with their references.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
}

/// Runs one workload by name.
pub fn run_workload(name: &str, plan: &Plan) -> Result<Outcome, String> {
    match name {
        "grid-paper" => Ok(grid_paper::run(plan)),
        "query-fullrank" => Ok(query_fullrank::run(plan)),
        "serve-interactive" => Ok(serve_interactive::run(plan)),
        "conformance" => Ok(conformance::run(plan)),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}

/// The end-to-end metrics of an untraced run: name, value, unit.
pub fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let (_, tail_s) = tail(&outcome.latencies);
    vec![
        ("setup_s", outcome.setup_s, "s"),
        ("ops_per_s", outcome.latencies.len() as f64 / outcome.wall_s, "1/s"),
        ("latency_p50_ms", median(&outcome.latencies) * 1e3, "ms"),
        ("latency_tail_ms", tail_s * 1e3, "ms"),
    ]
}

/// Every per-layer metric name with its unit, in report order. A layer the
/// workload does not reach reports 0. Times and counts are per op (the mean
/// over the traced ops) unless the name says otherwise.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("grid.caches_ms", "ms"),
    ("grid.supersets_ms", "ms"),
    ("grid.engines_ms", "ms"),
    ("grid.preps_ms", "ms"),
    ("grid.comms_ms", "ms"),
    ("grid.cells_ms", "ms"),
    ("grid.eval_ms", "ms"),
    ("grid.finish_ms", "ms"),
    ("grid.wall_ms", "ms"),
    ("grid.stage_sum_share", "ratio"),
    ("kernel.enumerated", "count"),
    ("kernel.evaluated", "count"),
    ("kernel.pruned_by_memory", "count"),
    ("kernel.pruned_by_dominance", "count"),
    ("kernel.evaluated_share", "ratio"),
    ("engine.build_ms", "ms"),
    ("vet.vet_us", "us"),
    ("search.answer_ms", "ms"),
    ("jsonio.render_ms", "ms"),
    ("jsonio.answer_bytes", "bytes"),
    ("jsonio.parse_ms", "ms"),
    ("server.queue_us", "us"),
    ("server.eval_us", "us"),
    ("server.residual_us", "us"),
    ("server.coalesced_mean", "count"),
    ("server.batch_cells_mean", "count"),
    ("server.cache_hit_share", "ratio"),
    ("server.degraded", "count"),
    ("server.shed", "count"),
    ("proto.request_bytes", "bytes"),
    ("proto.response_bytes", "bytes"),
    ("proto.encode_us", "us"),
    ("conformance.sweep_ms", "ms"),
    ("conformance.validate_ms", "ms"),
    ("conformance.fit_ms", "ms"),
    ("conformance.validate_calibrated_ms", "ms"),
    ("conformance.replays_per_op", "count"),
    ("sim.simulate_ms", "ms"),
    ("calibrate.fit_us", "us"),
    ("process.peak_rss_mib", "MiB"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.traced_p50_ms", "ms"),
    ("trace.overhead_share", "ratio"),
];

/// The per-layer metrics of a traced run, every name of [`PER_LAYER`]
/// present (0 where the workload does not reach the layer).
pub fn per_layer(outcome: &Outcome, peak_rss_mib: f64) -> Vec<(&'static str, f64, &'static str)> {
    let untraced = median(&outcome.latencies);
    let traced = median(&outcome.traced_latencies);
    let mut layers = outcome.layers.clone();
    layers.set("process.peak_rss_mib", peak_rss_mib, "MiB");
    layers.set("trace.untraced_p50_ms", untraced * 1e3, "ms");
    layers.set("trace.traced_p50_ms", traced * 1e3, "ms");
    layers.set(
        "trace.overhead_share",
        if untraced > 0.0 { traced / untraced - 1.0 } else { 0.0 },
        "ratio",
    );
    PER_LAYER.iter().map(|&(name, unit)| (name, layers.get(name).unwrap_or(0.0), unit)).collect()
}
