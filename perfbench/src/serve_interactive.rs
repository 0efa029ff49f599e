//! `serve-interactive`: the served round trip. An in-process `Server` with
//! the default config on a unix socket, driven closed-loop by 2
//! connections, one thread each. Each pass of a connection sends the 24
//! queries (`TopK(10)`, `Suggest` and `Survey{256}` × the 4 paper models ×
//! batches {256, 1024} on the paper cluster) in its own seeded order.

use crate::{config_for, mean, repeat_setup, run_rounds, timed, Layers, Outcome, Plan, SplitMix};
use paradl_core::jsonio::Json;
use paradl_core::prelude::ClusterSpec;
use paradl_core::query::{Query, QueryMode};
use paradl_serve::client::Connection;
use paradl_serve::proto::{write_frame, Request, Response, HEADER_LEN, MAX_FRAME};
use paradl_serve::server::{Bind, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

/// Client connections (one thread each).
pub const CONNECTIONS: usize = 2;

/// Passes per second of measuring time (one pass of 2 × 24 round trips ≈
/// 0.08 s on a 2-vCPU host).
const PASSES_PER_SECOND: f64 = 12.0;

/// The workload's queries (`short` keeps one per mode).
pub fn queries(short: bool) -> Vec<Query> {
    let mut out = Vec::new();
    for mode in [QueryMode::TopK(10), QueryMode::Suggest, QueryMode::Survey { pes: 256 }] {
        for model in paradl_models::paper_models() {
            for batch in [256usize, 1024] {
                let config = config_for(&model, batch);
                out.push(
                    Query::suggest()
                        .with_mode(mode)
                        .with_model(model.clone())
                        .with_config(config)
                        .with_cluster(ClusterSpec::paper_system()),
                );
                if short {
                    break;
                }
            }
            if short {
                break;
            }
        }
    }
    out
}

/// A query with its locally computed answer, rendered.
pub struct Case {
    /// The query sent to the daemon.
    pub query: Query,
    /// `Query::run().to_json().render()` computed in this process.
    pub answer: String,
}

/// Computes every query's local reference answer.
pub fn references(queries: &[Query]) -> Result<Vec<Case>, String> {
    queries
        .iter()
        .map(|q| Ok(Case { query: q.clone(), answer: q.run()?.to_json().render() }))
        .collect()
}

/// A running daemon with the benchmark's client connections. Dropping it
/// closes the connections, then shuts the daemon down and joins it.
pub struct Daemon {
    connections: Vec<Connection>,
    server: Option<Server>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.connections.clear();
        if let Some(server) = self.server.take() {
            server.shutdown_and_join();
        }
    }
}

/// A socket path in the working directory, unique per process and daemon.
fn socket_path() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!(".perfbench-serve-{}-{n}.sock", std::process::id()))
}

/// Checks one response against its case: an undegraded answer whose bytes
/// equal the local answer. Shed, errors and expired deadlines fail.
pub fn check(case: &Case, response: &Response) -> Result<(), String> {
    match response {
        Response::Answer { answer, stats } => {
            if stats.degraded > 0 {
                Err(format!("answer degraded by {} rungs", stats.degraded))
            } else if answer.render() != case.answer {
                Err("served answer differs from the local answer".to_string())
            } else {
                Ok(())
            }
        }
        other => Err(format!("refused: {other:?}")),
    }
}

/// Starts the daemon, connects the clients and sends every query once
/// through the first connection (warming the engine-core cache), checking
/// each answer.
pub fn start(cases: &[Case]) -> Result<Daemon, String> {
    let server = Server::start(Bind::Unix(socket_path()), ServerConfig::default())
        .map_err(|e| format!("server start failed: {e}"))?;
    let bound = server.bound().clone();
    let mut daemon = Daemon { connections: Vec::new(), server: Some(server) };
    for _ in 0..CONNECTIONS {
        daemon.connections.push(Connection::connect(&bound).map_err(|e| format!("connect: {e}"))?);
    }
    for case in cases {
        let response = daemon.connections[0].query(&case.query, None).map_err(|e| e.to_string())?;
        check(case, &response).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(daemon)
}

/// Per-layer samples of one connection's traced round trips.
#[derive(Default)]
struct Trace {
    encode_us: Vec<f64>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
    parse_ms: Vec<f64>,
    queue_us: Vec<f64>,
    eval_us: Vec<f64>,
    residual_us: Vec<f64>,
    coalesced: Vec<f64>,
    batch_cells: Vec<f64>,
    cache_hit: Vec<f64>,
}

impl Trace {
    fn absorb(&mut self, other: Trace) {
        self.encode_us.extend(other.encode_us);
        self.request_bytes.extend(other.request_bytes);
        self.response_bytes.extend(other.response_bytes);
        self.parse_ms.extend(other.parse_ms);
        self.queue_us.extend(other.queue_us);
        self.eval_us.extend(other.eval_us);
        self.residual_us.extend(other.residual_us);
        self.coalesced.extend(other.coalesced);
        self.batch_cells.extend(other.batch_cells);
        self.cache_hit.extend(other.cache_hit);
    }

    fn record(&self, layers: &mut Layers) {
        layers.set("proto.encode_us", mean(&self.encode_us), "us");
        layers.set("proto.request_bytes", mean(&self.request_bytes), "bytes");
        layers.set("proto.response_bytes", mean(&self.response_bytes), "bytes");
        layers.set("jsonio.parse_ms", mean(&self.parse_ms), "ms");
        layers.set("server.queue_us", mean(&self.queue_us), "us");
        layers.set("server.eval_us", mean(&self.eval_us), "us");
        layers.set("server.residual_us", mean(&self.residual_us), "us");
        layers.set("server.coalesced_mean", mean(&self.coalesced), "count");
        layers.set("server.batch_cells_mean", mean(&self.batch_cells), "count");
        layers.set("server.cache_hit_share", mean(&self.cache_hit), "ratio");
    }
}

/// One round trip with the request encoding, the response size and parse,
/// and the server's own answer statistics recorded around it. Returns the
/// response and the round trip's seconds.
fn traced_op(
    conn: &mut Connection,
    query: &Query,
    trace: &mut Trace,
) -> Result<(Response, f64), String> {
    let request = Request::Query { query: query.clone(), deadline_ms: None };
    let (frame, t_encode) = timed(|| -> Result<Vec<u8>, String> {
        let payload = request.to_json()?.render();
        let mut frame = Vec::with_capacity(payload.len() + HEADER_LEN);
        write_frame(&mut frame, payload.as_bytes(), MAX_FRAME).map_err(|e| e.to_string())?;
        Ok(frame)
    });
    let frame = frame?;
    let (response, rtt) = timed(|| conn.roundtrip(&request));
    let response = response.map_err(|e| format!("round trip failed: {e}"))?;
    let text = response.to_json().render();
    let (parsed, t_parse) = timed(|| Json::parse(&text));
    parsed.map_err(|e| format!("response does not re-parse: {e}"))?;
    trace.encode_us.push(t_encode * 1e6);
    trace.request_bytes.push(frame.len() as f64);
    trace.response_bytes.push((text.len() + HEADER_LEN) as f64);
    trace.parse_ms.push(t_parse * 1e3);
    if let Response::Answer { stats, .. } = &response {
        let (queue, eval) = (stats.queue_us as f64, stats.eval_us as f64);
        trace.queue_us.push(queue);
        trace.eval_us.push(eval);
        trace.residual_us.push(rtt * 1e6 - queue - eval);
        trace.coalesced.push(stats.coalesced as f64);
        trace.batch_cells.push(stats.batch_cells as f64);
        trace.cache_hit.push(if stats.cache_hit { 1.0 } else { 0.0 });
    }
    Ok((response, rtt))
}

/// What one client thread measured in one round.
#[derive(Default)]
struct ClientResult {
    latencies: Vec<f64>,
    traced_latencies: Vec<f64>,
    results: Vec<Result<(), String>>,
    trace: Trace,
}

/// One closed-loop client's passes `passes` over the cases, each pass in a
/// fresh order drawn from the connection's own generator.
fn client(
    plan: &Plan,
    passes: std::ops::Range<usize>,
    conn: &mut Connection,
    rng: &mut SplitMix,
    cases: &[Case],
    start: &Barrier,
) -> ClientResult {
    let mut order: Vec<usize> = (0..cases.len()).collect();
    let mut out = ClientResult::default();
    start.wait();
    for pass in passes {
        rng.shuffle(&mut order);
        for &i in &order {
            let case = &cases[i];
            let result = if plan.traced_pass(pass) {
                traced_op(conn, &case.query, &mut out.trace).and_then(|(response, t)| {
                    out.traced_latencies.push(t);
                    check(case, &response)
                })
            } else {
                let (response, t) = timed(|| conn.query(&case.query, None));
                out.latencies.push(t);
                response
                    .map_err(|e| format!("round trip failed: {e}"))
                    .and_then(|r| check(case, &r))
            };
            out.results.push(result);
        }
    }
    out
}

/// Drives the daemon with every connection and folds the clients' results
/// into `out`.
pub fn measure(plan: &Plan, daemon: &mut Daemon, cases: &[Case], out: &mut Outcome) {
    let passes = plan.passes(PASSES_PER_SECOND, CONNECTIONS * cases.len());
    let mut rngs: Vec<SplitMix> = (0..daemon.connections.len())
        .map(|id| SplitMix::new(plan.seed ^ (id as u64).wrapping_mul(0xA076_1D64_78BD_642F)))
        .collect();
    let mut trace = Trace::default();
    run_rounds(plan, passes, out, |range, out| {
        let barrier = Barrier::new(daemon.connections.len() + 1);
        let (results, wall) = std::thread::scope(|scope| {
            let handles: Vec<_> = daemon
                .connections
                .iter_mut()
                .zip(&mut rngs)
                .map(|(conn, rng)| {
                    let (barrier, range) = (&barrier, range.clone());
                    scope.spawn(move || client(plan, range, conn, rng, cases, barrier))
                })
                .collect();
            barrier.wait();
            let started = Instant::now();
            let results: Vec<ClientResult> =
                handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
            (results, started.elapsed().as_secs_f64())
        });
        // Both clients run in lockstep, so interleaving their latencies op
        // by op keeps the round in time order.
        let mut latencies = Vec::new();
        let longest = results.iter().map(|r| r.latencies.len()).max().unwrap_or(0);
        for i in 0..longest {
            latencies.extend(results.iter().filter_map(|r| r.latencies.get(i)));
        }
        let traced: usize = results.iter().map(|r| r.traced_latencies.len()).sum();
        for r in results {
            out.traced_latencies.extend(r.traced_latencies);
            for result in r.results {
                out.record(result);
            }
            trace.absorb(r.trace);
        }
        // In a traced run half the passes are traced; the untraced share of
        // the wall time is apportioned by op count.
        let untraced = latencies.len() as f64;
        (latencies, wall * untraced / (untraced + traced as f64))
    });
    if plan.traced {
        trace.record(&mut out.layers);
        if let Some(conn) = daemon.connections.first_mut() {
            if let Ok(Response::ServerStats(stats)) = conn.roundtrip(&Request::Stats) {
                let count = |k: &str| stats.get(k).and_then(Json::number).unwrap_or(0.0);
                out.layers.set("server.degraded", count("degraded"), "count");
                out.layers.set("server.shed", count("shed"), "count");
            }
        }
    }
}

/// Runs the workload.
pub fn run(plan: &Plan) -> Outcome {
    let queries = queries(plan.short);
    let (setup, setup_s) = repeat_setup(plan, || {
        let cases = references(&queries)?;
        let daemon = start(&cases)?;
        Ok::<_, String>((cases, daemon))
    });
    let mut out = Outcome {
        setup_s,
        setup_covers: "local reference answers, daemon start, 2 connections, one warm-up pass",
        sizes: format!(
            "{} queries per pass per connection, {CONNECTIONS} closed-loop connections",
            queries.len()
        ),
        ..Outcome::default()
    };
    match setup {
        Ok((cases, mut daemon)) => measure(plan, &mut daemon, &cases, &mut out),
        Err(e) => out.record(Err(format!("set-up failed: {e}"))),
    }
    out
}
