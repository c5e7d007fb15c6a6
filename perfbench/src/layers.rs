//! The traced run's per-layer measurements: each layer's public calls
//! timed from the benchmark's own code, on the workload's own feed.

use std::time::Instant;

use vcount_sim::{
    ObservationBatch, ObservationSource, RunManager, Runner, ServiceConfig, ServiceRequest,
    ServiceResponse, SimulatorSource,
};
use vcount_traffic::Simulator;

use crate::daemon::check_answer;
use crate::feed::{Feed, Fnv, Step};
use crate::stats::{mean, median, secs, Tracer};

/// Snapshot requests replayed on feeds that carry none, so that
/// `service.snapshot_us` is measured on every workload.
const SNAPSHOT_PROBES: usize = 5;

/// `Start`s replayed in-process for `service.start_us`.
const START_PROBES: usize = 21;

/// Per-request costs of the in-process single-thread service replay,
/// seconds (and bytes), indexed like [`Feed::steps`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Feeder `serde_json` encode of the request.
    pub encode: f64,
    /// Daemon parse of the request line.
    pub parse: f64,
    /// `ObservationBatch::validate` (Observes only).
    pub validate: f64,
    /// `RunManager::handle`.
    pub handle: f64,
    /// Daemon serialisation of every response line.
    pub serialize: f64,
    /// Feeder `serde_json` decode of every response line.
    pub decode: f64,
    /// Request line length, bytes.
    pub req_bytes: usize,
    /// Response lines' total length, bytes.
    pub resp_bytes: usize,
}

impl Cost {
    /// The daemon's own work for the request.
    pub fn server(&self) -> f64 {
        self.parse + self.handle + self.serialize
    }

    /// Everything but the transport: both ends' work.
    pub fn work(&self) -> f64 {
        self.server() + self.encode + self.decode
    }
}

/// The per-layer numbers of one feed.
pub struct Layers {
    /// Bare `Simulator::step`, seconds per step.
    pub step_s: f64,
    /// `SimulatorSource::next_batch`, seconds per step.
    pub next_batch_s: f64,
    /// Standalone external `Runner::ingest`, seconds per batch.
    pub ingest_s: f64,
    /// Protocol events per step (from the runner's telemetry).
    pub events_per_step: f64,
    /// Messages encoded by the exchange per step.
    pub msgs_per_step: f64,
    /// Service replay costs, one per feed request.
    pub costs: Vec<Cost>,
    /// `Snapshot` handle plus serialise, seconds each.
    pub snapshot_s: Vec<f64>,
    /// In-process `Start` parse + handle + serialise, seconds each.
    pub start_s: Vec<f64>,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
}

impl Layers {
    /// Mean of one cost field over the feed's Observes.
    pub fn observe_mean(&self, feed: &Feed, f: impl Fn(&Cost) -> f64) -> f64 {
        let per: Vec<f64> = feed
            .steps()
            .iter()
            .zip(&self.costs)
            .filter(|(s, _)| matches!(s, Step::Observe(_)))
            .map(|(_, c)| f(c))
            .collect();
        mean(&per)
    }

    /// Observes per second of single-thread in-process service work over
    /// the whole feed (every request's parse, handle and serialise).
    pub fn replay_rate(&self, feed: &Feed) -> f64 {
        let work: f64 = self.costs.iter().map(Cost::server).sum();
        feed.batches.len() as f64 / work
    }
}

/// Measures every layer on `feed`, recording a span per call.
pub fn measure(feed: &Feed, tracer: &mut Tracer) -> Layers {
    let mut failures = Vec::new();
    let scenario = &feed.scenario;
    let n = feed.batches.len();

    // traffic: the bare simulator on the same scenario and seed.
    assert_eq!(
        scenario.patrol.cars, 0,
        "paper presets deploy no patrol cars"
    );
    let net = scenario.map.build(scenario.closed);
    let mut sim = Simulator::new(net, scenario.sim.clone(), scenario.demand.clone());
    // source: traffic step plus batch assembly. The two run in lockstep,
    // one step each, first one then the other, so machine drift and the
    // cache misses of going first fall on both alike and their difference
    // is the assembly.
    let mut source = SimulatorSource::from_scenario(scenario, 1);
    let mut batch = ObservationBatch::default();
    let mut events = 0u64;
    let (mut step_s, mut next_batch_s) = (0.0, 0.0);
    for i in 0..n {
        for first in [i % 2 == 0, i % 2 == 1] {
            if first {
                let span = tracer.open("traffic.step", None, i as u64);
                let t = Instant::now();
                events += std::hint::black_box(sim.step()).len() as u64;
                step_s += secs(t);
                tracer.close(span);
            } else {
                let span = tracer.open("source.next_batch", None, i as u64);
                let t = Instant::now();
                source.next_batch(&mut batch);
                next_batch_s += secs(t);
                tracer.close(span);
            }
        }
    }
    let (step_s, next_batch_s) = (step_s / n as f64, next_batch_s / n as f64);
    if events != feed.traffic_events {
        failures.push(format!(
            "bare simulator produced {events} traffic events, the feed {}",
            feed.traffic_events
        ));
    }
    drop((sim, source));

    // engine: the same batches through a standalone external runner.
    let mut runner = Runner::builder(scenario).external(true).build();
    let t = Instant::now();
    for (i, batch) in feed.batches.iter().enumerate() {
        let span = tracer.open("engine.ingest", None, i as u64);
        runner.ingest(batch);
        tracer.close(span);
    }
    let ingest_s = secs(t) / n as f64;
    let telemetry = runner.telemetry();
    drop(runner);

    let (costs, snapshot_s) = replay_service(feed, tracer, &mut failures);
    let start_s = replay_starts(feed, tracer, &mut failures);
    Layers {
        step_s,
        next_batch_s,
        ingest_s,
        events_per_step: telemetry.events_total() as f64 / n as f64,
        msgs_per_step: telemetry.messages_encoded as f64 / n as f64,
        costs,
        snapshot_s,
        start_s,
        failures,
    }
}

/// Times one request through the daemon's path, in-process: the feeder's
/// encode, the daemon's parse, validate (Observes), handle and serialise,
/// and the feeder's decode. Returns the cost and the decoded answer.
fn one_request(
    mgr: &mut RunManager,
    request: &ServiceRequest,
    announced: &mut usize,
    shape: (usize, usize),
    req: u64,
    tracer: &mut Tracer,
) -> (Cost, Vec<ServiceResponse>) {
    let mut cost = Cost::default();
    let root = tracer.open("service.request", None, req);
    let mut timed = |name: &'static str, slot: &mut f64, f: &mut dyn FnMut()| {
        let span = tracer.open(name, Some(root), req);
        let t = Instant::now();
        f();
        *slot = secs(t);
        tracer.close(span);
    };
    let mut line = String::new();
    timed("client.encode", &mut cost.encode, &mut || {
        line = serde_json::to_string(request).expect("requests serialise");
    });
    cost.req_bytes = line.len() + 1;
    let mut parsed = None;
    timed("service.parse", &mut cost.parse, &mut || {
        parsed = Some(serde_json::from_str::<ServiceRequest>(&line).expect("own line parses"));
    });
    let parsed = parsed.expect("parsed above");
    if let ServiceRequest::Observe { batch, .. } = &parsed {
        timed("service.validate", &mut cost.validate, &mut || {
            batch
                .validate(*announced, shape.0, shape.1)
                .expect("feed batches are valid");
        });
        *announced += batch.new_classes.len();
    }
    let mut out = Vec::new();
    let mut parsed = Some(parsed);
    timed("service.handle", &mut cost.handle, &mut || {
        mgr.handle(parsed.take().expect("handled once"), &mut out)
    });
    let mut lines = Vec::new();
    timed("service.serialize", &mut cost.serialize, &mut || {
        lines = out
            .iter()
            .map(|r| serde_json::to_string(r).expect("responses serialise"))
            .collect();
    });
    cost.resp_bytes = lines.iter().map(|l| l.len() + 1).sum();
    let mut answer = Vec::new();
    timed("client.decode", &mut cost.decode, &mut || {
        answer = lines
            .iter()
            .map(|l| serde_json::from_str::<ServiceResponse>(l).expect("own line parses"))
            .collect();
    });
    tracer.close(root);
    (cost, answer)
}

/// Replays the feed's exact request stream through a fresh single-thread
/// [`RunManager`], checking every answer as a feeder would. Feeds without
/// Snapshot requests get [`SNAPSHOT_PROBES`] of them before their last
/// request, outside the per-request costs.
fn replay_service(
    feed: &Feed,
    tracer: &mut Tracer,
    failures: &mut Vec<String>,
) -> (Vec<Cost>, Vec<f64>) {
    let net = feed.scenario.map.build(feed.scenario.closed);
    let shape = (net.node_count(), net.edge_count());
    let mut mgr = RunManager::new(ServiceConfig::default());
    let run = "layers";
    let mut fnv = Fnv::default();
    let mut announced = 0usize;
    let steps = feed.steps();
    let mut costs = Vec::with_capacity(steps.len());
    let mut snapshot_s = Vec::new();
    for (idx, &step) in steps.iter().enumerate() {
        if idx == steps.len() - 1 && feed.sims.is_empty() {
            let sim = feed.final_sim.clone();
            for _ in 0..SNAPSHOT_PROBES {
                let request = ServiceRequest::Snapshot {
                    run: run.to_string(),
                    sim: sim.clone(),
                };
                let (cost, answer) =
                    one_request(&mut mgr, &request, &mut announced, shape, u64::MAX, tracer);
                snapshot_s.push(cost.handle + cost.serialize);
                if !matches!(answer.last(), Some(ServiceResponse::Snapshot { .. })) {
                    failures.push(format!("snapshot probe answered {:?}", answer.last()));
                }
            }
        }
        let request = feed.request(run, step);
        let (cost, answer) = one_request(
            &mut mgr,
            &request,
            &mut announced,
            shape,
            idx as u64,
            tracer,
        );
        if let Step::Snapshot(_) = step {
            snapshot_s.push(cost.handle + cost.serialize);
        }
        if let Err(e) = check_answer(feed, step, run, &answer, &mut fnv) {
            failures.push(format!("in-process replay request {idx}: {e}"));
        }
        costs.push(cost);
    }
    (costs, snapshot_s)
}

/// `Start` then `Stop`, [`START_PROBES`] times, in-process; returns each
/// Start's parse + handle + serialise.
fn replay_starts(feed: &Feed, tracer: &mut Tracer, failures: &mut Vec<String>) -> Vec<f64> {
    let mut mgr = RunManager::new(ServiceConfig::default());
    let mut announced = 0;
    let mut out = Vec::with_capacity(START_PROBES);
    for j in 0..START_PROBES {
        let run = format!("start-{j}");
        for step in [Step::Start, Step::Stop] {
            let (cost, answer) = one_request(
                &mut mgr,
                &feed.request(&run, step),
                &mut announced,
                (0, 0),
                u64::MAX,
                tracer,
            );
            if step == Step::Start {
                out.push(cost.server());
            }
            if let Err(e) = check_answer(feed, step, &run, &answer, &mut Fnv::default()) {
                failures.push(format!("in-process {run}: {e}"));
            }
        }
    }
    out
}

/// `server.wait_us_p50`: the median, over the daemon phase's requests of
/// the first feed (the one measured here), of the feeder's round trip
/// minus both ends' work on the same request index in-process — what is
/// left is transport, lock wait and scheduling. Returns it with its
/// sample count.
pub fn wait_p50_s(layers: &Layers, indexed: &[(usize, usize, f64)]) -> (f64, usize) {
    let mut waits: Vec<f64> = indexed
        .iter()
        .filter(|(f, _, _)| *f == 0)
        .filter_map(|&(_, idx, rtt)| layers.costs.get(idx).map(|c| rtt - c.work()))
        .collect();
    if waits.is_empty() {
        return (f64::NAN, 0);
    }
    let n = waits.len();
    (median(&mut waits), n)
}
