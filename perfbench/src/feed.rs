//! Workload inputs: scenarios derived from the workload seed, and the
//! pre-built feeds a `vcountd` feeder replays, each with the reference
//! event digests an in-process [`Runner`] produces on the same batches.
//!
//! Everything here runs during set-up, before any clock starts: no traffic
//! simulation happens while a workload is measured on the daemon side.

use std::sync::{Arc, Mutex};

use vcount_obs::{EventRecord, EventSink};
use vcount_roadnet::builders::ManhattanConfig;
use vcount_sim::{
    Goal, ObservationBatch, ObservationSource, Runner, Scenario, ServiceRequest, SimulatorSource,
    TruthSnapshot,
};
use vcount_traffic::SimSnapshot;

/// The two paper presets the workloads use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Preset {
    /// Closed midtown (Alg. 3 + Alg. 4): border lanes closed.
    Closed,
    /// Open midtown (Alg. 5 border counting + Alg. 4).
    Open,
}

/// What one workload replays: a preset at a volume, on the paper map or
/// (for the benchmark's own tests) the small map.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which paper preset.
    pub preset: Preset,
    /// Traffic volume, percent.
    pub volume: f64,
    /// Small map instead of the paper's 12×37 midtown.
    pub toy: bool,
    /// Cap on the Observes of one feed; `None` feeds until the goal.
    pub prefix: Option<usize>,
    /// A `Snapshot` request after every this many Observes (0 = none).
    pub snapshot_every: usize,
}

impl Spec {
    /// The scenario of the `index`-th unit of work under workload seed
    /// `seed`, exactly as `vcount scenario --preset P --volume V --rng R`
    /// builds it (one seed checkpoint).
    pub fn scenario(&self, seed: u64, index: u64) -> Scenario {
        let map = if self.toy {
            ManhattanConfig::small()
        } else {
            ManhattanConfig::default()
        };
        let rng = scenario_rng(seed, index);
        match self.preset {
            Preset::Closed => Scenario::paper_closed(map, self.volume, 1, rng),
            Preset::Open => Scenario::paper_open(map, self.volume, 1, rng),
        }
    }
}

/// The traffic RNG seed of unit `index` under workload seed `seed`.
pub fn scenario_rng(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(index)
}

/// 64-bit FNV-1a, fed one event line (plus its newline) at a time — the
/// digest the program's own identity tests use for event streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Absorbs one JSONL line.
    pub fn line(&mut self, line: &str) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }
}

/// Digests every stamped event of a run, line by line, as the daemon would
/// send it in `Event` responses.
struct DigestSink(Arc<Mutex<Fnv>>);

impl EventSink for DigestSink {
    fn record(&mut self, rec: &EventRecord) {
        self.0.lock().expect("digest poisoned").line(&rec.to_json());
    }
}

/// The service's completion predicate for [`Goal::Collection`].
pub fn collected(runner: &Runner) -> bool {
    runner.all_stable() && runner.all_collected() && !runner.reports_in_flight()
}

/// One pre-built tenant feed: the Start scenario, one batch per step, the
/// feeder's traffic state where a `Snapshot` is due, the closing ground
/// truth, and the reference digests to check the daemon's event lines.
pub struct Feed {
    /// The scenario sent in `Start`.
    pub scenario: Scenario,
    /// One observation batch per Observe, in order.
    pub batches: Vec<ObservationBatch>,
    /// `(after batch index, feeder traffic state)` for each Snapshot.
    pub sims: Vec<(usize, SimSnapshot)>,
    /// Ground truth for `Finish`; `Some` only when the feed reaches the
    /// goal on its last batch.
    pub truth: Option<TruthSnapshot>,
    /// Event-line digest after `Start` (index 0) and after each batch.
    pub digests: Vec<u64>,
    /// Event-line digest after `Finish` (complete feeds).
    pub final_digest: u64,
    /// The reference run's collected global count (complete feeds).
    pub global_count: i64,
    /// Traffic events across all batches.
    pub traffic_events: u64,
    /// The feeder's traffic state after the last batch (the per-layer
    /// run's snapshot probe on feeds that carry no Snapshot requests).
    pub final_sim: Option<SimSnapshot>,
}

impl Feed {
    /// Simulates `scenario` once, recording every batch and driving an
    /// in-process externally fed [`Runner`] with the same batches — the
    /// reference the daemon's tenant must match byte for byte.
    pub fn build(spec: &Spec, scenario: Scenario) -> Result<Feed, String> {
        let digest = Arc::new(Mutex::new(Fnv::default()));
        let current = || digest.lock().expect("digest poisoned").0;
        let mut runner = Runner::builder(&scenario)
            .external(true)
            .sink(Box::new(DigestSink(digest.clone())))
            .try_build()?;
        let mut source = SimulatorSource::from_scenario(&scenario, 1);
        let mut feed = Feed {
            scenario: scenario.clone(),
            batches: Vec::new(),
            sims: Vec::new(),
            truth: None,
            digests: vec![current()],
            final_digest: 0,
            global_count: 0,
            traffic_events: 0,
            final_sim: None,
        };
        loop {
            let mut batch = ObservationBatch::default();
            source.next_batch(&mut batch);
            runner.ingest(&batch);
            feed.traffic_events += batch.events.len() as u64;
            feed.batches.push(batch);
            feed.digests.push(current());
            if collected(&runner) {
                break;
            }
            if runner.time_s() >= scenario.max_time_s {
                return Err(format!(
                    "scenario rng {} did not reach collection within its time budget",
                    scenario.sim.seed
                ));
            }
            let n = feed.batches.len();
            if spec.snapshot_every > 0 && n.is_multiple_of(spec.snapshot_every) {
                let sim = source.sim_state().expect("simulator source has state");
                feed.sims.push((n - 1, sim));
            }
            if spec.prefix.is_some_and(|p| n >= p) {
                feed.final_sim = source.sim_state();
                return Ok(feed);
            }
        }
        feed.final_sim = source.sim_state();
        let truth = source.truth().expect("simulator source knows the truth");
        runner.provide_truth(truth.clone());
        runner.flush_sinks();
        let metrics = runner.metrics_now();
        if metrics.global_count != Some(metrics.true_population as i64)
            || metrics.oracle_violations != 0
            || metrics.degraded
        {
            return Err(format!(
                "reference run of scenario rng {} is not exact: {:?} vs {}",
                scenario.sim.seed, metrics.global_count, metrics.true_population
            ));
        }
        feed.global_count = metrics.true_population as i64;
        feed.final_digest = current();
        feed.truth = Some(truth);
        Ok(feed)
    }

    /// Whether the feed ends at the goal (and so closes with `Finish`).
    pub fn complete(&self) -> bool {
        self.truth.is_some()
    }

    /// The request sequence a feeder sends for this feed: Start, then
    /// Observes with Snapshots interleaved, then Finish (complete feeds)
    /// or Stop (prefixes).
    pub fn steps(&self) -> Vec<Step> {
        let mut steps = vec![Step::Start];
        let mut sims = self.sims.iter().enumerate().peekable();
        for i in 0..self.batches.len() {
            steps.push(Step::Observe(i));
            if let Some((k, _)) = sims.next_if(|(_, (after, _))| *after == i) {
                steps.push(Step::Snapshot(k));
            }
        }
        steps.push(if self.complete() {
            Step::Finish
        } else {
            Step::Stop
        });
        steps
    }

    /// The wire request for `step` under run id `run`.
    pub fn request(&self, run: &str, step: Step) -> ServiceRequest {
        match step {
            Step::Start => ServiceRequest::Start {
                run: run.to_string(),
                scenario: Box::new(self.scenario.clone()),
                goal: Some(Goal::Collection),
                shards: 0,
                eager_decode: false,
                faults: None,
                trace: None,
            },
            Step::Observe(i) => ServiceRequest::Observe {
                run: run.to_string(),
                batch: self.batches[i].clone(),
            },
            Step::Snapshot(k) => ServiceRequest::Snapshot {
                run: run.to_string(),
                sim: Some(self.sims[k].1.clone()),
            },
            Step::Finish => ServiceRequest::Finish {
                run: run.to_string(),
                truth: self.truth.clone(),
            },
            Step::Stop => ServiceRequest::Stop {
                run: run.to_string(),
            },
        }
    }
}

/// One request of a feed, by position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Create the tenant.
    Start,
    /// Push batch `i`.
    Observe(usize),
    /// Freeze the tenant with the feeder's `k`-th traffic state.
    Snapshot(usize),
    /// Close a complete feed with ground truth.
    Finish,
    /// Close a feed cut short (a prefix, or the clock ran out).
    Stop,
}
