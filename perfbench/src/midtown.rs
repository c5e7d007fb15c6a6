//! `midtown_run`: the paper's closed midtown preset run to collection
//! in-process, exactly as `vcount run` drives it.

use std::time::{Duration, Instant};

use vcount_sim::{ObservationBatch, ObservationSource, Runner, Scenario, SimulatorSource};

use crate::feed::{collected, Spec};
use crate::stats::{secs, stamp_ns, traced_op, Modes, Timeline, Tracer};

/// Ready-runner builds timed before each scenario, besides the one the
/// scenario runs on. The machine's speed drifts over seconds, so set-up
/// is sampled all through the run rather than in one burst at its start.
pub const SETUP_SAMPLES_PER_SCENARIO: usize = 3;

/// Step-log slots reserved per second of budget, about twice the fastest
/// step rate seen. The log shares the process whose peak RSS is
/// `peak_rss_mb`, so it is written through once before the clock starts:
/// it then adds the same memory to every run, however many steps the run
/// gets through.
const STEP_LOG_PER_S: f64 = 12_000.0;

/// What the in-process loop measured.
#[derive(Default)]
pub struct Loop {
    /// `(end µs since the loop started, wall ns)` of every step as
    /// `vcount run` takes it; compact, because it shares the measured
    /// process.
    pub steps: Vec<(u32, u32)>,
    /// `(taken at µs, seconds)`: scenario → ready `Runner` (seeds
    /// activated) times.
    pub setups: Vec<(u32, f64)>,
    /// Steps of scenarios whose final check passed.
    pub ok_steps: u64,
    /// Scenarios run.
    pub scenarios: u64,
    /// Wall time from the loop's start to its end, nanoseconds.
    pub end_ns: u64,
    /// The traced run's untraced and traced steps.
    pub modes: Modes,
    /// Correctness failures, one line each.
    pub failures: Vec<String>,
}

impl Loop {
    /// Steps attempted.
    pub fn steps(&self) -> u64 {
        self.steps.len() as u64
    }

    /// The run on the benchmark's common clock.
    pub fn timeline(&self) -> Timeline {
        let ns = |us: u32| u64::from(us) * 1000;
        Timeline {
            ops: self
                .steps
                .iter()
                .map(|&(end, wall)| (ns(end), f64::from(wall) * 1e-9, true))
                .collect(),
            setups: self.setups.iter().map(|&(at, s)| (ns(at), s)).collect(),
        }
    }
}

/// Runs scenario after scenario to collection for `budget`, timing each
/// step, and checks each run's count against ground truth.
///
/// Untraced (`tracer` disabled), each step is one `Runner::step`, as in
/// `vcount run`, and set-up is sampled before every scenario. Traced, the
/// benchmark calls [`SimulatorSource::next_batch`] and [`Runner::ingest`]
/// itself — the two calls `Runner::step` makes — so each gets a span
/// under the step's; a pseudo-random half of the steps runs the same path
/// with the tracer off, for the tracing overhead.
pub fn run(spec: &Spec, seed: u64, budget: Duration, tracer: &mut Tracer) -> Loop {
    let mut out = Loop::default();
    let slots = (budget.as_secs_f64() * STEP_LOG_PER_S) as usize;
    out.steps.resize(slots, (u32::MAX, u32::MAX));
    std::hint::black_box(&mut out.steps);
    out.steps.clear();
    let external = tracer.enabled();
    let start = Instant::now();
    for index in 0.. {
        let scenario = spec.scenario(seed, index);
        if !external {
            for _ in 0..SETUP_SAMPLES_PER_SCENARIO {
                let t = Instant::now();
                let runner = Runner::builder(&scenario).build();
                out.setups.push((us_since(start), secs(t)));
                drop(runner);
            }
        }
        let t = Instant::now();
        let runner = Runner::builder(&scenario).external(external).build();
        out.setups.push((us_since(start), secs(t)));
        run_scenario(&scenario, runner, external, start, tracer, &mut out);
        if start.elapsed() >= budget {
            break;
        }
    }
    out.end_ns = stamp_ns(start);
    out
}

/// Microseconds since `start`, saturating.
fn us_since(start: Instant) -> u32 {
    u32::try_from(start.elapsed().as_micros()).unwrap_or(u32::MAX)
}

/// Steps one scenario's ready `runner` to collection (externally fed from
/// a [`SimulatorSource`] when `external`) and checks the final count.
fn run_scenario(
    scenario: &Scenario,
    mut runner: Runner,
    external: bool,
    start: Instant,
    tracer: &mut Tracer,
    out: &mut Loop,
) {
    let mut source = external.then(|| SimulatorSource::from_scenario(scenario, 1));
    let mut batch = ObservationBatch::default();
    let first = out.steps.len();
    loop {
        let id = out.steps.len() as u64;
        let traced = external && traced_op(id);
        let t0 = Instant::now();
        tracer.set_enabled(traced);
        let step = tracer.open("step", None, id);
        let t = Instant::now();
        match source.as_mut() {
            None => {
                runner.step();
            }
            Some(source) => {
                let s = tracer.open("source.next_batch", Some(step), id);
                source.next_batch(&mut batch);
                tracer.close(s);
                let e = tracer.open("engine.ingest", Some(step), id);
                runner.ingest(&batch);
                tracer.close(e);
            }
        }
        let wall = u32::try_from(t.elapsed().as_nanos()).unwrap_or(u32::MAX);
        out.steps.push((us_since(start), wall));
        let done = collected(&runner) || runner.time_s() >= scenario.max_time_s;
        tracer.close(step);
        out.modes.add(traced, 1, secs(t0));
        if done {
            break;
        }
    }
    tracer.set_enabled(external);
    runner.flush_sinks();
    if let Some(source) = &source {
        runner.provide_truth(source.truth().expect("simulator source knows the truth"));
    }
    let m = runner.metrics_now();
    out.scenarios += 1;
    if m.global_count == Some(m.true_population as i64) && m.oracle_violations == 0 && !m.degraded {
        out.ok_steps += (out.steps.len() - first) as u64;
    } else {
        out.failures.push(format!(
            "scenario rng {}: global_count {:?} vs true population {}, {} oracle violations, degraded {}",
            scenario.sim.seed, m.global_count, m.true_population, m.oracle_violations, m.degraded
        ));
    }
}
