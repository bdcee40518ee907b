//! `monitor_long`: a few long streams fed one event at a time to an
//! offline [`Monitor`], on one thread.
//!
//! Why: on these streams SC is refuted early and the frontier cap is
//! passed, so nearly every event rechecks the whole prefix of the
//! restart-mode models. That O(n)-per-event cost is what incremental
//! saturation targets, measured here with no serve layer involved.
//! DASH PC is left out (it is not in `saturating_models()`): its
//! rechecks always take the exhaustive engine, a known cliff.

use std::time::Instant;

use smc_core::checker::{check_with_config, CheckConfig};
use smc_core::models;
use smc_core::spec::ModelSpec;
use smc_history::trace::Trace;
use smc_monitor::{Monitor, MonitorConfig, StepReport, TriVerdict};
use smc_serve::DEFAULT_SESSION_MAX_STATES;

use crate::gen::{machine_trace, sub_seed, Machine, TraceShape};
use crate::stats::{fail_frac, median, percentile, ratio, Fastest, Tracer};
use crate::{Headline, Line, Report, Workload, MIN_REPETITIONS};

const CAUSAL: TraceShape = TraceShape {
    machine: Machine::Causal,
    procs: 3,
    locs: 2,
    events: 256,
    values: None,
};
const PRAM: TraceShape = TraceShape {
    machine: Machine::Pram,
    ..CAUSAL
};
/// The streams of one cycle, fresh values: 1024 events, so the event
/// p99 has ten samples beyond it.
const SHAPES: [TraceShape; 4] = [CAUSAL, PRAM, CAUSAL, PRAM];

/// Prepared streams and their batch verdicts.
pub struct MonitorLong {
    seed: u64,
    models: Vec<ModelSpec>,
    streams: Vec<Trace>,
    /// Per stream, per model: the batch checker's verdict on the whole
    /// stream (computed once, after the first timed cycle).
    expected: Vec<Option<Vec<Option<bool>>>>,
}

/// Events of the first stream fed once during set-up.
const WARMUP_EVENTS: usize = 96;

/// Generate the streams and warm up on a prefix of the first.
pub fn setup(seed: u64) -> Result<MonitorLong, String> {
    let streams = SHAPES
        .iter()
        .enumerate()
        .map(|(i, shape)| machine_trace(shape, sub_seed(seed, 2, i as u64)))
        .collect::<Result<Vec<_>, String>>()?;
    let bench = MonitorLong {
        seed,
        models: models::saturating_models(),
        expected: vec![None; streams.len()],
        streams,
    };
    let t = &bench.streams[0];
    let mut warm = bench.monitor(t);
    for e in &t.events()[..WARMUP_EVENTS] {
        warm.feed(
            t.proc_name(e.proc),
            e.kind,
            t.loc_name(e.loc),
            e.value.0,
            e.label,
        );
    }
    Ok(bench)
}

/// What one stream's feed returned.
struct StreamRun {
    feed_ns: Vec<u64>,
    steps: StepReport,
    unknown_events: u64,
    verdicts: Vec<TriVerdict>,
}

impl MonitorLong {
    fn monitor(&self, t: &Trace) -> Monitor {
        // A fresh config carries a fresh memo: streams share nothing.
        let mut mon = Monitor::new(
            self.models.clone(),
            MonitorConfig {
                max_frontier_states: DEFAULT_SESSION_MAX_STATES,
                ..MonitorConfig::default()
            },
        );
        for p in t.proc_names() {
            mon.declare_proc(p);
        }
        for l in t.loc_names() {
            mon.declare_loc(l);
        }
        mon
    }

    fn feed_stream(&self, idx: usize, tracer: Option<&mut Tracer>) -> StreamRun {
        let t = &self.streams[idx];
        let mut mon = self.monitor(t);
        let mut run = StreamRun {
            feed_ns: Vec::with_capacity(t.len()),
            steps: StepReport::default(),
            unknown_events: 0,
            verdicts: Vec::new(),
        };
        let mut tracer = tracer;
        let root = tracer
            .as_mut()
            .map(|tr| tr.begin("monitor.stream", idx as u64));
        for e in t.events() {
            let (p, l) = (t.proc_name(e.proc), t.loc_name(e.loc));
            let (step, ns) = match tracer.as_mut() {
                Some(tr) => {
                    let s = tr.begin("monitor.feed", idx as u64);
                    let step = mon.feed(p, e.kind, l, e.value.0, e.label);
                    (step, tr.end(s))
                }
                None => {
                    let t0 = Instant::now();
                    let step = mon.feed(p, e.kind, l, e.value.0, e.label);
                    (step, t0.elapsed().as_nanos() as u64)
                }
            };
            run.feed_ns.push(ns);
            run.steps.absorb(step);
            if mon.verdicts().contains(&TriVerdict::Unknown) {
                run.unknown_events += 1;
            }
        }
        if let (Some(tr), Some(root)) = (tracer, root) {
            tr.end(root);
        }
        run.verdicts = mon.verdicts().to_vec();
        run
    }

    /// The batch checker's verdicts on stream `idx`, computed once.
    fn expected(&mut self, idx: usize) -> &[Option<bool>] {
        if self.expected[idx].is_none() {
            let h = self.streams[idx].history();
            let cfg = CheckConfig::default();
            self.expected[idx] = Some(
                self.models
                    .iter()
                    .map(|m| check_with_config(&h, m, &cfg).decided())
                    .collect(),
            );
        }
        self.expected[idx].as_deref().expect("just computed")
    }

    /// Feed every stream once per cycle, for at least
    /// [`MIN_REPETITIONS`] cycles and until `seconds` have passed.
    /// Returns each event's fastest feed (ns) and every stream run.
    fn cycles(
        &self,
        seconds: f64,
        mut tracer: Option<&mut Tracer>,
    ) -> (Fastest, Vec<(usize, StreamRun)>) {
        let mut best = Fastest::new(self.streams.iter().map(Trace::len).sum());
        let mut runs = Vec::new();
        let mut cycles = 0;
        let t0 = Instant::now();
        while cycles < MIN_REPETITIONS || t0.elapsed().as_secs_f64() < seconds {
            // Events are numbered across the cycle's streams.
            let mut first_event = 0;
            for idx in 0..self.streams.len() {
                let run = self.feed_stream(idx, tracer.as_deref_mut());
                for (i, &ns) in run.feed_ns.iter().enumerate() {
                    best.record(first_event + i, ns as f64);
                }
                first_event += run.feed_ns.len();
                runs.push((idx, run));
            }
            cycles += 1;
        }
        (best, runs)
    }

    /// Compare every stream's final verdicts with a batch check of the
    /// whole stream; a mismatched stream fails all its events, and every
    /// event that leaves a model `unknown` fails.
    fn check(&mut self, runs: &[(usize, StreamRun)]) -> (u64, u64, Vec<String>) {
        let (mut attempted, mut failed) = (0u64, 0u64);
        let mut mismatches = Vec::new();
        for (idx, run) in runs {
            attempted += run.feed_ns.len() as u64;
            failed += run.unknown_events;
            let want = self.expected(*idx).to_vec();
            for (m, (got, want)) in run.verdicts.iter().zip(want).enumerate() {
                let ok = matches!(
                    (got, want),
                    (TriVerdict::Admitted, Some(true)) | (TriVerdict::Violated, Some(false))
                );
                if !ok {
                    failed += run.feed_ns.len() as u64;
                    mismatches.push(format!(
                        "monitor_long: stream {idx} model {}: monitor says {}, batch says {want:?}",
                        self.models[m].name,
                        got.word()
                    ));
                }
            }
        }
        (attempted, failed, mismatches)
    }
}

impl Workload for MonitorLong {
    fn describe(&self) -> String {
        let shapes: Vec<String> = SHAPES.iter().map(TraceShape::label).collect();
        format!(
            "seed={} inputs: one stream each of [{}], fed one event at a time; {} models \
             (saturating_models), frontier cap {}, fresh memo per stream",
            self.seed,
            shapes.join("; "),
            self.models.len(),
            DEFAULT_SESSION_MAX_STATES
        )
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Result<Report, String> {
        let mut tracer = traced.then(|| Tracer::new(Instant::now()));
        let (best, runs) = self.cycles(seconds, tracer.as_mut());
        let (attempted, failed, mismatches) = self.check(&runs);
        let reps = runs.len() / self.streams.len();
        let feed_us: Vec<f64> = best.times().iter().map(|ns| ns / 1e3).collect();
        let p50 = percentile(&feed_us, 50);
        let p99 = percentile(&feed_us, 99);
        let headline = Headline {
            throughput_per_s: best.rate() * 1e9,
            latency_p50_ms: p50.value / 1e3,
            latency_tail_ms: p99.value / 1e3,
        };
        let mut report = Report {
            attempted,
            failed,
            mismatches,
            lines: vec![
                Line::new(
                    "events_per_s",
                    headline.throughput_per_s,
                    "1/s",
                    format!(
                        "{} events, each at its fastest of {reps} feeds",
                        feed_us.len()
                    ),
                ),
                Line::new(
                    "event_p50_us",
                    p50.value,
                    "us",
                    format!("n={} fastest feeds", p50.n),
                ),
                Line::new(
                    "event_p99_us",
                    p99.value,
                    "us",
                    format!("n={} fastest feeds, {} beyond", p99.n, p99.beyond),
                ),
                Line::new(
                    "fail_frac",
                    fail_frac(failed, attempted),
                    "ratio",
                    format!("{failed} of {attempted} events"),
                ),
            ],
            headline,
            layers: Vec::new(),
            spans: Vec::new(),
        };
        if let Some(tr) = tracer {
            let mut steps = StepReport::default();
            let mut late_over_early = Vec::new();
            for (_, r) in &runs {
                steps.absorb(r.steps);
                let q = r.feed_ns.len() / 4;
                let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
                late_over_early
                    .push(mean(&r.feed_ns[r.feed_ns.len() - q..]) / mean(&r.feed_ns[..q]));
            }
            let events = attempted as f64;
            let feed_ns: f64 = runs.iter().flat_map(|(_, r)| &r.feed_ns).sum::<u64>() as f64;
            report.layers = vec![
                ("monitor.feed_ns_per_event", feed_ns / events),
                (
                    "monitor.frontier_created_per_event",
                    steps.created as f64 / events,
                ),
                (
                    "monitor.frontier_expanded_per_event",
                    steps.expanded as f64 / events,
                ),
                (
                    "monitor.frontier_reuse_ratio",
                    ratio(
                        steps.reuse_hits as f64,
                        (steps.reuse_hits + steps.created) as f64,
                    ),
                ),
                ("monitor.rechecks_per_event", steps.rechecks as f64 / events),
                (
                    "monitor.recheck_nodes_per_event",
                    steps.recheck_nodes as f64 / events,
                ),
                (
                    "monitor.propagated_ratio",
                    ratio(
                        steps.propagated as f64,
                        (steps.propagated + steps.rechecks) as f64,
                    ),
                ),
                ("monitor.late_over_early", median(&late_over_early)),
            ];
            report.spans = tr.into_spans();
        }
        Ok(report)
    }
}
