//! `check_bighist`: SC, TSO and PRAM checks of 256- to 1024-operation
//! histories under the default `Auto` engine.
//!
//! Why: this is the only workload that exercises the conflict-driven
//! saturation solver — its learning and restarts — with refutations
//! (the stale-read runs) next to admissions. The ground truth is known
//! by construction, and every `Allowed` witness is re-verified.

use std::time::Instant;

use smc_bench::bighist::{sc_run, sc_run_aliased, stale_run};
use smc_core::checker::{check_with_stats, CheckConfig, CheckStats, Verdict};
use smc_core::spec::ModelSpec;
use smc_core::verify::verify_witness;
use smc_core::{models, Engine};
use smc_history::History;

use crate::gen::sub_seed;
use crate::stats::{fail_frac, percentile, ratio, Fastest, Tracer};
use crate::{Headline, Line, Report, Workload, MIN_REPETITIONS};

const PROCS: usize = 4;
const LOCS: usize = 4;
/// Aliased runs: the `bighist/TSO_alias_*` shape (8 locations) with a
/// 12-value alphabet. With 3 values a 256-op check sits on the aliasing
/// wall and its cost swings 80x from seed to seed.
const ALIAS_LOCS: usize = 8;
const ALIAS_VALUES: i64 = 12;

/// Inputs per (model, kind): more distinct inputs average out how hard
/// any one seed's histories happen to be.
const INPUTS_PER_KIND: usize = 3;

/// The inputs of one cycle, per model: (kind, operations).
const KINDS: [(&str, usize); 5] = [
    ("fresh", 256),
    ("fresh", 1024),
    ("aliased", 256),
    ("stale", 256),
    ("stale", 1024),
];

/// One check: a history, the model to check it under, and the verdict
/// known by construction.
struct BigCheck {
    /// `model/kind_ops` label.
    label: String,
    history: History,
    /// Index into the workload's model list.
    model: usize,
    /// `true`: admitted by construction; `false`: refuted.
    admitted: bool,
}

/// Prepared checks.
pub struct CheckBighist {
    seed: u64,
    models: Vec<ModelSpec>,
    checks: Vec<BigCheck>,
    /// Per check: its verdict and witness verification, done once.
    verified: Vec<Option<Result<(), String>>>,
}

/// Generate the histories and warm up with one check of every 256-op
/// input.
pub fn setup(seed: u64) -> Result<CheckBighist, String> {
    let models = vec![models::sc(), models::tso(), models::pram()];
    let mut checks = Vec::new();
    for (m, model) in models.iter().enumerate() {
        for &(kind, ops) in &KINDS {
            for j in 0..INPUTS_PER_KIND {
                let s = sub_seed(seed, 4, checks.len() as u64);
                let (history, admitted) = match kind {
                    "fresh" => (sc_run(s, PROCS, LOCS, ops), true),
                    "aliased" => (
                        sc_run_aliased(s, PROCS, ALIAS_LOCS, ops, ALIAS_VALUES),
                        true,
                    ),
                    _ => (stale_run(s, PROCS, LOCS, ops), false),
                };
                checks.push(BigCheck {
                    label: format!("{}/{kind}_{ops}#{j}", model.name),
                    history,
                    model: m,
                    admitted,
                });
            }
        }
    }
    let bench = CheckBighist {
        seed,
        verified: vec![None; checks.len()],
        models,
        checks,
    };
    for c in bench.checks.iter().filter(|c| c.history.num_ops() <= 256) {
        check_with_stats(&c.history, &bench.models[c.model], &CheckConfig::default());
    }
    Ok(bench)
}

impl CheckBighist {
    /// Check the verdict against the construction and re-verify an
    /// `Allowed` witness; done once per check.
    fn verify(&mut self, i: usize, v: &Verdict) -> Result<(), String> {
        if let Some(done) = &self.verified[i] {
            return done.clone();
        }
        let c = &self.checks[i];
        let model = &self.models[c.model];
        let res = match (v, c.admitted) {
            (Verdict::Allowed(w), true) => verify_witness(&c.history, model, w)
                .map_err(|e| format!("check_bighist: {}: witness rejected: {e}", c.label)),
            (Verdict::Disallowed, false) => Ok(()),
            (v, want) => Err(format!(
                "check_bighist: {}: verdict {:?}, admitted by construction: {want}",
                c.label,
                v.decided()
            )),
        };
        self.verified[i] = Some(res.clone());
        res
    }
}

#[derive(Default)]
struct SatCounters {
    checks: u64,
    ns: u64,
    steps: u64,
    branches: u64,
    wakeups: u64,
    conflicts: u64,
    learned: u64,
    restarts: u64,
}

impl SatCounters {
    fn add(&mut self, ns: u64, st: &CheckStats) {
        if st.engine_used != Engine::Saturate {
            return;
        }
        self.checks += 1;
        self.ns += ns;
        self.steps += st.saturation_steps;
        self.branches += st.saturation_branches;
        self.wakeups += st.saturation_wakeups;
        self.conflicts += st.saturation_conflicts;
        self.learned += st.saturation_learned;
        self.restarts += st.saturation_restarts;
    }
}

impl Workload for CheckBighist {
    fn describe(&self) -> String {
        let kinds: Vec<String> = KINDS.iter().map(|(k, n)| format!("{k}_{n}")).collect();
        format!(
            "seed={} inputs: per model of [SC, TSO, PRAM], {INPUTS_PER_KIND} each of [{}] \
             ({PROCS} procs, {LOCS} locs; aliased: {ALIAS_LOCS} locs, {ALIAS_VALUES} values), \
             {} checks a cycle, engine Auto",
            self.seed,
            kinds.join(", "),
            self.checks.len()
        )
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Result<Report, String> {
        let cfg = CheckConfig::default();
        let mut tracer = traced.then(|| Tracer::new(Instant::now()));
        let mut sat = SatCounters::default();
        let mut best = Fastest::new(self.checks.len());
        let mut outcomes: Vec<(usize, Verdict)> = Vec::new();
        let mut cycles = 0;
        let t0 = Instant::now();
        while cycles < MIN_REPETITIONS || t0.elapsed().as_secs_f64() < seconds {
            for (i, c) in self.checks.iter().enumerate() {
                let model = &self.models[c.model];
                let (v, st, ns) = match tracer.as_mut() {
                    Some(tr) => {
                        let s = tr.begin("core.check", i as u64);
                        let (v, st) = check_with_stats(&c.history, model, &cfg);
                        (v, st, tr.end(s))
                    }
                    None => {
                        let t = Instant::now();
                        let (v, st) = check_with_stats(&c.history, model, &cfg);
                        (v, st, t.elapsed().as_nanos() as u64)
                    }
                };
                best.record(i, ns as f64 / 1e6);
                sat.add(ns, &st);
                outcomes.push((i, v));
            }
            cycles += 1;
        }
        let attempted = outcomes.len() as u64;
        let mut failed = 0u64;
        let mut mismatches = Vec::new();
        for (i, v) in &outcomes {
            if let Err(e) = self.verify(*i, v) {
                failed += 1;
                if !mismatches.contains(&e) {
                    mismatches.push(e);
                }
            }
        }
        let p50 = percentile(best.times(), 50);
        let p90 = percentile(best.times(), 90);
        let headline = Headline {
            throughput_per_s: best.rate() * 1e3,
            latency_p50_ms: p50.value,
            latency_tail_ms: p90.value,
        };
        let mut report = Report {
            attempted,
            failed,
            mismatches,
            lines: vec![
                Line::new(
                    "checks_per_s",
                    headline.throughput_per_s,
                    "1/s",
                    format!(
                        "{} checks, each at its fastest of {cycles} repetitions",
                        self.checks.len()
                    ),
                ),
                Line::new(
                    "check_p50_ms",
                    p50.value,
                    "ms",
                    format!("n={} fastest repetitions", p50.n),
                ),
                Line::new(
                    "check_p90_ms",
                    p90.value,
                    "ms",
                    format!("n={} fastest repetitions, {} beyond", p90.n, p90.beyond),
                ),
                Line::new(
                    "fail_frac",
                    fail_frac(failed, attempted),
                    "ratio",
                    format!("{failed} of {attempted} checks"),
                ),
            ],
            headline,
            layers: Vec::new(),
            spans: Vec::new(),
        };
        if let Some(tr) = tracer {
            let per = |x: u64| ratio(x as f64, sat.checks as f64);
            report.layers = vec![
                ("core.saturate_ns_per_check", per(sat.ns)),
                ("core.sat_steps_per_check", per(sat.steps)),
                ("core.sat_branches_per_check", per(sat.branches)),
                ("core.sat_wakeups_per_check", per(sat.wakeups)),
                ("core.sat_conflicts_per_check", per(sat.conflicts)),
                ("core.sat_learned_per_check", per(sat.learned)),
                ("core.sat_restarts_per_check", per(sat.restarts)),
            ];
            report.spans = tr.into_spans();
        }
        Ok(report)
    }
}
