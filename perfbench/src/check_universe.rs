//! `check_universe`: classify every history of a small `histgen`
//! universe under the lattice models.
//!
//! Why: litmus-sized histories always take the exhaustive path —
//! reads-from enumeration, store-order and coherence-order enumeration,
//! the view search over `core::kernel` — plus `canon` and the memo.
//! Saturation, the monitor and the server are absent.
//!
//! Each sweep classifies the whole universe, one history per
//! [`lattice::classify_all_propagating`] call, with one fresh memo for
//! the sweep and `jobs = 1`. The seed sets the order of the histories;
//! the work of a sweep does not depend on it.

use std::time::Instant;

use smc_core::checker::{check_with_config, check_with_stats, CheckConfig, EngineKind, Verdict};
use smc_core::histgen::{all_histories, GenParams};
use smc_core::lattice::{self, Classification};
use smc_core::spec::ModelSpec;
use smc_core::{canonicalize, models, saturate, Engine};
use smc_history::History;

use crate::gen::{sample, shuffle, sub_seed};
use crate::stats::{fail_frac, percentile, ratio, Fastest, Tracer};
use crate::{Headline, Line, Report, Workload, MIN_REPETITIONS};

/// The measured universe: 3 processors × 2 operations × 2 locations ×
/// 1 value, 46 656 histories.
const UNIVERSE: GenParams = GenParams {
    procs: 3,
    ops_per_proc: 2,
    locs: 2,
    values: 1,
};
/// The universe `smc corpus --exhaustive` sweeps, whose verdicts are the
/// checked-in golden file.
const GOLDEN_UNIVERSE: GenParams = GenParams {
    procs: 2,
    ops_per_proc: 2,
    locs: 2,
    values: 1,
};
const GOLDEN: &str = include_str!("../../tests/golden/exhaustive_verdicts.txt");
/// Histories per run cross-checked against the saturation engine.
const SATURATION_SAMPLE: usize = 2048;

/// Prepared universe, in seed order.
pub struct CheckUniverse {
    seed: u64,
    models: Vec<ModelSpec>,
    histories: Vec<History>,
}

/// Build the universe, shuffle it, and warm up on its first histories.
pub fn setup(seed: u64) -> Result<CheckUniverse, String> {
    let mut histories = all_histories(&UNIVERSE);
    shuffle(&mut histories, sub_seed(seed, 3, 0));
    let bench = CheckUniverse {
        seed,
        models: models::lattice_models(),
        histories,
    };
    let cfg = CheckConfig::default().with_memo();
    lattice::classify_all_propagating(&bench.histories[..256], &bench.models, &cfg, 1);
    Ok(bench)
}

/// Render one classification as the golden file's `verdicts` field.
fn verdict_row(models: &[ModelSpec], c: &Classification) -> String {
    let row: Vec<String> = models
        .iter()
        .zip(&c.allowed)
        .map(|(m, a)| {
            let v = match a {
                Some(true) => "y",
                Some(false) => "n",
                None => "?",
            };
            format!("{}:{v}", m.name)
        })
        .collect();
    row.join(" ")
}

/// Classify the golden universe exactly as `smc corpus --exhaustive`
/// does and diff every line against the golden file.
fn golden_mismatches() -> Vec<String> {
    let corpus = all_histories(&GOLDEN_UNIVERSE);
    let models = models::figure5_models();
    let cfg = CheckConfig::default().with_memo();
    let (classes, _) = lattice::classify_all_propagating(&corpus, &models, &cfg, 1);
    let got: Vec<String> = corpus
        .iter()
        .zip(&classes)
        .enumerate()
        .map(|(i, (h, c))| {
            format!(
                "{{\"index\":{i},\"history\":\"{}\",\"verdicts\":\"{}\"}}",
                h.to_string().replace('\n', "; "),
                verdict_row(&models, c)
            )
        })
        .collect();
    let want: Vec<&str> = GOLDEN.lines().collect();
    let mut out = Vec::new();
    if got.len() != want.len() {
        out.push(format!(
            "check_universe: golden has {} lines, sweep gave {}",
            want.len(),
            got.len()
        ));
    }
    for (g, w) in got.iter().zip(want) {
        if g != w {
            out.push(format!("check_universe: golden `{w}`, sweep `{g}`"));
        }
    }
    out
}

impl CheckUniverse {
    /// One sweep, untraced: per-history latencies (ms) and the
    /// classifications.
    fn sweep(&self) -> (Vec<f64>, Vec<Classification>) {
        let cfg = CheckConfig::default().with_memo();
        let mut lat = Vec::with_capacity(self.histories.len());
        let mut classes = Vec::with_capacity(self.histories.len());
        for h in &self.histories {
            let t0 = Instant::now();
            let (mut c, _) =
                lattice::classify_all_propagating(std::slice::from_ref(h), &self.models, &cfg, 1);
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
            classes.push(c.pop().expect("one history in, one classification out"));
        }
        (lat, classes)
    }

    /// One sweep with spans. The `lattice.classify` span wraps the same
    /// call the untraced sweep times, so the two compare. After it, each
    /// history is replayed for the layer metrics: canonicalization and
    /// reads-from enumeration alone, then `classify_all_propagating`'s
    /// propagating loop written out (with a memo of its own, filled in
    /// the same order) so every check reports its `CheckStats`. A replay
    /// that classifies differently counts as a failure.
    fn traced_sweep(
        &self,
        tr: &mut Tracer,
        counters: &mut UniverseCounters,
    ) -> (Vec<f64>, Vec<Classification>) {
        let cfg = CheckConfig::default().with_memo();
        let replay_cfg = CheckConfig::default().with_memo();
        let stronger = lattice::inclusion_closure(&self.models);
        let n = self.models.len();
        let mut lat = Vec::with_capacity(self.histories.len());
        let mut classes = Vec::with_capacity(self.histories.len());
        for (hi, h) in self.histories.iter().enumerate() {
            let req = hi as u64;
            let root = tr.begin("lattice.classify", req);
            let (mut c, _) =
                lattice::classify_all_propagating(std::slice::from_ref(h), &self.models, &cfg, 1);
            lat.push(tr.end(root) as f64 / 1e6);
            let c = c.pop().expect("one history in, one classification out");

            let s = tr.begin("core.canon", req);
            std::hint::black_box(canonicalize(h));
            counters.canon_ns += tr.end(s);
            let s = tr.begin("core.rf_enum", req);
            std::hint::black_box(smc_core::rf::enumerate_reads_from(h, cfg.max_rf));
            counters.rf_enum_ns += tr.end(s);
            let replay = tr.begin("lattice.replay", req);
            let mut allowed: Vec<Option<bool>> = vec![None; n];
            for j in 0..n {
                if (0..n).any(|i| stronger[i][j] && allowed[i] == Some(true)) {
                    allowed[j] = Some(true);
                    counters.propagated += 1;
                } else if (0..n).any(|k| stronger[j][k] && allowed[k] == Some(false)) {
                    allowed[j] = Some(false);
                    counters.propagated += 1;
                } else {
                    let s = tr.begin("core.check", req);
                    let (v, st) = check_with_stats(h, &self.models[j], &replay_cfg);
                    let ns = tr.end(s);
                    counters.checked += 1;
                    if st.memo_hit {
                        counters.memo_hits += 1;
                    } else if st.engine_used == Engine::Exhaustive {
                        counters.exhaustive += 1;
                        counters.exhaustive_ns += ns;
                        counters.nodes += st.nodes_spent;
                        counters.rf_assignments += st.rf_assignments_tried as u64;
                    }
                    if matches!(v, Verdict::Exhausted) {
                        counters.exhausted += 1;
                    }
                    allowed[j] = v.decided();
                }
            }
            tr.end(replay);
            if allowed != c.allowed {
                counters.replay_mismatches += 1;
            }
            classes.push(c);
        }
        (lat, classes)
    }

    /// Every history must be decided under every model, and the
    /// saturation engine must agree on a seeded sample wherever it
    /// supports the model. Returns `(failed pairs, mismatches)`.
    fn check(&self, classes: &[Classification]) -> (u64, Vec<String>) {
        let mut failed = 0u64;
        let mut mismatches = golden_mismatches();
        failed += mismatches.len() as u64;
        for c in classes {
            failed += c.allowed.iter().filter(|a| a.is_none()).count() as u64;
        }
        let cfg = CheckConfig {
            engine: EngineKind::Saturate,
            ..CheckConfig::default()
        };
        let picks: Vec<usize> = sample(
            &(0..self.histories.len()).collect::<Vec<_>>(),
            SATURATION_SAMPLE,
            sub_seed(self.seed, 3, 1),
        );
        for i in picks {
            let h = &self.histories[i];
            for (m, model) in self.models.iter().enumerate() {
                if !saturate::supports(model) {
                    continue;
                }
                let sat = check_with_config(h, model, &cfg).decided();
                if sat != classes[i].allowed[m] {
                    failed += 1;
                    mismatches.push(format!(
                        "check_universe: `{}` under {}: sweep {:?}, saturation {sat:?}",
                        h.to_string().replace('\n', "; "),
                        model.name,
                        classes[i].allowed[m]
                    ));
                }
            }
        }
        (failed, mismatches)
    }
}

#[derive(Default)]
struct UniverseCounters {
    checked: u64,
    propagated: u64,
    memo_hits: u64,
    exhaustive: u64,
    exhaustive_ns: u64,
    nodes: u64,
    rf_assignments: u64,
    exhausted: u64,
    canon_ns: u64,
    rf_enum_ns: u64,
    replay_mismatches: u64,
}

impl Workload for CheckUniverse {
    fn describe(&self) -> String {
        format!(
            "seed={} inputs: every history of the {} universe ({} histories) in seed order, \
             {} models (lattice_models), memo on, jobs=1; golden check on {}; saturation \
             cross-check on {} sampled histories",
            self.seed,
            UNIVERSE.label(),
            self.histories.len(),
            self.models.len(),
            GOLDEN_UNIVERSE.label(),
            SATURATION_SAMPLE
        )
    }

    fn run(&mut self, seconds: f64, traced: bool) -> Result<Report, String> {
        let mut tracer = traced.then(|| Tracer::new(Instant::now()));
        let mut counters = UniverseCounters::default();
        let mut best = Fastest::new(self.histories.len());
        let mut sweeps = 0;
        let mut first: Option<Vec<Classification>> = None;
        let mut failed = 0u64;
        let t0 = Instant::now();
        while sweeps < MIN_REPETITIONS || t0.elapsed().as_secs_f64() < seconds {
            let (lat, classes) = match tracer.as_mut() {
                Some(tr) => self.traced_sweep(tr, &mut counters),
                None => self.sweep(),
            };
            for (i, t) in lat.into_iter().enumerate() {
                best.record(i, t);
            }
            sweeps += 1;
            match &first {
                None => first = Some(classes),
                Some(f) => {
                    // Sweeps are deterministic; any drift is a failure.
                    failed += f
                        .iter()
                        .zip(&classes)
                        .filter(|(a, b)| a.allowed != b.allowed)
                        .count() as u64;
                }
            }
        }
        let classes = first.expect("at least one sweep");
        let (check_failed, mut mismatches) = self.check(&classes);
        if failed > 0 {
            mismatches.push(format!(
                "check_universe: {failed} histories classified differently across sweeps"
            ));
        }
        failed += check_failed + counters.replay_mismatches;
        if counters.replay_mismatches > 0 {
            mismatches.push(format!(
                "check_universe: the traced replay classified {} histories differently",
                counters.replay_mismatches
            ));
        }
        let attempted = (sweeps * self.histories.len() * self.models.len()) as u64;
        let p50 = percentile(best.times(), 50);
        let p99 = percentile(best.times(), 99);
        let headline = Headline {
            throughput_per_s: best.rate() * 1e3,
            latency_p50_ms: p50.value,
            latency_tail_ms: p99.value,
        };
        let mut report = Report {
            attempted,
            failed,
            mismatches,
            lines: vec![
                Line::new(
                    "histories_per_s",
                    headline.throughput_per_s,
                    "1/s",
                    format!(
                        "{} histories, each at its fastest of {sweeps} sweeps",
                        self.histories.len()
                    ),
                ),
                Line::new(
                    "history_p50_us",
                    p50.value * 1e3,
                    "us",
                    format!("n={} fastest repetitions", p50.n),
                ),
                Line::new(
                    "history_p99_us",
                    p99.value * 1e3,
                    "us",
                    format!("n={} fastest repetitions, {} beyond", p99.n, p99.beyond),
                ),
                Line::new(
                    "fail_frac",
                    fail_frac(failed, attempted),
                    "ratio",
                    format!("{failed} of {attempted} (history, model) pairs"),
                ),
            ],
            headline,
            layers: Vec::new(),
            spans: Vec::new(),
        };
        if let Some(tr) = tracer {
            let c = &counters;
            let histories = (sweeps * self.histories.len()) as f64;
            report.layers = vec![
                (
                    "core.exhaustive_ns_per_check",
                    ratio(c.exhaustive_ns as f64, c.exhaustive as f64),
                ),
                (
                    "core.nodes_per_check",
                    ratio(c.nodes as f64, c.exhaustive as f64),
                ),
                (
                    "core.rf_enum_ns_per_history",
                    c.rf_enum_ns as f64 / histories,
                ),
                (
                    "core.rf_assignments_per_check",
                    ratio(c.rf_assignments as f64, c.exhaustive as f64),
                ),
                ("core.canon_ns_per_history", c.canon_ns as f64 / histories),
                (
                    "core.memo_hit_ratio",
                    ratio(c.memo_hits as f64, c.checked as f64),
                ),
                (
                    "core.lattice_propagated_ratio",
                    ratio(c.propagated as f64, (c.propagated + c.checked) as f64),
                ),
                (
                    "core.exhausted_frac",
                    ratio(c.exhausted as f64, c.checked as f64),
                ),
            ];
            report.spans = tr.into_spans();
        }
        Ok(report)
    }
}
