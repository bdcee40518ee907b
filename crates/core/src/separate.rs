//! Automated model-separation witness search (the `smc separate` engine).
//!
//! Every edge and non-edge of the paper's Figure 5 lattice is certified
//! by a *witness history* — one a weaker model admits and a stronger
//! model refutes. This module finds such witnesses mechanically: given a
//! list of models it sweeps universes of increasing size
//! ([`crate::histgen::GenParams`]) and, for every ordered direction
//! `(admits, refutes)` not ruled out by
//! [`crate::lattice::known_inclusions`], records the *first* history (in
//! enumeration order) that the one model admits and the other refutes.
//!
//! The sweep is:
//!
//! * **symmetry-reduced** — only first-occurrence location/value
//!   representatives are materialized
//!   ([`crate::histgen::for_each_representative_range`]), and verdicts
//!   are cached per [`crate::canon::HistoryKey`] so each
//!   processor-permutation orbit is classified once;
//! * **parallel** — fixed-size index chunks run on
//!   `batch::par_map`; because each direction keeps the
//!   *minimum* witnessing index and a chunk is skipped only once no open
//!   direction can improve in it, the reported witnesses are identical
//!   for every job count;
//! * **lattice-aware** — directions along a known inclusion are marked
//!   [`DirectionStatus::Impossible`] up front, and within one history a
//!   [`crate::lattice::Settle`] propagates each decided verdict along the
//!   inclusion closure (admitted by a stronger model ⇒ admitted by the
//!   weaker; refuted by a weaker ⇒ refuted by the stronger), so one check
//!   serves several pairs.
//!
//! Found witnesses are shrunk by [`minimize_witness`] (greedy op
//! deletion, empty-processor dropping, and value collapsing — see the
//! function docs) to a local minimum that still separates the pair.

use crate::batch::par_map;
use crate::canon::{canonicalize, HistoryKey};
use crate::checker::{check_with_config, CheckConfig};
use crate::histgen::{for_each_representative_range, GenParams};
use crate::lattice::{Settle, Stronger};
use crate::spec::ModelSpec;
use smc_history::{History, HistoryBuilder, Location};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// One search direction: find a history `models[admits]` admits and
/// `models[refutes]` refutes (a witness that `admits ⊄ refutes`).
#[derive(Debug, Clone)]
pub struct Direction {
    /// Index (into the searcher's model list) of the model that must
    /// admit the witness.
    pub admits: usize,
    /// Index of the model that must refute it.
    pub refutes: usize,
    /// What the search has established for this direction so far.
    pub status: DirectionStatus,
}

/// Outcome of the search for one direction.
#[derive(Debug, Clone)]
pub enum DirectionStatus {
    /// No witness found yet (or the searched universes exhausted without
    /// one — consistent with `admits ⊆ refutes`).
    Open,
    /// `admits ⊆ refutes` is a known inclusion; no witness can exist.
    Impossible,
    /// A witness was found.
    Found(SeparationWitness),
}

/// A history admitted by one model and refuted by another.
#[derive(Debug, Clone)]
pub struct SeparationWitness {
    /// The witness history (minimized if [`Separator::minimize_found`]
    /// ran).
    pub history: History,
    /// The universe the original witness was found in.
    pub universe: GenParams,
    /// Its index in that universe's enumeration order — the minimum over
    /// all witnessing indices, independent of the job count.
    pub index: u64,
    /// Whether `history` has been minimized.
    pub minimized: bool,
}

/// Work counters accumulated across every universe a [`Separator`] ran.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeparateStats {
    /// Enumeration indices visited.
    pub enumerated: u64,
    /// Histories skipped by the first-occurrence representative filter.
    pub skipped_form: u64,
    /// Histories skipped for an unexplainable read.
    pub skipped_unexplainable: u64,
    /// Distinct canonical classes classified.
    pub classes: u64,
    /// Representatives that hit an already-seen canonical class.
    pub class_hits: u64,
    /// Verdicts decided by running the checker.
    pub checked: u64,
    /// Verdicts decided for free along known inclusions.
    pub propagated: u64,
    /// Checks that came back undecided (budget).
    pub undecided: u64,
    /// Wall time spent scanning universes.
    pub wall: Duration,
}

impl SeparateStats {
    /// Accumulate another scan's counters into these.
    fn merge(&mut self, other: &SeparateStats) {
        self.enumerated += other.enumerated;
        self.skipped_form += other.skipped_form;
        self.skipped_unexplainable += other.skipped_unexplainable;
        self.classes += other.classes;
        self.class_hits += other.class_hits;
        self.checked += other.checked;
        self.propagated += other.propagated;
        self.undecided += other.undecided;
        self.wall += other.wall;
    }
}

/// The universes the search may visit, smallest first. The ladder stops
/// at ~10M histories: beyond that a single scan is hours, and every
/// separation among the registered models appears far earlier.
pub fn full_ladder() -> Vec<GenParams> {
    let gp = |procs, ops_per_proc, locs, values| GenParams {
        procs,
        ops_per_proc,
        locs,
        values,
    };
    let mut v = vec![
        gp(2, 1, 1, 1),
        gp(2, 2, 1, 1),
        gp(2, 2, 2, 1),
        gp(2, 2, 2, 2),
        gp(2, 3, 2, 1),
        gp(3, 2, 2, 1),
        gp(2, 3, 2, 2),
        gp(3, 2, 2, 2),
        gp(4, 2, 2, 1),
        gp(3, 3, 2, 1),
    ];
    v.sort_by_key(|p| (p.universe_size(), p.procs, p.ops_per_proc));
    v
}

/// Resolve a `--max-universe` spec into a universe schedule: the presets
/// `small` (≤ 50k histories), `medium` (≤ 2M, the default), `large`
/// (≤ 12M), or an explicit `PxOxLxV` cap like `3x2x2x2` (ladder entries
/// component-wise ≤ the cap, plus the cap itself).
pub fn ladder(spec: &str) -> Result<Vec<GenParams>, String> {
    let by_size = |cap: u128| -> Vec<GenParams> {
        full_ladder()
            .into_iter()
            .filter(|p| p.universe_size() <= cap)
            .collect()
    };
    match spec {
        "small" => Ok(by_size(50_000)),
        "medium" => Ok(by_size(2_000_000)),
        "large" => Ok(by_size(12_000_000)),
        custom => {
            let parts: Vec<usize> = custom
                .split('x')
                .map(|s| s.parse::<usize>().ok().filter(|&n| n >= 1))
                .collect::<Option<Vec<_>>>()
                .unwrap_or_default();
            let [procs, ops, locs, values] = parts[..] else {
                return Err(format!(
                    "`{custom}` is not small/medium/large or a PxOxLxV cap like 3x2x2x2"
                ));
            };
            if procs > 8 || locs > 8 || values > 60 {
                return Err(format!("cap `{custom}` exceeds 8 procs/8 locs/60 values"));
            }
            let cap = GenParams {
                procs,
                ops_per_proc: ops,
                locs,
                values: values as i64,
            };
            let mut out: Vec<GenParams> = full_ladder()
                .into_iter()
                .filter(|u| {
                    u.procs <= cap.procs
                        && u.ops_per_proc <= cap.ops_per_proc
                        && u.locs <= cap.locs
                        && u.values <= cap.values
                })
                .collect();
            if !out.iter().any(|u| u.label() == cap.label()) {
                out.push(cap);
                out.sort_by_key(|p| (p.universe_size(), p.procs, p.ops_per_proc));
            }
            Ok(out)
        }
    }
}

/// Chunk of enumeration indices one worker claims at a time.
const CHUNK: u64 = 4096;
/// Shards of the per-universe canonical-class verdict cache.
const CACHE_SHARDS: usize = 16;

/// Minimum witnessing index plus the history found there, updated under
/// one lock so the stored history always matches the stored index; the
/// atomic mirror lets workers read the current bound without contending.
struct BestSlot {
    hint: AtomicU64,
    slot: Mutex<(u64, Option<History>)>,
}

impl BestSlot {
    fn new() -> Self {
        BestSlot {
            hint: AtomicU64::new(u64::MAX),
            slot: Mutex::new((u64::MAX, None)),
        }
    }

    fn record(&self, index: u64, h: &History) {
        let mut g = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        if index < g.0 {
            *g = (index, Some(h.clone()));
            self.hint.store(index, Ordering::Release);
        }
    }
}

/// The separation search engine. Construct with the models of interest,
/// feed it universes (smallest first), then read [`Self::directions`].
pub struct Separator {
    models: Vec<ModelSpec>,
    stronger: Stronger,
    cfg: CheckConfig,
    jobs: usize,
    directions: Vec<Direction>,
    /// Accumulated work counters.
    pub stats: SeparateStats,
}

/// One shard of the per-universe canonical-class verdict cache: the
/// `Vec<Option<bool>>` is indexed by model position (None = undecided).
type VerdictShard = Mutex<HashMap<HistoryKey, Vec<Option<bool>>>>;

impl Separator {
    /// Set up a search over all ordered pairs of `models`. Directions
    /// along the closure of [`crate::lattice::known_inclusions`] start as
    /// [`DirectionStatus::Impossible`]; everything else starts open.
    pub fn new(models: Vec<ModelSpec>, cfg: CheckConfig, jobs: usize) -> Self {
        let stronger = Stronger::new(&models);
        let n = models.len();
        let mut directions = Vec::with_capacity(n * (n - 1));
        for admits in 0..n {
            for refutes in 0..n {
                if admits == refutes {
                    continue;
                }
                let status = if stronger.get(admits, refutes) {
                    DirectionStatus::Impossible
                } else {
                    DirectionStatus::Open
                };
                directions.push(Direction {
                    admits,
                    refutes,
                    status,
                });
            }
        }
        Separator {
            models,
            stronger,
            cfg,
            jobs: jobs.max(1),
            directions,
            stats: SeparateStats::default(),
        }
    }

    /// The models under comparison, as passed to [`Self::new`].
    pub fn models(&self) -> &[ModelSpec] {
        &self.models
    }

    /// Every ordered direction and its current status.
    pub fn directions(&self) -> &[Direction] {
        &self.directions
    }

    /// Number of directions still without a witness or impossibility.
    pub fn open_directions(&self) -> usize {
        self.directions
            .iter()
            .filter(|d| matches!(d.status, DirectionStatus::Open))
            .count()
    }

    /// Scan one universe for every still-open direction. Returns the
    /// number of directions resolved by this universe.
    pub fn run_universe(&mut self, params: &GenParams) -> usize {
        let open: Vec<usize> = self
            .directions
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d.status, DirectionStatus::Open))
            .map(|(i, _)| i)
            .collect();
        if open.is_empty() {
            return 0;
        }
        let t0 = std::time::Instant::now();
        let total = params.universe_size().min(u64::MAX as u128) as u64;
        let best: Vec<BestSlot> = self.directions.iter().map(|_| BestSlot::new()).collect();
        let cache: Vec<VerdictShard> = (0..CACHE_SHARDS)
            .map(|_| Mutex::new(HashMap::new()))
            .collect();
        let chunks = par_map(total.div_ceil(CHUNK) as usize, self.jobs, |chunk| {
            let start = chunk as u64 * CHUNK;
            let mut counts = SeparateStats::default();
            // Every open direction keeps its minimum witnessing index; a
            // chunk at or past all of them cannot improve any, so it
            // returns at once. Bounds only shrink, so a skipped chunk
            // could never have improved the final answer, which makes the
            // reported witnesses independent of the job count.
            let bound = open
                .iter()
                .map(|&d| best[d].hint.load(Ordering::Acquire))
                .max()
                .unwrap_or(0);
            if start < bound {
                let end = (start + CHUNK).min(total);
                let rs = for_each_representative_range(params, start, end, |index, h| {
                    self.classify_candidate(index, h, &open, &best, &cache, &mut counts)
                });
                counts.enumerated = rs.enumerated;
                counts.skipped_form = rs.skipped_form;
                counts.skipped_unexplainable = rs.skipped_unexplainable;
            }
            counts
        });
        for counts in &chunks {
            self.stats.merge(counts);
        }
        self.stats.wall += t0.elapsed();

        let mut resolved = 0;
        for &d in &open {
            let (index, history) = {
                let g = best[d].slot.lock().unwrap_or_else(|p| p.into_inner());
                (g.0, g.1.clone())
            };
            if let Some(history) = history {
                self.directions[d].status = DirectionStatus::Found(SeparationWitness {
                    history,
                    universe: *params,
                    index,
                    minimized: false,
                });
                resolved += 1;
            }
        }
        resolved
    }

    /// Classify one candidate history against every direction still able
    /// to improve, consulting and updating the canonical-class verdict
    /// cache, and count the work in `counts`.
    fn classify_candidate(
        &self,
        index: u64,
        h: &History,
        open: &[usize],
        best: &[BestSlot],
        cache: &[VerdictShard],
        counts: &mut SeparateStats,
    ) {
        let n = self.models.len();
        let canon = canonicalize(h);
        let shard = &cache[(canon.key.0 as usize) % CACHE_SHARDS];
        let cached = shard
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(&canon.key)
            .cloned();
        let row = match cached {
            Some(v) => {
                counts.class_hits += 1;
                v
            }
            None => {
                counts.classes += 1;
                vec![None; n]
            }
        };
        // Decide only the models the open directions ask about; a
        // memoized check reuses the candidate's canonical form.
        let mut settle =
            Settle::new(&self.stronger, &self.models, &self.cfg, 1, row, || h).with_canon(&canon);
        for &d in open {
            if best[d].hint.load(Ordering::Acquire) <= index {
                continue; // cannot improve this direction
            }
            let (a, r) = (self.directions[d].admits, self.directions[d].refutes);
            if settle.decide(a) == Some(true) && settle.decide(r) == Some(false) {
                best[d].record(index, h);
            }
        }
        counts.checked += settle.checked;
        counts.propagated += settle.propagated;
        counts.undecided += settle.undecided;
        // Every propagation and every decided check filled a slot.
        if settle.propagated + settle.checked > settle.undecided {
            let mut g = shard.lock().unwrap_or_else(|p| p.into_inner());
            let entry = g.entry(canon.key).or_insert_with(|| vec![None; n]);
            for (slot, v) in entry.iter_mut().zip(&settle.row) {
                if slot.is_none() {
                    *slot = *v;
                }
            }
        }
    }

    /// Minimize every found witness in place (see [`minimize_witness`]).
    pub fn minimize_found(&mut self) {
        for d in &mut self.directions {
            if let DirectionStatus::Found(w) = &mut d.status {
                if !w.minimized {
                    w.history = minimize_witness(
                        &w.history,
                        &self.models[d.admits],
                        &self.models[d.refutes],
                        &self.cfg,
                    );
                    w.minimized = true;
                }
            }
        }
    }
}

/// Run the search over a universe schedule, stopping early once every
/// direction is resolved, then minimize the witnesses.
pub fn separate(
    models: Vec<ModelSpec>,
    universes: &[GenParams],
    cfg: CheckConfig,
    jobs: usize,
) -> Separator {
    let mut s = Separator::new(models, cfg, jobs);
    for u in universes {
        if s.open_directions() == 0 {
            break;
        }
        s.run_universe(u);
    }
    s.minimize_found();
    s
}

/// `true` iff `admits` admits `h` and `refutes` refutes it — i.e. `h`
/// witnesses that the admitted set of `admits` is not contained in that
/// of `refutes`.
pub fn separates(h: &History, admits: &ModelSpec, refutes: &ModelSpec, cfg: &CheckConfig) -> bool {
    check_with_config(h, admits, cfg).is_allowed()
        && check_with_config(h, refutes, cfg).is_disallowed()
}

/// `h` with the operation whose dense id is `idx` removed (processors and
/// their order preserved, even if left empty).
pub fn without_op(h: &History, idx: usize) -> History {
    let mut b = HistoryBuilder::new();
    for ph in h.procs() {
        let name = h.proc_name(ph.proc);
        b.add_proc(name);
        for o in ph.ops {
            if o.id.index() == idx {
                continue;
            }
            b.push(name, o.kind, h.loc_name(o.loc), o.value.0, o.label);
        }
    }
    b.build()
}

/// `h` with processors that issued no operations removed.
fn without_empty_procs(h: &History) -> History {
    let mut b = HistoryBuilder::new();
    for ph in h.procs() {
        if ph.ops.is_empty() {
            continue;
        }
        let name = h.proc_name(ph.proc);
        b.add_proc(name);
        for o in ph.ops {
            b.push(name, o.kind, h.loc_name(o.loc), o.value.0, o.label);
        }
    }
    b.build()
}

/// `h` with every operation on `loc` of value `from` rewritten to `to`.
/// When `to` is 0 only reads are rewritten (a write of the initial value
/// is not expressible in the universe and rarely meaningful).
fn with_value_replaced(h: &History, loc: Location, from: i64, to: i64) -> History {
    let mut b = HistoryBuilder::new();
    for ph in h.procs() {
        let name = h.proc_name(ph.proc);
        b.add_proc(name);
        for o in ph.ops {
            let mut v = o.value.0;
            if o.loc == loc && v == from && (to != 0 || o.is_read()) {
                v = to;
            }
            b.push(name, o.kind, h.loc_name(o.loc), v, o.label);
        }
    }
    b.build()
}

/// Shrink a separating history to a local minimum that still separates
/// the pair: repeatedly (1) delete the lowest-id operation whose removal
/// preserves separation, (2) drop processors left without operations, and
/// (3) collapse a value at some location onto a smaller one (reads may
/// collapse onto the initial value 0). Deterministic: candidates are
/// tried in a fixed order and the first improvement restarts the loop.
///
/// The result is op-deletion-minimal — no single remaining operation can
/// be deleted without losing the separation.
pub fn minimize_witness(
    h: &History,
    admits: &ModelSpec,
    refutes: &ModelSpec,
    cfg: &CheckConfig,
) -> History {
    debug_assert!(separates(h, admits, refutes, cfg));
    let mut cur = h.clone();
    loop {
        let mut improved = false;
        for i in 0..cur.num_ops() {
            let cand = without_op(&cur, i);
            if separates(&cand, admits, refutes, cfg) {
                cur = cand;
                improved = true;
                break;
            }
        }
        if improved {
            continue;
        }
        let cand = without_empty_procs(&cur);
        if cand.num_procs() < cur.num_procs() && separates(&cand, admits, refutes, cfg) {
            cur = cand;
            continue;
        }
        'collapse: for l in 0..cur.num_locs() {
            let loc = Location(l as u32);
            let mut vals: Vec<i64> = cur
                .ops()
                .iter()
                .filter(|o| o.loc == loc && o.value.0 > 0)
                .map(|o| o.value.0)
                .collect();
            vals.sort_unstable();
            vals.dedup();
            for &from in vals.iter().rev() {
                // Targets: every smaller used value, plus 0 (reads only)
                // and 1 as normalizing anchors.
                let mut targets: Vec<i64> = vals.iter().copied().filter(|&t| t < from).collect();
                if from > 1 && !targets.contains(&1) {
                    targets.push(1);
                }
                targets.push(0);
                targets.sort_unstable();
                for &to in &targets {
                    let cand = with_value_replaced(&cur, loc, from, to);
                    if cand != cur && separates(&cand, admits, refutes, cfg) {
                        cur = cand;
                        improved = true;
                        break 'collapse;
                    }
                }
            }
        }
        if !improved {
            break;
        }
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use smc_history::litmus::parse_history;

    #[test]
    fn ladder_specs_resolve() {
        let small = ladder("small").unwrap();
        assert!(!small.is_empty());
        assert!(small.iter().all(|u| u.universe_size() <= 50_000));
        let medium = ladder("medium").unwrap();
        assert!(medium.len() > small.len());
        // Sorted ascending by size.
        for w in medium.windows(2) {
            assert!(w[0].universe_size() <= w[1].universe_size());
        }
        let capped = ladder("3x2x2x2").unwrap();
        assert!(capped.iter().any(|u| u.label() == "3x2x2x2"));
        assert!(capped
            .iter()
            .all(|u| u.procs <= 3 && u.ops_per_proc <= 2 && u.locs <= 2 && u.values <= 2));
        assert!(ladder("huge").is_err());
        assert!(ladder("3x2x2").is_err());
        assert!(ladder("0x2x2x2").is_err());
    }

    #[test]
    fn known_inclusions_mark_directions_impossible() {
        let s = Separator::new(vec![models::sc(), models::tso()], CheckConfig::default(), 1);
        // SC ⊆ TSO: the SC-admits/TSO-refutes direction cannot exist.
        let d_sc_tso = s
            .directions()
            .iter()
            .find(|d| d.admits == 0 && d.refutes == 1)
            .unwrap();
        assert!(matches!(d_sc_tso.status, DirectionStatus::Impossible));
        let d_tso_sc = s
            .directions()
            .iter()
            .find(|d| d.admits == 1 && d.refutes == 0)
            .unwrap();
        assert!(matches!(d_tso_sc.status, DirectionStatus::Open));
    }

    #[test]
    fn finds_the_store_buffering_separation() {
        let s = separate(
            vec![models::sc(), models::tso()],
            &ladder("2x2x2x1").unwrap(),
            CheckConfig::default(),
            2,
        );
        let d = s
            .directions()
            .iter()
            .find(|d| d.admits == 1 && d.refutes == 0)
            .unwrap();
        let DirectionStatus::Found(w) = &d.status else {
            panic!("TSO-admits/SC-refutes witness not found: {:?}", d.status);
        };
        assert!(separates(
            &w.history,
            &models::tso(),
            &models::sc(),
            &CheckConfig::default()
        ));
        // The minimal TSO/SC separation is store buffering: 4 operations.
        assert_eq!(w.history.num_ops(), 4, "{}", w.history);
    }

    #[test]
    fn witness_indices_are_job_count_independent() {
        let run = |jobs: usize| {
            separate(
                vec![models::sc(), models::causal()],
                &ladder("2x2x2x1").unwrap(),
                CheckConfig::default(),
                jobs,
            )
        };
        let a = run(1);
        let b = run(4);
        for (da, db) in a.directions().iter().zip(b.directions()) {
            match (&da.status, &db.status) {
                (DirectionStatus::Found(wa), DirectionStatus::Found(wb)) => {
                    assert_eq!(wa.index, wb.index);
                    assert_eq!(wa.history, wb.history);
                }
                (DirectionStatus::Open, DirectionStatus::Open)
                | (DirectionStatus::Impossible, DirectionStatus::Impossible) => {}
                other => panic!("statuses diverge across job counts: {other:?}"),
            }
        }
    }

    #[test]
    fn minimization_reaches_local_minimum() {
        // Store buffering padded with an irrelevant third processor and a
        // redundant high value; minimization must strip both.
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)2 r(x)0\nr: w(x)1").unwrap();
        let cfg = CheckConfig::default();
        let (tso, sc) = (models::tso(), models::sc());
        assert!(separates(&h, &tso, &sc, &cfg));
        let m = minimize_witness(&h, &tso, &sc, &cfg);
        assert!(separates(&m, &tso, &sc, &cfg));
        assert_eq!(m.num_ops(), 4, "{m}");
        assert_eq!(m.num_procs(), 2, "{m}");
        // Values collapsed to 1.
        assert!(m.ops().iter().all(|o| o.value.0 <= 1), "{m}");
        // Op-deletion minimal.
        for i in 0..m.num_ops() {
            assert!(!separates(&without_op(&m, i), &tso, &sc, &cfg));
        }
    }
}
