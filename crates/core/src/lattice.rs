//! Empirical model comparison (the paper's Section 4 / Figure 5).
//!
//! A model `A` is *stronger* than `B` when every history `A` admits, `B`
//! admits too — set inclusion of admitted histories. Over a finite corpus
//! the inclusion matrix is computable exactly; with the corpus of *all*
//! small histories ([`crate::histgen`]) the matrix reproduces Figure 5's
//! lattice, complete with concrete witness histories for every strict
//! inclusion and incomparability.
//!
//! ```
//! use smc_core::checker::CheckConfig;
//! use smc_core::{lattice, models};
//! use smc_history::litmus::parse_history;
//!
//! let corpus = vec![
//!     parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap(), // fig. 1
//!     parse_history("p: w(x)1\nq: r(x)1").unwrap(),
//! ];
//! let models = vec![models::sc(), models::tso()];
//! let r = lattice::compare(&corpus, &models, &CheckConfig::default());
//! assert!(r.strictly_stronger(0, 1)); // SC ⊂ TSO, witnessed by fig. 1
//! ```

use crate::batch::par_map;
use crate::canon::{canonicalize, Canon};
use crate::checker::{check_with_canon, check_with_config, CheckConfig, Plan};
use crate::spec::ModelSpec;
use smc_history::History;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Classification of one history against every model in a list:
/// `allowed[m]` is `Some(true/false)` if decided, `None` if the budget ran
/// out (or the combination was unsupported).
#[derive(Debug, Clone)]
pub struct Classification {
    /// Per-model verdicts, indexed like the model list.
    pub allowed: Vec<Option<bool>>,
}

/// Classify `h` against each model.
pub fn classify(h: &History, models: &[ModelSpec], cfg: &CheckConfig) -> Classification {
    Classification {
        allowed: models
            .iter()
            .map(|m| check_with_config(h, m, cfg).decided())
            .collect(),
    }
}

/// Classify a whole corpus on up to `jobs` threads (via
/// [`crate::batch::check_matrix`]); equivalent to mapping [`classify`]
/// over the corpus.
pub fn classify_all(
    corpus: &[History],
    models: &[ModelSpec],
    cfg: &CheckConfig,
    jobs: usize,
) -> Vec<Classification> {
    let results = crate::batch::check_matrix(corpus, models, cfg, jobs);
    results
        .chunks(models.len().max(1))
        .map(|row| Classification {
            allowed: row.iter().map(|r| r.verdict.decided()).collect(),
        })
        .collect()
}

/// Sound admitted-set inclusions among the registered models, as
/// `(stronger, weaker)` display-name pairs: every history the stronger
/// model admits, the weaker model admits too. These are the inclusions of
/// the paper's Figure 5 (restricted to models registered in
/// [`crate::models`]); [`Settle`] uses their transitive closure
/// ([`Stronger`]) to skip checks whose answer is already forced.
pub fn known_inclusions() -> &'static [(&'static str, &'static str)] {
    &[
        ("SC", "TSO"),
        ("SC", "CausalCoherent"),
        ("TSO", "PC"),
        ("TSO", "Causal"),
        ("PC", "PRAM"),
        ("PC", "Coherent"),
        ("Causal", "PRAM"),
        ("CausalCoherent", "Causal"),
        ("CausalCoherent", "Coherent"),
        ("CausalCoherent", "PCG"),
        ("PCG", "PRAM"),
        ("PCG", "Coherent"),
        // CausalCoherent ⊆ PC is deliberately ABSENT: the conjecture is
        // false. PC and CausalCoherent are incomparable — see
        // litmus/separations/pc_vs_causalcoherent.litmus, whose
        // `causalcoherent_not_pc` test is a CausalCoherent-admitted,
        // PC-refuted history (checked mechanically by the corpus suite
        // and the `pc_and_causalcoherent_are_incomparable` test below).
    ]
}

/// The transitive closure of [`known_inclusions`] over every name the
/// edge list mentions, computed once per process: `closed[a][b]` = the
/// model named `names[a]` is at least as strong as `names[b]`.
fn closed_inclusions() -> &'static (Vec<&'static str>, Vec<Vec<bool>>) {
    static CLOSED: OnceLock<(Vec<&'static str>, Vec<Vec<bool>>)> = OnceLock::new();
    CLOSED.get_or_init(|| {
        let mut names: Vec<&'static str> = Vec::new();
        let mut intern = |name: &'static str| match names.iter().position(|&n| n == name) {
            Some(i) => i,
            None => {
                names.push(name);
                names.len() - 1
            }
        };
        let edges: Vec<(usize, usize)> = known_inclusions()
            .iter()
            .map(|&(s, w)| (intern(s), intern(w)))
            .collect();
        let n = names.len();
        let mut m = vec![vec![false; n]; n];
        for (a, b) in edges {
            m[a][b] = true;
        }
        for k in 0..n {
            let row_k = m[k].clone();
            for row in m.iter_mut() {
                if !row[k] {
                    continue;
                }
                for (j, &through_k) in row_k.iter().enumerate() {
                    if through_k {
                        row[j] = true;
                    }
                }
            }
        }
        (names, m)
    })
}

/// [`Stronger`] as an n×n table: `stronger[i][j]` = admitted by
/// `models[i]` implies admitted by `models[j]`.
pub fn inclusion_closure(models: &[ModelSpec]) -> Vec<Vec<bool>> {
    let stronger = Stronger::new(models);
    (0..models.len())
        .map(|i| (0..models.len()).map(|j| stronger.get(i, j)).collect())
        .collect()
}

/// The transitive closure of [`known_inclusions`] over one model list
/// (matched by display name, case-insensitively): each model's slot in
/// the per-process closure, looked up pair by pair. The closure runs
/// over every name the edge list mentions, not just the models
/// provided: SC ⊆ Causal follows from SC ⊆ TSO ⊆ Causal even when TSO
/// is absent from the list. A name repeated in the list takes part only
/// at its first position. [`Settle`] propagates verdicts along it, and
/// [`crate::separate`] uses it to rule out witness directions that known
/// inclusions make impossible.
#[derive(Debug, Clone)]
pub struct Stronger {
    /// `slots[i]` = `models[i]`'s index among the closure's names, `None`
    /// for a name the edge list never mentions or a repeated name.
    slots: Vec<Option<usize>>,
}

impl Stronger {
    /// The closure over `models`.
    pub fn new(models: &[ModelSpec]) -> Self {
        let names = &closed_inclusions().0;
        let slots = models
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let repeated = models[..i]
                    .iter()
                    .any(|e| e.name.eq_ignore_ascii_case(&m.name));
                if repeated {
                    return None;
                }
                names.iter().position(|n| n.eq_ignore_ascii_case(&m.name))
            })
            .collect();
        Stronger { slots }
    }

    /// Whether admitted by model `i` implies admitted by model `j`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> bool {
        match (self.slots[i], self.slots[j]) {
            (Some(a), Some(b)) => closed_inclusions().1[a][b],
            _ => false,
        }
    }

    /// The verdict for model `j` that already-decided `verdicts` (indexed
    /// like the model list) force along the closure: admitted by a
    /// stronger model ⇒ admitted, refuted by a weaker model ⇒ refuted.
    /// Undecided verdicts (`None`) force nothing. The first decided model
    /// in list order that forces a verdict wins; with exact verdicts no
    /// two can disagree, but a monitor verdict computed on a window may
    /// commit to one interpretation.
    #[inline]
    pub fn forced(&self, verdicts: &[Option<bool>], j: usize) -> Option<bool> {
        verdicts.iter().enumerate().find_map(|(i, v)| match *v {
            Some(true) if self.get(i, j) => Some(true),
            Some(false) if self.get(j, i) => Some(false),
            _ => None,
        })
    }
}

/// One history's verdict row over a model list, and the one place a
/// verdict is propagated or checked. [`Settle::decide`] returns a
/// model's verdict: the row's, if already decided; else the verdict the
/// row forces ([`Stronger::forced`]); else a check of the history
/// through the memo and the engine. The history's check plan, and with
/// a memo its canonical form, are built on the first check and serve
/// every later one, so a row the lattice decides entirely never builds
/// either, nor even asks for the history.
pub struct Settle<'a, F> {
    stronger: &'a Stronger,
    models: &'a [ModelSpec],
    cfg: &'a CheckConfig,
    jobs: usize,
    /// Yields the history, on the first check.
    history: F,
    /// A canonical form the caller already computed.
    canon: Option<&'a Canon>,
    /// The plan and, with a memo and no `canon`, the canonical form.
    setup: Option<(Plan<'a>, Option<Canon>)>,
    /// The verdicts so far, indexed like the model list.
    pub row: Vec<Option<bool>>,
    /// Verdicts asked of the checker.
    pub checked: u64,
    /// Checks that came back undecided (budget or unsupported).
    pub undecided: u64,
    /// Verdicts forced along the closure.
    pub propagated: u64,
    /// Search nodes the checks spent.
    pub nodes: u64,
}

impl<'a, F: Fn() -> &'a History> Settle<'a, F> {
    /// A settle of `row` (indexed like `models`; `None` = not yet
    /// decided), whose checks run under `cfg` on `jobs` workers against
    /// the history `history` yields.
    pub fn new(
        stronger: &'a Stronger,
        models: &'a [ModelSpec],
        cfg: &'a CheckConfig,
        jobs: usize,
        row: Vec<Option<bool>>,
        history: F,
    ) -> Self {
        Settle {
            stronger,
            models,
            cfg,
            jobs,
            history,
            canon: None,
            setup: None,
            row,
            checked: 0,
            undecided: 0,
            propagated: 0,
            nodes: 0,
        }
    }

    /// Reuse `canon`, the history's canonical form, for memoized checks.
    pub fn with_canon(self, canon: &'a Canon) -> Self {
        Settle {
            canon: Some(canon),
            ..self
        }
    }

    /// Model `j`'s verdict, deciding it if the row has none yet. `None`
    /// only when a check came back undecided; asking again re-checks.
    pub fn decide(&mut self, j: usize) -> Option<bool> {
        if self.row[j].is_some() {
            return self.row[j];
        }
        if let Some(v) = self.stronger.forced(&self.row, j) {
            self.propagated += 1;
            self.row[j] = Some(v);
            return Some(v);
        }
        let (cfg, given) = (self.cfg, self.canon);
        let (plan, own) = self.setup.get_or_insert_with(|| {
            let h = (self.history)();
            let own = (cfg.memo.is_some() && given.is_none()).then(|| canonicalize(h));
            (Plan::new(h, cfg), own)
        });
        let canon = cfg.memo.as_ref().and(given.or(own.as_ref()));
        let (verdict, stats) = check_with_canon(plan, &self.models[j], cfg, canon, self.jobs);
        self.checked += 1;
        self.nodes += stats.nodes_spent;
        self.row[j] = verdict.decided();
        self.undecided += u64::from(self.row[j].is_none());
        self.row[j]
    }
}

/// How much checking a propagating sweep actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropagationStats {
    /// (history, model) pairs decided by running the checker.
    pub checked: u64,
    /// Pairs decided for free along Figure 5 inclusions.
    pub propagated: u64,
}

/// [`classify_all`] with lattice-aware propagation: within each history,
/// a verdict already decided for one model forces the verdict for every
/// model related to it by [`known_inclusions`] — admitted by a stronger
/// model ⇒ admitted by the weaker, refuted by a weaker model ⇒ refuted by
/// the stronger — so whole rows of the sweep are skipped. Undecided
/// verdicts (`None`) never propagate. Histories fan out across `jobs`
/// worker threads; each check runs under the caller's `cfg` exactly as in
/// [`classify`], except that each history is settled by one [`Settle`],
/// which makes its check plan, and with a memo canonicalizes it, once
/// for all its models.
pub fn classify_all_propagating(
    corpus: &[History],
    models: &[ModelSpec],
    cfg: &CheckConfig,
    jobs: usize,
) -> (Vec<Classification>, PropagationStats) {
    let stronger = Stronger::new(models);
    let n = models.len();
    let checked = AtomicU64::new(0);
    let propagated = AtomicU64::new(0);
    let classify_one = |h: &History| -> Classification {
        let mut settle = Settle::new(&stronger, models, cfg, 1, vec![None; n], || h);
        for j in 0..n {
            settle.decide(j);
        }
        checked.fetch_add(settle.checked, Ordering::Relaxed);
        propagated.fetch_add(settle.propagated, Ordering::Relaxed);
        Classification {
            allowed: settle.row,
        }
    };
    let classifications = par_map(corpus.len(), jobs, |i| classify_one(&corpus[i]));
    (
        classifications,
        PropagationStats {
            checked: checked.load(Ordering::Relaxed),
            propagated: propagated.load(Ordering::Relaxed),
        },
    )
}

/// The empirical comparison of a model list over a history corpus.
#[derive(Debug, Clone)]
pub struct LatticeResult {
    /// Model display names, in input order.
    pub model_names: Vec<String>,
    /// `counts[m]` = number of corpus histories admitted by model `m`.
    pub counts: Vec<usize>,
    /// Number of histories with at least one undecided verdict (excluded
    /// from the inclusion matrix).
    pub undecided: usize,
    /// `inclusion[a][b]` = over the decided corpus, every history admitted
    /// by `a` is admitted by `b` (i.e. `a` is at least as strong as `b`).
    pub inclusion: Vec<Vec<bool>>,
    /// `separating[a][b]` = index of a corpus history admitted by `b` but
    /// not by `a`, when one exists (a witness that `a` is strictly
    /// stronger on this corpus, or that they are incomparable).
    pub separating: Vec<Vec<Option<usize>>>,
    /// Per-history classifications, aligned with the input corpus.
    pub classifications: Vec<Classification>,
}

impl LatticeResult {
    /// `true` if `a` is strictly stronger than `b` on this corpus:
    /// inclusion holds one way and a separating history exists the other.
    pub fn strictly_stronger(&self, a: usize, b: usize) -> bool {
        self.inclusion[a][b] && self.separating[a][b].is_some()
    }

    /// `true` if the corpus shows `a` and `b` incomparable: each admits a
    /// history the other forbids.
    pub fn incomparable(&self, a: usize, b: usize) -> bool {
        self.separating[a][b].is_some() && self.separating[b][a].is_some()
    }

    /// `true` if `a` and `b` admit exactly the same corpus histories.
    pub fn equivalent_on_corpus(&self, a: usize, b: usize) -> bool {
        self.inclusion[a][b] && self.inclusion[b][a]
    }

    /// Group models into equivalence classes (same admitted set on this
    /// corpus); each class lists model indices, ordered by first member.
    #[allow(clippy::needless_range_loop)] // indices double as model ids
    pub fn equivalence_classes(&self) -> Vec<Vec<usize>> {
        let n = self.model_names.len();
        let mut assigned = vec![false; n];
        let mut classes = Vec::new();
        for a in 0..n {
            if assigned[a] {
                continue;
            }
            let mut class = vec![a];
            assigned[a] = true;
            for b in a + 1..n {
                if !assigned[b] && self.equivalent_on_corpus(a, b) {
                    class.push(b);
                    assigned[b] = true;
                }
            }
            classes.push(class);
        }
        classes
    }

    /// The covering (Hasse) edges of the strictly-stronger order between
    /// equivalence classes: `(stronger_class, weaker_class)` pairs with
    /// no class strictly between them. This is the paper's Figure 5 as a
    /// diagram rather than a matrix.
    pub fn hasse_edges(&self) -> Vec<(usize, usize)> {
        let classes = self.equivalence_classes();
        let k = classes.len();
        let stronger = |a: usize, b: usize| self.strictly_stronger(classes[a][0], classes[b][0]);
        let mut edges = Vec::new();
        for a in 0..k {
            for b in 0..k {
                if a == b || !stronger(a, b) {
                    continue;
                }
                let covered = (0..k).any(|c| c != a && c != b && stronger(a, c) && stronger(c, b));
                if !covered {
                    edges.push((a, b));
                }
            }
        }
        edges
    }

    /// Display name of an equivalence class: members joined by `≡`.
    pub fn class_name(&self, class: &[usize]) -> String {
        class
            .iter()
            .map(|&i| self.model_names[i].as_str())
            .collect::<Vec<_>>()
            .join(" ≡ ")
    }
}

/// Compare `models` over `corpus`.
pub fn compare(corpus: &[History], models: &[ModelSpec], cfg: &CheckConfig) -> LatticeResult {
    let classifications: Vec<Classification> =
        corpus.iter().map(|h| classify(h, models, cfg)).collect();
    compare_classified(models, classifications)
}

/// Build the lattice from precomputed classifications (used when the
/// corpus is classified in parallel by the caller).
#[allow(clippy::needless_range_loop)] // indices double as model ids
pub fn compare_classified(
    models: &[ModelSpec],
    classifications: Vec<Classification>,
) -> LatticeResult {
    let m = models.len();
    let mut counts = vec![0usize; m];
    let mut undecided = 0usize;
    let mut inclusion = vec![vec![true; m]; m];
    let mut separating = vec![vec![None; m]; m];

    for (hi, c) in classifications.iter().enumerate() {
        if c.allowed.iter().any(Option::is_none) {
            undecided += 1;
            continue;
        }
        for a in 0..m {
            if c.allowed[a] == Some(true) {
                counts[a] += 1;
            }
        }
        for a in 0..m {
            for b in 0..m {
                if c.allowed[a] == Some(true) && c.allowed[b] == Some(false) {
                    // `a` admits a history `b` forbids: a ⊄ b, and this
                    // history separates b from a.
                    inclusion[a][b] = false;
                    if separating[b][a].is_none() {
                        separating[b][a] = Some(hi);
                    }
                }
            }
        }
    }

    LatticeResult {
        model_names: models.iter().map(|s| s.name.clone()).collect(),
        counts,
        undecided,
        inclusion,
        separating,
        classifications,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use smc_history::litmus::parse_history;

    #[test]
    fn inclusion_closure_routes_through_absent_models() {
        // SC ⊆ Causal follows from SC ⊆ TSO ⊆ Causal; the closure must
        // find the hop even though TSO is not in the queried list.
        let ms = vec![models::sc(), models::causal()];
        let m = inclusion_closure(&ms);
        assert!(m[0][1], "SC ⊆ Causal lost without TSO in the list");
        assert!(!m[1][0]);
        assert!(!m[0][0] && !m[1][1]);
    }

    #[test]
    fn pc_and_causalcoherent_are_incomparable() {
        // Resolves the ROADMAP conjecture "CausalCoherent ⊆ PC?" by
        // refutation: witnesses exist in BOTH directions, so neither
        // inclusion may ever be added to `known_inclusions`.
        let ms = vec![models::pc(), models::causal_coherent()];
        let closure = inclusion_closure(&ms);
        assert!(!closure[0][1], "PC ⊆ CausalCoherent must not be claimed");
        assert!(!closure[1][0], "CausalCoherent ⊆ PC must not be claimed");

        let cfg = CheckConfig::default();
        // PC admits, CausalCoherent refutes (the machine-found witness).
        let pc_only = parse_history("p: r(x)1 w(y)1\nq: r(y)1 w(x)1").unwrap();
        assert_eq!(
            check_with_config(&pc_only, &ms[0], &cfg).decided(),
            Some(true)
        );
        assert_eq!(
            check_with_config(&pc_only, &ms[1], &cfg).decided(),
            Some(false)
        );
        // CausalCoherent admits, PC refutes: q sees D's writes to w in
        // coherence order around A's causally-later write, while p's
        // stale read of a rules out every processor-consistent view.
        let cc_only = parse_history(
            "A: w(a)1 w(v)1\nD: w(w)1 w(w)2 w(b)1\nq: r(v)1 r(w)1 r(w)2\np: r(b)1 r(a)0",
        )
        .unwrap();
        assert_eq!(
            check_with_config(&cc_only, &ms[0], &cfg).decided(),
            Some(false)
        );
        assert_eq!(
            check_with_config(&cc_only, &ms[1], &cfg).decided(),
            Some(true)
        );
    }

    #[test]
    fn figure1_separates_sc_from_tso() {
        let corpus = vec![
            parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap(),
            parse_history("p: w(x)1\nq: r(x)1").unwrap(),
        ];
        let ms = vec![models::sc(), models::tso()];
        let r = compare(&corpus, &ms, &CheckConfig::default());
        assert_eq!(r.undecided, 0);
        // SC admits only the second history; TSO admits both.
        assert_eq!(r.counts, vec![1, 2]);
        assert!(r.inclusion[0][1]); // SC ⊆ TSO
        assert!(!r.inclusion[1][0]);
        assert!(r.strictly_stronger(0, 1));
        assert_eq!(r.separating[0][1], Some(0));
        assert!(!r.incomparable(0, 1));
    }

    #[test]
    fn hasse_edges_skip_transitive_pairs() {
        // Corpus separating SC ⊂ TSO ⊂ PRAM: the Hasse diagram must keep
        // only the two covering edges, not SC ⊂ PRAM.
        let corpus = vec![
            parse_history(
                "p: w(x)1 r(y)0
q: w(y)1 r(x)0",
            )
            .unwrap(), // TSO+, SC-
            parse_history(
                "p: w(d)1 w(f)1
q: r(f)1 r(d)0",
            )
            .unwrap(), // none
            parse_history(
                "p: w(x)1 r(x)1 r(x)2
q: w(x)2 r(x)2 r(x)1",
            )
            .unwrap(), // PRAM+, TSO-
            parse_history(
                "p: w(x)1
q: r(x)1",
            )
            .unwrap(), // all
        ];
        let ms = vec![
            crate::models::sc(),
            crate::models::tso(),
            crate::models::pram(),
        ];
        let r = compare(&corpus, &ms, &CheckConfig::default());
        let classes = r.equivalence_classes();
        assert_eq!(classes.len(), 3);
        let edges = r.hasse_edges();
        assert_eq!(edges.len(), 2, "{edges:?}");
        // SC ⊂ TSO and TSO ⊂ PRAM, never SC ⊂ PRAM directly.
        let names: Vec<(String, String)> = edges
            .iter()
            .map(|&(a, b)| (r.class_name(&classes[a]), r.class_name(&classes[b])))
            .collect();
        assert!(names.contains(&("SC".into(), "TSO".into())));
        assert!(names.contains(&("TSO".into(), "PRAM".into())));
    }

    #[test]
    fn equivalence_classes_merge_equal_models() {
        // On a corpus where SC and TSO agree everywhere they form one
        // class.
        let corpus = vec![parse_history(
            "p: w(x)1
q: r(x)1",
        )
        .unwrap()];
        let ms = vec![crate::models::sc(), crate::models::tso()];
        let r = compare(&corpus, &ms, &CheckConfig::default());
        let classes = r.equivalence_classes();
        assert_eq!(classes.len(), 1);
        assert_eq!(r.class_name(&classes[0]), "SC ≡ TSO");
        assert!(r.hasse_edges().is_empty());
    }

    #[test]
    fn known_inclusions_hold_exhaustively_on_small_universe() {
        // Empirically validate every claimed Figure 5 inclusion over the
        // full universe of 2-proc, 2-ops, 2-loc, 1-value histories: no
        // history may be admitted by the stronger model and refuted by
        // the weaker one.
        let params = crate::histgen::GenParams {
            procs: 2,
            ops_per_proc: 2,
            locs: 2,
            values: 1,
        };
        let corpus = crate::histgen::all_histories(&params);
        let ms = models::all_models();
        let cfg = CheckConfig::default();
        let classifications = classify_all(&corpus, &ms, &cfg, 2);
        let idx = |name: &str| ms.iter().position(|m| m.name == name);
        for (s, w) in known_inclusions() {
            let (a, b) = (idx(s).unwrap(), idx(w).unwrap());
            for (hi, c) in classifications.iter().enumerate() {
                if c.allowed[a] == Some(true) {
                    assert_ne!(
                        c.allowed[b],
                        Some(false),
                        "{s} admits history {hi} but {w} refutes it: inclusion {s} ⊆ {w} is wrong"
                    );
                }
            }
        }
    }

    #[test]
    fn forced_verdict_follows_inclusions_and_first_decided_wins() {
        // SC ⊆ TSO ⊆ PRAM.
        let ms = vec![models::sc(), models::tso(), models::pram()];
        let stronger = Stronger::new(&ms);
        // Admitted by a stronger model forces admitted, refuted by a
        // weaker one forces refuted; undecided and unrelated force nothing.
        assert_eq!(stronger.forced(&[Some(true), None, None], 2), Some(true));
        assert_eq!(stronger.forced(&[None, None, Some(false)], 0), Some(false));
        assert_eq!(stronger.forced(&[Some(false), None, None], 1), None);
        assert_eq!(stronger.forced(&[None, Some(true), None], 0), None);
        assert_eq!(stronger.forced(&[None, None, None], 1), None);
        // Conflicting forcers: the first decided model in list order wins.
        assert_eq!(
            stronger.forced(&[Some(true), None, Some(false)], 1),
            Some(true)
        );
        let reversed = vec![models::pram(), models::tso(), models::sc()];
        let stronger = Stronger::new(&reversed);
        assert_eq!(
            stronger.forced(&[Some(false), None, Some(true)], 1),
            Some(false)
        );
    }

    #[test]
    fn propagating_sweep_matches_plain_sweep() {
        let params = crate::histgen::GenParams {
            procs: 2,
            ops_per_proc: 2,
            locs: 2,
            values: 1,
        };
        let corpus = crate::histgen::all_histories(&params);
        let ms = models::figure5_models();
        let cfg = CheckConfig::default();
        let plain = classify_all(&corpus, &ms, &cfg, 2);
        let (prop, stats) = classify_all_propagating(&corpus, &ms, &cfg, 2);
        assert_eq!(plain.len(), prop.len());
        for (hi, (a, b)) in plain.iter().zip(&prop).enumerate() {
            assert_eq!(
                a.allowed, b.allowed,
                "history {hi} diverges under propagation"
            );
        }
        assert!(
            stats.propagated > 0,
            "no propagation on an exhaustive sweep"
        );
        assert_eq!(
            stats.checked + stats.propagated,
            (corpus.len() * ms.len()) as u64
        );
    }

    #[test]
    fn equivalent_on_trivial_corpus() {
        let corpus = vec![parse_history("p: w(x)1").unwrap()];
        let ms = vec![models::sc(), models::tso()];
        let r = compare(&corpus, &ms, &CheckConfig::default());
        assert!(r.equivalent_on_corpus(0, 1));
        assert!(!r.strictly_stronger(0, 1));
    }

    #[test]
    fn propagating_sweep_runs_the_pinned_checks() {
        // The counts `smc corpus --exhaustive --stats` reports: each
        // history is canonicalized once for all its models, and that must
        // neither add a memo lookup nor drop one.
        let params = crate::histgen::GenParams {
            procs: 2,
            ops_per_proc: 2,
            locs: 2,
            values: 1,
        };
        let corpus = crate::histgen::all_histories(&params);
        let cfg = CheckConfig::default().with_memo();
        let (_, stats) = classify_all_propagating(&corpus, &models::figure5_models(), &cfg, 1);
        assert_eq!(
            stats,
            PropagationStats {
                checked: 4632,
                propagated: 1848
            }
        );
        let memo = cfg.memo.as_ref().unwrap().stats();
        assert_eq!(
            memo,
            crate::memo::MemoStats {
                hits: 3418,
                misses: 1214,
                inserts: 1214,
                evictions: 0
            }
        );
    }

    #[test]
    fn inclusion_closure_keeps_a_repeated_name_at_its_first_position() {
        // Names match case-insensitively; a repeat gets no inclusions.
        let mut tso_lower = models::tso();
        tso_lower.name = "tso".into();
        let ms = vec![
            models::sc(),
            models::tso(),
            models::sc(),
            tso_lower,
            models::pram(),
        ];
        let (f, t) = (false, true);
        assert_eq!(
            inclusion_closure(&ms),
            vec![
                vec![f, t, f, f, t],
                vec![f, f, f, f, t],
                vec![f; 5],
                vec![f; 5],
                vec![f; 5],
            ]
        );
    }
}
