//! The decision procedure: is a history admitted by a model?
//!
//! Following Section 2, a history `H` is admitted by a model iff a legal
//! view `S_{p+δp}` exists for every processor, subject to the model's
//! parameters. The checker realizes the existential quantifiers as nested
//! enumerations:
//!
//! 1. **reads-from assignments** (only for models whose derived orders
//!    mention them),
//! 2. **store orders** (TSO's global write agreement),
//! 3. **coherence orders** (per-location write agreement),
//! 4. **labeled orders** (RC_sc's common SC order of labeled operations),
//! 5. a per-processor **legal-extension search** ([`crate::view`]) once
//!    all shared ingredients are fixed — at that point the views decouple
//!    and can be searched independently.
//!
//! Every `Allowed` verdict carries a [`Witness`] that
//! [`crate::verify::verify_witness`] can validate independently of the
//! search. Every enumeration charges a [`crate::budget::Budget`], so the
//! whole check runs under one node limit.
//!
//! The model-independent setup of a check — the base orders, the
//! reads-from assignments, the view operation sets — is a history's
//! `Plan`, built once per history and shared by every model checked
//! on it, and every view search runs on per-thread scratch buffers
//! ([`crate::view`]), so a memo miss in a sweep pays for its search, not
//! for rebuilding its inputs.
//!
//! The same layers serve every job count. With more than one job
//! ([`crate::batch::check_parallel`]), one layer runs its alternatives
//! side by side on a shared pool: the reads-from assignments, TSO's
//! store orders, or the views of a model with no shared order. Every
//! layer under it runs in order, and with one job every layer does.

use crate::budget::{Budget, SharedBudget};
use crate::canon::{canonicalize, Canon};
use crate::coherence::{enumerate_coherence, CoherenceOrders};
use crate::constraints::{
    assemble_global, owner_edges, BaseOrders, Candidates, LabeledCtx, RcError,
};
use crate::memo::MemoCache;
use crate::rf::{enumerate_reads_from, ReadsFrom};
use crate::spec::{LabeledModel, ModelSpec, OperationSet, OwnerOrder};
use crate::view::{
    find_legal_extension, for_each_legal_extension, LegalityMode, SearchEnd, SearchOutcome,
    ViewProblem,
};
use smc_history::{History, OpId, ProcId};
use smc_relation::{BitSet, Relation};
use std::borrow::Cow;
use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Resource limits for a check.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Maximum reads-from assignments to enumerate.
    pub max_rf: usize,
    /// Search-node budget shared across the whole check (view searches,
    /// candidate enumeration).
    pub node_budget: u64,
    /// An optional memo table consulted before (and updated after) each
    /// check: decided verdicts are shared across every history in the
    /// same renaming-symmetry class ([`crate::canon`]). `None` (the
    /// default) keeps the checker's output bit-identical to the
    /// unmemoized search — cached `Allowed` verdicts carry a *translated*
    /// witness, which verifies but need not be the same witness the
    /// search would find.
    pub memo: Option<Arc<MemoCache>>,
    /// Adaptive-cutover threshold for [`crate::batch::check_parallel`]:
    /// before spawning any workers, a bounded sequential probe runs under
    /// a budget of this many search nodes. If the probe decides, the
    /// check is over — litmus-sized instances never pay thread-spawn or
    /// shared-pool setup, and cost at `--jobs 4` what they cost at
    /// `--jobs 1`. Only when the probe exhausts its budget does the
    /// check fan out, and the wasted work is bounded by this threshold
    /// (the Cilk rule: never parallelize below a measured work
    /// threshold). The default, 4096, sits below the crossover: PC
    /// checks of 4k–16k nodes ran 0.78× as fast at two jobs as at one
    /// (worst 0.51×), and only histories with many reads-from
    /// assignments gained past ~12k nodes (README, "Parallel
    /// checking"). `0` disables the probe and always fans out.
    pub parallel_cutover: u64,
    /// Which checking backend decides: the exhaustive enumerating
    /// search, the order-constraint saturation engine
    /// ([`crate::saturate`]), or an automatic choice by model support
    /// and history size.
    pub engine: EngineKind,
    /// Conflict-driven learning in the saturation engine: derive a
    /// reason cut from every conflict, backjump over unblamed decisions,
    /// and memoize exhausted decision sets in a nogood store so
    /// aliasing-symmetric subtrees are pruned. Disabling falls back to
    /// chronological backtracking (kept as a soundness ablation knob,
    /// property-tested in `tests/saturate_learning.rs`).
    pub saturate_learning: bool,
    /// Luby restart unit for the saturation engine: restart after
    /// `unit × luby(i)` conflicts, keeping learned nogoods and activity
    /// scores. `0` disables restarts.
    pub saturate_restart_unit: u64,
}

/// Which checking backend [`check_with_config`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Always the exhaustive enumerating checker.
    Exhaustive,
    /// Always the order-constraint saturation engine
    /// ([`crate::saturate`]); models it does not support return
    /// [`Verdict::Unsupported`].
    Saturate,
    /// Saturate when [`crate::saturate::supports`] the model and the
    /// history has more than 16 operations (32 for models without shared
    /// write structure; see `ENGINE_CUTOVER`); exhaustive otherwise.
    #[default]
    Auto,
}

/// The backend that actually ran a check (reported in
/// [`CheckStats::engine_used`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The exhaustive enumerating checker.
    #[default]
    Exhaustive,
    /// The order-constraint saturation engine.
    Saturate,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Exhaustive => "exhaustive",
            Engine::Saturate => "saturate",
        })
    }
}

/// The `engine: Auto` size threshold: histories with more than this many
/// operations route to the saturation engine when the model supports it,
/// mirroring [`CheckConfig::parallel_cutover`]'s probe —
/// litmus-sized checks keep the exhaustive path (and its bit-identical
/// verdicts/witnesses), big histories get the engine that can actually
/// decide them. Corpus litmus tests top out around a dozen operations;
/// above that the exhaustive enumerations start losing to the
/// polynomial-per-decision saturation engine.
pub(crate) const ENGINE_CUTOVER: usize = 16;

/// The `engine: Auto` size threshold for models with *no* shared write
/// structure (no global write order, no coherence — SC, PRAM, causal).
/// Their exhaustive searches have no factorial store-order enumeration to
/// fall into, so the exhaustive engine stays competitive to roughly twice
/// [`ENGINE_CUTOVER`] (BENCH_bighist.json: SC_ops_16 exhaustive beats
/// saturate 2.7×).
pub(crate) const ENGINE_CUTOVER_UNSTRUCTURED: usize = 32;

/// Most store orders a fanned-out TSO check collects before checking
/// them side by side; past the cap, the rest are checked as they are
/// listed.
const STORE_ORDER_CAP: usize = 16_384;

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_rf: 4096,
            node_budget: 20_000_000,
            memo: None,
            // ~1.2ms of sequential probing at measured search rates — a
            // few times the thread-spawn + shared-pool setup cost it can
            // save, while the corpus's litmus-sized checks (tens to a few
            // thousand nodes) always decide inside the probe.
            parallel_cutover: 4096,
            engine: EngineKind::Auto,
            saturate_learning: true,
            // Conservative Luby unit: long enough that litmus-sized
            // searches finish inside the first window, short enough to
            // escape heavy-tailed subtrees on 1000-op aliased traces.
            saturate_restart_unit: 256,
        }
    }
}

impl CheckConfig {
    /// This configuration with a fresh memo table of the default
    /// capacity attached.
    pub fn with_memo(self) -> Self {
        CheckConfig {
            memo: Some(Arc::new(MemoCache::default())),
            ..self
        }
    }

    /// The backend this configuration selects for `(h, spec)`.
    pub fn resolve_engine(&self, h: &History, spec: &ModelSpec) -> Engine {
        match self.engine {
            EngineKind::Exhaustive => Engine::Exhaustive,
            EngineKind::Saturate => Engine::Saturate,
            EngineKind::Auto => {
                // Model-aware cutover: models whose exhaustive search
                // enumerates a shared write structure (store orders,
                // coherence orders) blow up earliest; structure-free
                // models keep the exhaustive engine longer.
                let cutover = if spec.global_write_order || spec.coherence {
                    ENGINE_CUTOVER
                } else {
                    ENGINE_CUTOVER_UNSTRUCTURED
                };
                if crate::saturate::supports(spec) && h.num_ops() > cutover {
                    Engine::Saturate
                } else {
                    Engine::Exhaustive
                }
            }
        }
    }
}

/// The enumeration layer in which a check ran out of budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// The reads-from enumeration was truncated at `max_rf` assignments.
    ReadsFrom,
    /// Enumerating TSO's global store orders.
    StoreOrders,
    /// Enumerating per-location coherence orders.
    CoherenceOrders,
    /// Enumerating common orders of the labeled operations.
    LabeledOrders,
    /// Searching a per-processor legal view.
    ViewSearch,
    /// Propagating order constraints in the saturation engine
    /// ([`crate::saturate`]).
    Saturation,
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Stage::ReadsFrom => "reads-from enumeration",
            Stage::StoreOrders => "store-order enumeration",
            Stage::CoherenceOrders => "coherence-order enumeration",
            Stage::LabeledOrders => "labeled-order enumeration",
            Stage::ViewSearch => "view search",
            Stage::Saturation => "constraint saturation",
        })
    }
}

/// How much work a check did, reported alongside its [`Verdict`].
#[derive(Debug, Clone, Default)]
pub struct CheckStats {
    /// Search nodes charged to the budget.
    pub nodes_spent: u64,
    /// Reads-from assignments the check started on.
    pub rf_assignments_tried: usize,
    /// `true` if the reads-from enumeration hit `max_rf` before listing
    /// every assignment.
    pub rf_truncated: bool,
    /// Wall-clock time of the check.
    pub wall: Duration,
    /// Where the budget ran out, for `Exhausted` verdicts.
    pub exhausted_stage: Option<Stage>,
    /// `true` if the verdict came from the memo table rather than a
    /// search.
    pub memo_hit: bool,
    /// `true` if [`crate::batch::check_parallel`] answered without
    /// spawning workers: the `jobs == 1` path, a shape with no
    /// independent searches to fan out, or the adaptive cutover's
    /// sequential probe deciding within [`CheckConfig::parallel_cutover`]
    /// nodes. `false` from a plain sequential entry point
    /// ([`check_with_stats`]) or a memo hit means "no cutover decision was
    /// taken", not "workers ran".
    pub ran_sequential: bool,
    /// Search nodes the cutover probe spent before deciding (counted in
    /// [`CheckStats::nodes_spent`] too), or before giving up and fanning
    /// out. Zero when no probe ran.
    pub probe_nodes: u64,
    /// The backend that produced the verdict. Stays at the default
    /// ([`Engine::Exhaustive`]) on a memo hit, where no engine ran —
    /// [`CheckStats::memo_hit`] disambiguates.
    pub engine_used: Engine,
    /// Closure edges the saturation engine inserted (each also charged
    /// one budget node). Zero under the exhaustive engine.
    pub saturation_steps: u64,
    /// Decisions (reads-from picks, recency-triple orientations, write
    /// pair orderings) the saturation engine's backtracking solver made.
    pub saturation_branches: u64,
    /// Watched-constraint wakeups: reads-from candidates killed plus
    /// recency triples re-examined, each triggered by one inserted edge
    /// (never by a rescan).
    pub saturation_wakeups: u64,
    /// Conflicts the saturation engine's solver hit (including learned
    /// nogood hits).
    pub saturation_conflicts: u64,
    /// Nogoods (exhausted decision prefixes and conflict reason cuts)
    /// learned into the saturation engine's store.
    pub saturation_learned: u64,
    /// Luby restarts the saturation engine performed.
    pub saturation_restarts: u64,
}

/// A certificate that a history is admitted: the per-processor views plus
/// every enumerated shared ingredient that produced them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// One legal view per processor, as sequences of operation ids.
    pub views: Vec<Vec<OpId>>,
    /// TSO's common store order, if the model required one.
    pub store_order: Option<Vec<OpId>>,
    /// Per-location coherence orders, if the model required them.
    pub coherence: Option<Vec<Vec<OpId>>>,
    /// RC_sc's common legal order of labeled operations.
    pub labeled_order: Option<Vec<OpId>>,
    /// The reads-from assignment the check was relative to.
    pub reads_from: Option<Vec<Option<OpId>>>,
}

/// The checker's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The history is admitted; a witness is attached.
    Allowed(Box<Witness>),
    /// The history is not admitted by the model.
    Disallowed,
    /// The resource budget ran out before the question was decided.
    Exhausted,
    /// The (history, model) combination is outside the checker's scope —
    /// currently only RC checks of histories that access a location with
    /// both labeled and ordinary operations.
    Unsupported(String),
}

impl Verdict {
    /// `true` for [`Verdict::Allowed`].
    pub fn is_allowed(&self) -> bool {
        matches!(self, Verdict::Allowed(_))
    }

    /// `true` for [`Verdict::Disallowed`].
    pub fn is_disallowed(&self) -> bool {
        matches!(self, Verdict::Disallowed)
    }

    /// `Some(true)` / `Some(false)` for decided verdicts, `None`
    /// otherwise.
    pub fn decided(&self) -> Option<bool> {
        match self {
            Verdict::Allowed(_) => Some(true),
            Verdict::Disallowed => Some(false),
            _ => None,
        }
    }
}

/// Check `h` against `spec` with default limits.
pub fn check(h: &History, spec: &ModelSpec) -> Verdict {
    check_with_config(h, spec, &CheckConfig::default())
}

/// Check `h` against `spec` under explicit resource limits.
pub fn check_with_config(h: &History, spec: &ModelSpec, cfg: &CheckConfig) -> Verdict {
    check_with_stats(h, spec, cfg).0
}

/// Check `h` against `spec`, also reporting how much work the check did.
pub fn check_with_stats(h: &History, spec: &ModelSpec, cfg: &CheckConfig) -> (Verdict, CheckStats) {
    check_with_jobs(h, spec, cfg, 1)
}

/// [`check_with_stats`] on `jobs` workers: the body of
/// [`crate::batch::check_parallel`].
pub(crate) fn check_with_jobs(
    h: &History,
    spec: &ModelSpec,
    cfg: &CheckConfig,
    jobs: usize,
) -> (Verdict, CheckStats) {
    let start = Instant::now();
    let canon = cfg.memo.as_ref().map(|_| canonicalize(h));
    let plan = Plan::new(h, cfg);
    let (verdict, mut stats) = check_with_canon(&plan, spec, cfg, canon.as_ref(), jobs);
    // The check's wall time includes canonicalizing for the memo.
    stats.wall = start.elapsed();
    (verdict, stats)
}

/// The model-independent setup of an exhaustive check of one history,
/// each piece built on first use and then shared by every model checked
/// against the history: the base orders, the reads-from assignments
/// (under `cfg.max_rf`), the view operation sets, and the writes TSO's
/// store orders range over. A sweep makes one plan per history, so its
/// memo misses build each piece at most once between them, and a
/// history whose every check hits the memo builds none. The pieces sit
/// in `OnceLock`s, so a fanned-out check shares the plan across its
/// workers.
pub(crate) struct Plan<'h> {
    h: &'h History,
    max_rf: usize,
    base: OnceLock<BaseOrders>,
    reads_from: OnceLock<(Vec<ReadsFrom>, bool)>,
    all_ops: OnceLock<BitSet>,
    /// `view_op_sets` for [`OperationSet::AllOps`] and
    /// [`OperationSet::WritesOnly`].
    op_sets: [OnceLock<Vec<BitSet>>; 2],
    writes: OnceLock<BitSet>,
}

impl<'h> Plan<'h> {
    /// An empty plan for checks of `h` under `cfg`; making it costs
    /// nothing until a check needs a piece.
    pub(crate) fn new(h: &'h History, cfg: &CheckConfig) -> Self {
        Plan {
            h,
            max_rf: cfg.max_rf,
            base: OnceLock::new(),
            reads_from: OnceLock::new(),
            all_ops: OnceLock::new(),
            op_sets: [OnceLock::new(), OnceLock::new()],
            writes: OnceLock::new(),
        }
    }

    fn base(&self) -> &BaseOrders {
        self.base.get_or_init(|| BaseOrders::new(self.h))
    }

    /// The reads-from assignments, and whether `max_rf` cut them short.
    fn reads_from(&self) -> (&[ReadsFrom], bool) {
        let (rfs, truncated) = self
            .reads_from
            .get_or_init(|| enumerate_reads_from(self.h, self.max_rf));
        (rfs, *truncated)
    }

    /// Every operation: SC's one view.
    fn all_ops(&self) -> &BitSet {
        self.all_ops.get_or_init(|| BitSet::full(self.h.num_ops()))
    }

    fn op_sets(&self, delta: OperationSet) -> &[BitSet] {
        let slot = match delta {
            OperationSet::AllOps => 0,
            OperationSet::WritesOnly => 1,
        };
        self.op_sets[slot].get_or_init(|| view_op_sets(self.h, delta))
    }

    fn writes(&self) -> &BitSet {
        self.writes.get_or_init(|| {
            BitSet::from_iter(
                self.h.num_ops(),
                self.h
                    .ops()
                    .iter()
                    .filter(|o| o.is_write())
                    .map(|o| o.id.index()),
            )
        })
    }
}

/// The one place a check starts: memo recall, the engine, memo record.
/// `plan` is the history's [`Plan`], and `canon` its canonical form,
/// given exactly when `cfg.memo` is set (the lattice sweep
/// canonicalizes a history and makes its plan once for all its models).
/// Each engine runs under `cfg.node_budget` nodes; with more than one
/// job the exhaustive engine may fan its layers out ([`exhaustive`]).
pub(crate) fn check_with_canon(
    plan: &Plan<'_>,
    spec: &ModelSpec,
    cfg: &CheckConfig,
    canon: Option<&Canon>,
    jobs: usize,
) -> (Verdict, CheckStats) {
    debug_assert_eq!(cfg.memo.is_some(), canon.is_some());
    debug_assert_eq!(plan.max_rf, cfg.max_rf);
    let h = plan.h;
    let start = Instant::now();
    // Memoized path: a hit costs one table lookup and a witness
    // translation, no search nodes.
    let memo = cfg.memo.as_deref().zip(canon);
    if let Some((memo, canon)) = memo {
        if let Some(verdict) = memo.recall(canon, spec.param_key()) {
            let stats = CheckStats {
                memo_hit: true,
                wall: start.elapsed(),
                ..CheckStats::default()
            };
            return (verdict, stats);
        }
    }
    // With more than one job, a check that never fans out says so.
    let mut stats = CheckStats {
        ran_sequential: jobs > 1,
        ..CheckStats::default()
    };
    let verdict = match cfg.resolve_engine(h, spec) {
        Engine::Saturate => {
            stats.engine_used = Engine::Saturate;
            let budget = Budget::local(cfg.node_budget);
            let verdict = crate::saturate::check_saturate(h, spec, cfg, &budget, &mut stats);
            stats.nodes_spent = budget.spent();
            verdict
        }
        Engine::Exhaustive => exhaustive(plan, spec, cfg, jobs, &mut stats),
    };
    stats.wall = start.elapsed();
    if !matches!(verdict, Verdict::Exhausted) {
        stats.exhausted_stage = None;
    }
    if let Some((memo, canon)) = memo {
        memo.record(canon, spec.param_key(), &verdict);
    }
    (verdict, stats)
}

/// Whether some layer of a `spec` check can fan out: the reads-from
/// assignments, TSO's store orders, or the per-processor views of a
/// model with no shared order. SC's one shared view never does, nor do
/// coherence or labeled orders without reads-from (Coherent, PCG,
/// Hybrid).
fn fans_out(spec: &ModelSpec) -> bool {
    spec.needs_reads_from()
        || spec.global_write_order
        || !(spec.identical_views || spec.coherence || spec.labeled.is_some())
}

/// The exhaustive engine on `jobs` workers. One job, or a shape with
/// nothing to fan out, runs the layers in order under
/// `cfg.node_budget` nodes. Otherwise a sequential probe of
/// `cfg.parallel_cutover` nodes runs first, exactly as one job would:
/// most checks (every litmus-sized one) decide in far fewer nodes than
/// spawning workers costs. Only when the probe exhausts do the layers
/// run again, fanned out on one pool of `cfg.node_budget` nodes, and
/// the probe's nodes count too.
fn exhaustive(
    plan: &Plan<'_>,
    spec: &ModelSpec,
    cfg: &CheckConfig,
    jobs: usize,
    stats: &mut CheckStats,
) -> Verdict {
    let sequential = |limit: u64, stats: &mut CheckStats| {
        let budget = Budget::local(limit);
        let verdict = run_check(plan, spec, &budget, stats, 1);
        stats.nodes_spent = budget.spent();
        verdict
    };
    if jobs <= 1 || !fans_out(spec) {
        return sequential(cfg.node_budget, stats);
    }
    if cfg.parallel_cutover > 0 {
        let limit = cfg.parallel_cutover.min(cfg.node_budget);
        let verdict = sequential(limit, stats);
        stats.probe_nodes = stats.nodes_spent;
        // A probe that had the whole node budget leaves a fan-out
        // nothing more to search.
        if !matches!(verdict, Verdict::Exhausted) || limit >= cfg.node_budget {
            return verdict;
        }
    }
    // The fan-out starts its stats afresh, keeping the probe's nodes.
    let pool = SharedBudget::new(cfg.node_budget);
    let seed = pool.attach();
    let probe_nodes = stats.probe_nodes;
    *stats = CheckStats {
        probe_nodes,
        ..CheckStats::default()
    };
    let verdict = run_check(plan, spec, &seed, stats, jobs);
    seed.release();
    stats.nodes_spent = probe_nodes + cfg.node_budget - pool.remaining();
    verdict
}

/// The outermost layer: the reads-from assignments, for models whose
/// orders mention them. With exactly one assignment the layers under it
/// may fan out instead.
fn run_check(
    plan: &Plan<'_>,
    spec: &ModelSpec,
    budget: &Budget,
    stats: &mut CheckStats,
    jobs: usize,
) -> Verdict {
    if let Err(e) = spec.validate() {
        return Verdict::Unsupported(e);
    }
    let step = if spec.needs_reads_from() {
        // No assignment at all means no read is explainable, so no legal
        // views exist — unless the enumeration was cut short.
        let (rfs, truncated) = plan.reads_from();
        stats.rf_truncated = truncated;
        let (outer, inner) = if rfs.len() == 1 { (1, jobs) } else { (jobs, 1) };
        let runs = run_alternatives(rfs.len(), outer, budget, |i, budget| {
            check_with_rf(plan, spec, Some(&rfs[i]), budget, inner)
        });
        stats.rf_assignments_tried += runs.iter().flatten().count();
        match first_explanation(runs, Stage::ReadsFrom) {
            // Refuting every enumerated assignment refutes the history
            // only if the enumeration was complete.
            Step::Disallowed if truncated => Step::Exhausted(Stage::ReadsFrom),
            step => step,
        }
    } else {
        check_with_rf(plan, spec, None, budget, jobs)
    };
    match step {
        Step::Allowed(w) => Verdict::Allowed(w),
        Step::Disallowed => Verdict::Disallowed,
        Step::Exhausted(stage) => {
            stats.exhausted_stage = Some(stage);
            Verdict::Exhausted
        }
        Step::Unsupported(e) => Verdict::Unsupported(e),
    }
}

/// One alternative's outcome within a layer.
enum Step {
    Allowed(Box<Witness>),
    Disallowed,
    Exhausted(Stage),
    Unsupported(String),
}

/// An alternative's result as [`run_alternatives`] reads it.
trait Alternative: Send {
    /// Whether the next alternative still has to run.
    fn goes_on(&self) -> bool;
    /// Whether this result decides the layer whatever the others say.
    fn settles(&self) -> bool;
}

/// Reads-from assignments and store orders each explain the history on
/// their own: a witness or a refusal settles the layer.
impl Alternative for Step {
    fn goes_on(&self) -> bool {
        matches!(self, Step::Disallowed)
    }

    fn settles(&self) -> bool {
        matches!(self, Step::Allowed(_) | Step::Unsupported(_))
    }
}

/// The per-processor views must all exist: a refuted view settles the
/// layer.
impl Alternative for SearchOutcome {
    fn goes_on(&self) -> bool {
        matches!(self, SearchOutcome::Found(_))
    }

    fn settles(&self) -> bool {
        *self == SearchOutcome::NotFound
    }
}

/// Run alternatives `0..n` of one layer. With one job they run in order
/// on `budget` and stop after the first that does not go on. With more,
/// they run on [`crate::batch::par_map`], each on its own attachment to
/// the pool `budget` draws from, and a settling result cancels the pool:
/// an alternative not yet started is then skipped (`None`).
fn run_alternatives<T: Alternative>(
    n: usize,
    jobs: usize,
    budget: &Budget,
    each: impl Fn(usize, &Budget) -> T + Sync,
) -> Vec<Option<T>> {
    let Some(pool) = budget.shared().filter(|_| jobs > 1 && n > 1) else {
        let mut runs = Vec::new();
        for i in 0..n {
            let run = each(i, budget);
            let goes_on = run.goes_on();
            runs.push(Some(run));
            if !goes_on {
                break;
            }
        }
        return runs;
    };
    // Hand the caller's unspent chunk back to the workers.
    budget.release();
    crate::batch::par_map(n, jobs, |i| {
        if pool.is_cancelled() {
            return None;
        }
        let own = pool.attach();
        let run = each(i, &own);
        if run.settles() {
            pool.cancel();
        }
        own.release();
        Some(run)
    })
}

/// Settle a layer of alternatives that each explain the history on
/// their own: the lowest-index witness or refusal wins, then the first
/// exhausted stage, then `unfinished` if an alternative was skipped
/// (only a settling result skips any, so this is a safeguard:
/// `Disallowed` would claim an unchecked alternative). Otherwise every
/// alternative was refuted.
fn first_explanation(runs: Vec<Option<Step>>, unfinished: Stage) -> Step {
    let mut exhausted = None;
    let mut skipped = false;
    for run in runs {
        match run {
            Some(Step::Disallowed) => {}
            Some(Step::Exhausted(stage)) => exhausted = exhausted.or(Some(stage)),
            Some(decided) => return decided,
            None => skipped = true,
        }
    }
    exhausted
        .or(skipped.then_some(unfinished))
        .map_or(Step::Disallowed, Step::Exhausted)
}

/// Settle the per-processor views, which must all exist: a refuted view
/// refutes the layer, and a view exhausted or skipped leaves it
/// undecided.
fn all_views(runs: Vec<Option<SearchOutcome>>) -> Result<Vec<Vec<OpId>>, Step> {
    if runs.contains(&Some(SearchOutcome::NotFound)) {
        return Err(Step::Disallowed);
    }
    runs.into_iter()
        .map(|run| match run {
            Some(SearchOutcome::Found(view)) => Ok(view),
            _ => Err(Step::Exhausted(Stage::ViewSearch)),
        })
        .collect()
}

/// The operation sets `V_p = H_p ∪ δ_p` for each processor.
pub fn view_op_sets(h: &History, delta: OperationSet) -> Vec<BitSet> {
    (0..h.num_procs())
        .map(|p| {
            BitSet::from_iter(
                h.num_ops(),
                h.ops()
                    .iter()
                    .filter(|o| {
                        o.proc.index() == p
                            || match delta {
                                OperationSet::AllOps => true,
                                OperationSet::WritesOnly => o.is_write(),
                            }
                    })
                    .map(|o| o.id.index()),
            )
        })
        .collect()
}

/// Everything under one reads-from assignment (or none): the shared
/// orders the model needs, then the views. `jobs` reaches the layer
/// that may fan out, the store orders or the views of a model with no
/// shared order; the layers under it run in order.
fn check_with_rf(
    plan: &Plan<'_>,
    spec: &ModelSpec,
    rf: Option<&ReadsFrom>,
    budget: &Budget,
    jobs: usize,
) -> Step {
    let (h, base) = (plan.h, plan.base());
    let legality = match rf {
        Some(rf) => LegalityMode::ByReadsFrom(rf),
        None => LegalityMode::ByValue,
    };

    // Release consistency: build the labeled context once per assignment
    // (the agreement-only submodel needs neither reads-from nor the
    // sync-location discipline).
    let labeled_ctx = if matches!(
        spec.labeled,
        Some(LabeledModel::SequentiallyConsistent) | Some(LabeledModel::ProcessorConsistent)
    ) {
        let Some(rf) = rf else {
            return Step::Unsupported(format!(
                "{}: labeled submodel requires a reads-from assignment",
                spec.name
            ));
        };
        match LabeledCtx::build(h, rf) {
            Ok(ctx) => Some(ctx),
            Err(RcError::MixedLocation(loc)) => {
                return Step::Unsupported(format!(
                    "{}: location `{loc}` is accessed by both labeled and ordinary \
                     operations; the RC checker requires the properly-labeled \
                     discipline (sync locations touched only by labeled operations)",
                    spec.name
                ))
            }
            // This reads-from assignment cannot be an RC witness.
            Err(RcError::AcquireFromOrdinary) => return Step::Disallowed,
        }
    } else {
        None
    };

    // SC's identical-views shortcut: one shared legal sequence of all ops.
    if spec.identical_views {
        let cand = Candidates::default();
        let g = match assemble_global(h, spec, base, rf, &cand, None) {
            Ok(g) => g,
            Err(e) => return Step::Unsupported(e),
        };
        let problem = ViewProblem {
            history: h,
            ops: plan.all_ops(),
            constraints: &g,
            legality,
        };
        return match find_legal_extension(&problem, budget) {
            SearchOutcome::Found(order) => Step::Allowed(Box::new(Witness {
                views: vec![order; h.num_procs()],
                store_order: None,
                coherence: None,
                labeled_order: None,
                reads_from: rf.map(|r| r.as_slice().to_vec()),
            })),
            SearchOutcome::NotFound => Step::Disallowed,
            SearchOutcome::Exhausted => Step::Exhausted(Stage::ViewSearch),
        };
    }

    // Layer 2: store orders (TSO). One job checks each order as it is
    // listed. More collect up to `STORE_ORDER_CAP` orders and fan them
    // out; past the cap, the rest are checked as they are listed.
    if spec.global_write_order {
        let check_stores = |stores: &[Vec<OpId>]| {
            let runs = run_alternatives(stores.len(), jobs, budget, |i, budget| {
                let cand = Candidates {
                    store_order: Some(&stores[i]),
                    ..Default::default()
                };
                with_candidates(plan, spec, rf, legality, &cand, None, budget, 1)
            });
            first_explanation(runs, Stage::ViewSearch)
        };
        let mut batch = if jobs > 1 { STORE_ORDER_CAP } else { 1 };
        let mut stores = Vec::new();
        let mut result = Step::Disallowed;
        let _ = smc_relation::linext::for_each_linear_extension(&base.ppo, plan.writes(), |ext| {
            if !budget.try_spend() {
                result = Step::Exhausted(Stage::StoreOrders);
                return ControlFlow::Break(());
            }
            stores.push(ext.iter().map(|&i| OpId(i as u32)).collect());
            if stores.len() < batch {
                return ControlFlow::Continue(());
            }
            result = check_stores(&stores);
            stores.clear();
            batch = 1;
            match result {
                Step::Disallowed => ControlFlow::Continue(()),
                _ => ControlFlow::Break(()),
            }
        });
        if stores.is_empty() {
            return result;
        }
        // Orders listed but not yet checked: fewer than the cap, or the
        // budget ran out listing more, which ranks after all of them.
        return match check_stores(&stores) {
            Step::Disallowed => result,
            step => step,
        };
    }

    // Layer 3: coherence orders (PC, RC, coherent variants).
    if spec.coherence {
        // Any common per-location write order must extend ppo restricted
        // to same-location writes (every view contains all writes and
        // respects at least the owner's ppo there).
        let mut result = Step::Disallowed;
        let flow = enumerate_coherence(h, &base.ppo, budget, |coh| {
            if !budget.try_spend() {
                result = Step::Exhausted(Stage::CoherenceOrders);
                return ControlFlow::Break(());
            }
            match with_coherence(plan, spec, rf, legality, coh, labeled_ctx.as_ref(), budget) {
                Step::Disallowed => ControlFlow::Continue(()),
                done => {
                    result = done;
                    ControlFlow::Break(())
                }
            }
        });
        if flow.is_none() {
            // The budget died while *generating* coherence orders; the
            // unvisited combinations mean `Disallowed` would be a lie.
            return Step::Exhausted(Stage::CoherenceOrders);
        }
        return result;
    }

    // Labeled agreement without coherence (hybrid consistency).
    if spec.labeled == Some(LabeledModel::AgreementOnly) {
        return with_labeled_agreement(plan, spec, rf, legality, None, budget);
    }

    // No shared orders at all (PRAM, causal): straight to the views,
    // which may fan out.
    let cand = Candidates::default();
    with_candidates(plan, spec, rf, legality, &cand, None, budget, jobs)
}

/// Enumerate the common (agreement-only) orders of the labeled
/// operations: linear extensions of program order restricted to labeled
/// operations, optionally also respecting a fixed coherence order.
fn with_labeled_agreement(
    plan: &Plan<'_>,
    spec: &ModelSpec,
    rf: Option<&ReadsFrom>,
    legality: LegalityMode<'_>,
    coh: Option<&CoherenceOrders>,
    budget: &Budget,
) -> Step {
    let (h, base) = (plan.h, plan.base());
    let labeled = BitSet::from_iter(h.num_ops(), h.labeled_ops().map(|o| o.id.index()));
    let mut cons = base.po.clone();
    if let Some(coh) = coh {
        cons.union_with(&coh.as_relation(h.num_ops()));
    }
    let mut result = Step::Disallowed;
    let flow = smc_relation::linext::for_each_linear_extension(&cons, &labeled, |ext| {
        if !budget.try_spend() {
            result = Step::Exhausted(Stage::LabeledOrders);
            return ControlFlow::Break(());
        }
        let t: Vec<OpId> = ext.iter().map(|&i| OpId(i as u32)).collect();
        let cand = Candidates {
            coherence: coh,
            labeled_order: Some(&t),
            ..Default::default()
        };
        match with_candidates(plan, spec, rf, legality, &cand, None, budget, 1) {
            Step::Disallowed => ControlFlow::Continue(()),
            done => {
                result = match done {
                    Step::Allowed(mut w) => {
                        w.labeled_order = Some(t);
                        Step::Allowed(w)
                    }
                    other => other,
                };
                ControlFlow::Break(())
            }
        }
    });
    let _ = flow;
    match (result, coh) {
        (r, None) => r,
        (r, Some(coh)) => attach_coherence(r, coh),
    }
}

/// With a coherence order fixed, handle the optional labeled layer and
/// descend to the per-view searches.
fn with_coherence(
    plan: &Plan<'_>,
    spec: &ModelSpec,
    rf: Option<&ReadsFrom>,
    legality: LegalityMode<'_>,
    coh: &CoherenceOrders,
    labeled_ctx: Option<&LabeledCtx>,
    budget: &Budget,
) -> Step {
    match spec.labeled {
        Some(LabeledModel::AgreementOnly) => {
            with_labeled_agreement(plan, spec, rf, legality, Some(coh), budget)
        }
        Some(LabeledModel::SequentiallyConsistent) => {
            let Some(ctx) = labeled_ctx else {
                return Step::Unsupported(format!(
                    "{}: labeled context missing for an RC_sc check",
                    spec.name
                ));
            };
            // Enumerate the legal SC orders T of the labeled subhistory:
            // legal linear extensions of po_sub ∪ the projected coherence.
            let sub = &ctx.sub;
            let mut cons = crate::orders::program_order(sub);
            cons.union_with(&ctx.project_coherence(coh).as_relation(sub.num_ops()));
            let problem = ViewProblem {
                history: sub,
                ops: &BitSet::full(sub.num_ops()),
                constraints: &cons,
                legality: LegalityMode::ByReadsFrom(&ctx.rf_sub),
            };
            let mut result = Step::Disallowed;
            let end = for_each_legal_extension(&problem, budget, |t_sub| {
                let t: Vec<OpId> = t_sub.iter().map(|l| ctx.back[l.index()]).collect();
                let cand = Candidates {
                    coherence: Some(coh),
                    labeled_order: Some(&t),
                    ..Default::default()
                };
                match with_candidates(plan, spec, rf, legality, &cand, Some(ctx), budget, 1) {
                    Step::Disallowed => ControlFlow::Continue(()),
                    done => ControlFlow::Break((done, t)),
                }
            });
            match end {
                SearchEnd::Completed => {}
                SearchEnd::Exhausted => result = Step::Exhausted(Stage::LabeledOrders),
                SearchEnd::Broke((done, t)) => {
                    result = match done {
                        Step::Allowed(mut w) => {
                            w.labeled_order = Some(t);
                            Step::Allowed(w)
                        }
                        other => other,
                    };
                }
            }
            attach_coherence(result, coh)
        }
        _ => {
            let cand = Candidates {
                coherence: Some(coh),
                ..Default::default()
            };
            attach_coherence(
                with_candidates(plan, spec, rf, legality, &cand, labeled_ctx, budget, 1),
                coh,
            )
        }
    }
}

fn attach_coherence(step: Step, coh: &CoherenceOrders) -> Step {
    match step {
        Step::Allowed(mut w) => {
            w.coherence = Some(coh.all().to_vec());
            Step::Allowed(w)
        }
        other => other,
    }
}

/// The constraint relation for processor `p`'s view under the current
/// candidates: the global relation itself, or a copy plus the owner-only
/// edges for a model that has them.
fn proc_constraints<'g>(
    plan: &Plan<'_>,
    spec: &ModelSpec,
    g: &'g Relation,
    p: usize,
) -> Cow<'g, Relation> {
    if matches!(spec.owner_order, OwnerOrder::None) {
        Cow::Borrowed(g)
    } else {
        let mut gp = g.clone();
        gp.union_with(&owner_edges(plan.h, spec, plan.base(), p));
        Cow::Owned(gp)
    }
}

/// All shared ingredients fixed: assemble the global constraint relation
/// and search each processor's view independently, on `jobs` workers.
#[allow(clippy::too_many_arguments)]
fn with_candidates(
    plan: &Plan<'_>,
    spec: &ModelSpec,
    rf: Option<&ReadsFrom>,
    legality: LegalityMode<'_>,
    cand: &Candidates<'_>,
    labeled_ctx: Option<&LabeledCtx>,
    budget: &Budget,
    jobs: usize,
) -> Step {
    let h = plan.h;
    let g = match assemble_global(h, spec, plan.base(), rf, cand, labeled_ctx) {
        Ok(g) => g,
        Err(e) => return Step::Unsupported(e),
    };
    // A cyclic constraint set can never be extended; reject early.
    if !g.is_acyclic() {
        return Step::Disallowed;
    }
    let op_sets = plan.op_sets(spec.delta);
    let runs = run_alternatives(h.num_procs(), jobs, budget, |p, budget| {
        let constraints = proc_constraints(plan, spec, &g, p);
        let problem = ViewProblem {
            history: h,
            ops: &op_sets[p],
            constraints: &constraints,
            legality,
        };
        find_legal_extension(&problem, budget)
    });
    let views = match all_views(runs) {
        Ok(views) => views,
        Err(step) => return step,
    };
    Step::Allowed(Box::new(Witness {
        views,
        store_order: cand.store_order.map(<[OpId]>::to_vec),
        coherence: None,
        labeled_order: None,
        reads_from: rf.map(|r| r.as_slice().to_vec()),
    }))
}

/// Render a witness view in the paper's notation
/// (`S_{p+w}: r_p(y)0 w_p(x)1 w_q(y)1`).
pub fn format_view(h: &History, p: ProcId, view: &[OpId]) -> String {
    let ops: Vec<String> = view.iter().map(|&o| h.format_op_subscripted(o)).collect();
    format!("S_{{{}+w}}: {}", h.proc_name(p), ops.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models;
    use smc_history::litmus::parse_history;
    use smc_history::HistoryBuilder;

    #[test]
    fn empty_history_allowed_by_every_model() {
        let h = HistoryBuilder::new().build();
        for m in models::all_models() {
            assert!(check(&h, &m).is_allowed(), "{} rejects empty", m.name);
        }
    }

    #[test]
    fn single_op_history_allowed_by_every_model() {
        let h = parse_history("p: w(x)1").unwrap();
        for m in models::all_models() {
            assert!(check(&h, &m).is_allowed(), "{} rejects single op", m.name);
        }
        let r = parse_history("p: r(x)0").unwrap();
        for m in models::all_models() {
            assert!(
                check(&r, &m).is_allowed(),
                "{} rejects initial read",
                m.name
            );
        }
    }

    #[test]
    fn unexplainable_read_disallowed_everywhere() {
        let h = parse_history("p: r(x)7").unwrap();
        for m in models::all_models() {
            assert!(
                check(&h, &m).is_disallowed(),
                "{} admits a read of a never-written value",
                m.name
            );
        }
    }

    #[test]
    fn tiny_budget_reports_exhausted() {
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let cfg = CheckConfig {
            max_rf: 1,
            node_budget: 1,
            ..CheckConfig::default()
        };
        assert_eq!(
            check_with_config(&h, &models::sc(), &cfg),
            Verdict::Exhausted
        );
    }

    #[test]
    fn stats_report_exhaustion_stage_and_spend() {
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let cfg = CheckConfig {
            max_rf: 1,
            node_budget: 1,
            ..CheckConfig::default()
        };
        let (v, stats) = check_with_stats(&h, &models::sc(), &cfg);
        assert_eq!(v, Verdict::Exhausted);
        assert_eq!(stats.exhausted_stage, Some(Stage::ViewSearch));
        assert_eq!(stats.nodes_spent, 1);
    }

    #[test]
    fn stats_on_decided_verdicts() {
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
        let cfg = CheckConfig::default();
        let (v, stats) = check_with_stats(&h, &models::sc(), &cfg);
        assert!(v.is_disallowed());
        assert_eq!(stats.exhausted_stage, None);
        assert!(stats.nodes_spent > 0);
        assert!(!stats.rf_truncated);

        let (v, stats) = check_with_stats(&h, &models::causal(), &cfg);
        assert!(v.is_allowed());
        assert!(stats.rf_assignments_tried >= 1);
    }

    #[test]
    fn invalid_spec_reports_unsupported() {
        let mut bad = models::rc_sc();
        bad.coherence = false;
        let h = parse_history("p: w(x)1").unwrap();
        assert!(matches!(check(&h, &bad), Verdict::Unsupported(_)));
    }

    #[test]
    fn view_op_sets_membership() {
        let h = parse_history("p: w(x)1 r(y)0\nq: w(y)1").unwrap();
        let writes_only = view_op_sets(&h, OperationSet::WritesOnly);
        // p's view: both own ops + q's write.
        assert_eq!(writes_only[0].count(), 3);
        // q's view: own write + p's write (not p's read).
        assert_eq!(writes_only[1].count(), 2);
        let all = view_op_sets(&h, OperationSet::AllOps);
        assert_eq!(all[0].count(), 3);
        assert_eq!(all[1].count(), 3);
    }

    #[test]
    fn format_view_uses_paper_notation() {
        let h = parse_history("p: w(x)1\nq: r(x)1").unwrap();
        let s = format_view(&h, ProcId(1), &[OpId(0), OpId(1)]);
        assert_eq!(s, "S_{q+w}: w_p(x)1 r_q(x)1");
    }

    #[test]
    fn verdict_helpers() {
        assert_eq!(Verdict::Disallowed.decided(), Some(false));
        assert_eq!(Verdict::Exhausted.decided(), None);
        assert!(!Verdict::Unsupported("x".into()).is_allowed());
    }

    #[test]
    fn duplicate_values_exercise_rf_enumeration() {
        // Two writes of the same value: only one attribution makes the
        // causal check succeed, and the checker must find it.
        let h = parse_history("p: w(x)5\nq: w(x)5\nr: r(x)5 r(x)5").unwrap();
        assert!(check(&h, &models::causal()).is_allowed());
        assert!(check(&h, &models::sc()).is_allowed());
    }
}
