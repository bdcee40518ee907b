//! Streaming incremental admission monitoring over operation traces.
//!
//! The batch entry points (`check`, `corpus`, `matrix`) re-run the
//! view-extension search from scratch on a complete history. A
//! [`Monitor`] instead consumes `(processor, operation)` events one at a
//! time and maintains, per model, the admission verdict of the *prefix
//! seen so far*:
//!
//! * For models whose per-view question is "does a legal extension of
//!   program order exist?" — the SC and PRAM parameter shapes — the
//!   monitor checkpoints the full set of reachable scheduling states in
//!   a [`smc_core::frontier::FrontierEngine`] and extends it by one
//!   operation per event. Each state is discovered and expanded once
//!   over the whole stream, so the amortized per-event cost stays
//!   near-flat instead of growing with the prefix.
//! * For every other model the monitor falls back to re-checking the
//!   prefix with the batch checker (sharing one [`smc_core::MemoCache`]
//!   across appends), but first tries to *propagate* the verdict through
//!   the known inclusion lattice: if a stronger model already admitted
//!   this prefix the weaker one must too, and if a weaker model refuted
//!   it the stronger one must too. One [`smc_core::lattice::Settle`]
//!   per batch does both, canonicalizing and planning the prefix once
//!   for all its re-checks. With SC at the head of the model list, an
//!   SC-admitted prefix decides every other lattice model for free.
//!
//! Admission over prefixes is **not** monotone — a refuted prefix can
//! heal when a later write arrives — so the monitor keeps reporting
//! per-prefix verdicts rather than latching the first refutation. It
//! does *record* the first refuted prefix per model, and
//! [`Monitor::violation_report`] shrinks that prefix to an op-deletion
//! minimal counterexample (the separation minimizer's greedy op-deletion
//! descent, [`smc_core::separate::delete_ops_while`]) rendered in litmus
//! notation.
//!
//! # Session lifecycle
//!
//! A monitor session that lives for days needs three things the core
//! loop above does not give it, provided by the module family
//! [`ckpt`] / [`churn`] / [`window`]:
//!
//! * **Checkpoint/restore** — [`Monitor::checkpoint_bytes`] serializes
//!   the complete session (interned names, frontier state arenas,
//!   verdicts, churn and window state) to a versioned binary format;
//!   [`Monitor::restore_bytes`] resumes warm, with byte-identical verdicts
//!   thereafter. Corrupt or truncated checkpoints return `Err` naming a
//!   byte offset; they never panic.
//! * **Processor churn** — explicit [`Monitor::join`] /
//!   [`Monitor::retire`] events (trace lines `join p` / `retire p`). A
//!   retired processor whose engine columns have quiesced is *folded*:
//!   sealed out of every engine and summarized per-location, its slot
//!   reused by the next joiner, keeping frontier width O(active
//!   processors).
//! * **Windowed monitoring** — with [`MonitorConfig::window`] set, every
//!   N events the engines seal the decided prefix and restart from the
//!   surviving memory contents, bounding frontier memory on unbounded
//!   streams; [`Monitor::windows`] reports the per-window verdicts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod ckpt;
pub mod window;

use churn::{Activation, ChurnState, FoldSummary};
use smc_core::checker::{check_with_config, CheckConfig};
use smc_core::frontier::{AppendReport, FrontierEngine, ViewOp};
use smc_core::lattice::{Settle, Stronger};
use smc_core::separate::delete_ops_while;
use smc_core::spec::{GlobalOrder, ModelSpec, OperationSet, OwnerOrder};
use smc_history::litmus::emit_litmus;
use smc_history::trace::{Lifecycle, Trace, TraceEvent};
use smc_history::{History, Label, OpKind, ProcId, Value};
use std::cell::OnceCell;
use window::WindowState;

/// Tuning for a [`Monitor`].
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Configuration for restart-mode re-checks. A shared memo cache is
    /// attached by [`MonitorConfig::default`].
    pub check: CheckConfig,
    /// Reachable-state cap per frontier engine; past it the engine
    /// stops deciding and the model falls back to lattice propagation
    /// or a per-event batch re-check.
    pub max_frontier_states: usize,
    /// Seal the frontier every this many events (`--window N`),
    /// bounding steady-state frontier memory; `None` monitors the
    /// unbounded prefix exactly.
    pub window: Option<usize>,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            check: CheckConfig::default().with_memo(),
            max_frontier_states: 1 << 20,
            window: None,
        }
    }
}

/// A per-prefix, per-model verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriVerdict {
    /// The prefix is admitted by the model.
    Admitted,
    /// The prefix is refuted by the model.
    Violated,
    /// A resource budget ran out; the verdict is undecided.
    Unknown,
}

impl TriVerdict {
    /// Lowercase word for reports (`admitted` / `violated` / `unknown`).
    pub fn word(self) -> &'static str {
        match self {
            TriVerdict::Admitted => "admitted",
            TriVerdict::Violated => "violated",
            TriVerdict::Unknown => "unknown",
        }
    }
}

/// Observability counters for one appended event (or one batch — see
/// [`Monitor::feed_trace`]), or summed over a whole stream
/// ([`Monitor::totals`]). The counters from `rebuild_work` on are zero
/// in a per-event report: only the totals fill them in.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StepReport {
    /// Prefix length (events fed so far, including this batch).
    pub events: usize,
    /// Total reachable states across all frontier engines.
    pub frontier_states: u64,
    /// Frontier states discovered by this event.
    pub created: u64,
    /// Frontier states expanded by this event.
    pub expanded: u64,
    /// Frontier transitions that hit an already-known state.
    pub reuse_hits: u64,
    /// Restart-mode re-checks actually run for this event.
    pub rechecks: u64,
    /// Search nodes those re-checks spent.
    pub recheck_nodes: u64,
    /// Verdicts decided by lattice propagation instead of a re-check.
    pub propagated: u64,
    /// Frontier states created + expanded by mid-stream table-rebuild
    /// replays, tracked apart from `created`/`expanded`/`reuse_hits` so
    /// those stay comparable to a restart baseline instead of
    /// double-counting pre-rebuild work.
    pub rebuild_work: u64,
    /// `join` lifecycle events observed.
    pub joins: u64,
    /// `retire` lifecycle events observed.
    pub retires: u64,
    /// Retired processors folded out of the engines.
    pub folds: u64,
    /// Windows sealed (zero unless [`MonitorConfig::window`] is set).
    pub windows_sealed: u64,
    /// Frontier states dropped or merged away by window seals.
    pub states_sealed: u64,
}

impl StepReport {
    fn absorb_frontier(&mut self, r: AppendReport) {
        self.created += r.created;
        self.expanded += r.expanded;
        self.reuse_hits += r.reuse_hits;
    }

    /// Accumulate another report (`events`/`frontier_states` take the
    /// later report's values, counters add).
    pub fn absorb(&mut self, other: StepReport) {
        self.events = other.events;
        self.frontier_states = other.frontier_states;
        self.created += other.created;
        self.expanded += other.expanded;
        self.reuse_hits += other.reuse_hits;
        self.rechecks += other.rechecks;
        self.recheck_nodes += other.recheck_nodes;
        self.propagated += other.propagated;
        self.rebuild_work += other.rebuild_work;
        self.joins += other.joins;
        self.retires += other.retires;
        self.folds += other.folds;
        self.windows_sealed += other.windows_sealed;
        self.states_sealed += other.states_sealed;
    }
}

/// A minimal violating prefix, rendered for humans.
#[derive(Debug, Clone)]
pub struct ViolationReport {
    /// Display name of the violated model.
    pub model: String,
    /// Length of the first refuted prefix (in events).
    pub prefix_len: usize,
    /// The first refuted prefix as a history.
    pub prefix: History,
    /// Op-deletion minimal sub-history that the model still refutes.
    pub minimized: History,
    /// `minimized` in litmus notation.
    pub litmus: String,
}

/// How a model's incremental state is maintained.
pub(crate) enum Engine {
    /// One frontier engine per view the model demands. With `delta`
    /// set (the PRAM shape) every processor has its own view, indexed
    /// by engine *slot*: the viewer holding slot `s` sees its own
    /// operations plus the remote operations `delta` selects, and a
    /// `None` entry is a freed slot (its viewer folded away or never
    /// joined). With `delta: None` (the SC shape: `identical_views`,
    /// `δ = AllOps`) every view is the same sequence, so `views` holds
    /// one shared view that takes every event.
    Frontier {
        /// The live view engines.
        views: Vec<Option<FrontierEngine>>,
        /// Remote operations each per-processor view includes; `None`
        /// for the one shared view.
        delta: Option<OperationSet>,
        /// Folded viewers whose verdict was lost to exhaustion; while
        /// nonzero the model can never settle back to `Admitted` on the
        /// engines alone.
        latched_unknown: usize,
    },
    /// Re-check the whole prefix with the batch checker per event.
    Restart,
}

/// Does the view in slot `s` take event `ev`? The shared view takes
/// every event; a processor's own view takes its own events and the
/// remote ones `delta` selects.
fn view_takes(delta: Option<OperationSet>, churn: &ChurnState, s: usize, ev: &TraceEvent) -> bool {
    let Some(delta) = delta else {
        return true;
    };
    churn
        .proc_of_slot(s)
        .is_some_and(|v| ev.proc == v || delta == OperationSet::AllOps || ev.kind.is_write())
}

/// Conjoin the per-view admission answers of a frontier engine.
fn frontier_verdict(views: &[Option<FrontierEngine>], latched_unknown: usize) -> Option<bool> {
    let mut verdict = Some(true);
    for e in views.iter().flatten() {
        match e.admitted() {
            Some(true) => {}
            Some(false) => verdict = Some(false),
            None => {
                if verdict != Some(false) {
                    verdict = None;
                }
            }
        }
    }
    if latched_unknown > 0 && verdict == Some(true) {
        verdict = None;
    }
    verdict
}

/// Does this spec reduce to "a legal extension of program order exists",
/// per view, with by-value read legality? Only then can the frontier
/// engine stand in for the batch checker.
fn frontier_shape(spec: &ModelSpec) -> Option<Engine> {
    let plain = !spec.needs_reads_from()
        && !spec.global_write_order
        && !spec.coherence
        && spec.labeled.is_none()
        && spec.owner_order == OwnerOrder::None
        && !spec.rc_bracketing
        && !spec.fence_bracketing
        && spec.global_order == GlobalOrder::ProgramOrder;
    // Identical views collapse to a single view question only when
    // every view ranges over the same operation set.
    if !plain || (spec.identical_views && spec.delta != OperationSet::AllOps) {
        return None;
    }
    let shared = spec.identical_views;
    Some(Engine::Frontier {
        // The shared view exists before any table does; the first
        // `ensure_tables` replaces it at full width.
        views: if shared {
            vec![Some(FrontierEngine::new(0, 0, 1))]
        } else {
            Vec::new()
        },
        delta: (!shared).then_some(spec.delta),
        latched_unknown: 0,
    })
}

/// The streaming monitor: per-model incremental admission state over an
/// append-only event stream.
pub struct Monitor {
    pub(crate) models: Vec<ModelSpec>,
    /// The inclusion closure over `models`, for lattice propagation.
    pub(crate) stronger: Stronger,
    pub(crate) cfg: MonitorConfig,
    pub(crate) trace: Trace,
    pub(crate) engines: Vec<Engine>,
    /// Table sizes the frontier engines were built for (engine width in
    /// slots, locations); growth forces a rebuild by replay.
    pub(crate) built_procs: usize,
    pub(crate) built_locs: usize,
    pub(crate) verdicts: Vec<TriVerdict>,
    pub(crate) first_violation: Vec<Option<usize>>,
    /// The running sum of every batch's report, plus `rebuild_work`.
    pub(crate) totals: StepReport,
    /// Processor ↔ slot bookkeeping (joins, retirements, folds).
    pub(crate) churn: ChurnState,
    /// Window bookkeeping, when [`MonitorConfig::window`] is set.
    pub(crate) window: Option<WindowState>,
    /// Reused slots whose per-processor viewers await seeding (drained
    /// by [`Monitor::ensure_tables`]).
    pending_seeds: Vec<usize>,
}

impl Monitor {
    /// A monitor for the given models. Keep stronger models first (as
    /// [`smc_core::models::lattice_models`] does) so lattice propagation
    /// can decide weaker models without re-checking.
    pub fn new(models: Vec<ModelSpec>, cfg: MonitorConfig) -> Self {
        let stronger = Stronger::new(&models);
        let engines = models
            .iter()
            .map(|m| frontier_shape(m).unwrap_or(Engine::Restart))
            .collect();
        let n = models.len();
        let window = cfg.window.map(WindowState::new);
        Monitor {
            models,
            stronger,
            cfg,
            trace: Trace::new(),
            engines,
            built_procs: 0,
            built_locs: 0,
            // The empty history is admitted by every model.
            verdicts: vec![TriVerdict::Admitted; n],
            first_violation: vec![None; n],
            totals: StepReport::default(),
            churn: ChurnState::new(),
            window,
            pending_seeds: Vec::new(),
        }
    }

    /// The monitored models, in construction order.
    pub fn models(&self) -> &[ModelSpec] {
        &self.models
    }

    /// The configuration the session runs under. A restored session's
    /// frontier cap and window are the checkpoint's.
    pub fn config(&self) -> &MonitorConfig {
        &self.cfg
    }

    /// Everything fed so far, as a trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Current per-model verdicts (same order as [`Monitor::models`]).
    pub fn verdicts(&self) -> &[TriVerdict] {
        &self.verdicts
    }

    /// Cumulative counters: the sum of every report so far, at the
    /// current prefix length and frontier size (lifecycle counters
    /// derive from the churn and window state).
    pub fn totals(&self) -> StepReport {
        let mut t = self.totals;
        t.events = self.trace.len();
        t.frontier_states = self.frontier_states();
        t.joins = self.churn.joins;
        t.retires = self.churn.retires;
        t.folds = self.churn.folds;
        if let Some(w) = &self.window {
            t.windows_sealed = w.windows_sealed;
            t.states_sealed = w.states_sealed;
        }
        t
    }

    /// The churn bookkeeping (slot map, fold summaries, counters).
    pub fn churn(&self) -> &ChurnState {
        &self.churn
    }

    /// The window bookkeeping and per-window verdicts, when windowing
    /// is on.
    pub fn windows(&self) -> Option<&WindowState> {
        self.window.as_ref()
    }

    /// Length of the first refuted prefix for `model_idx`, if any prefix
    /// was refuted.
    pub fn first_violation(&self, model_idx: usize) -> Option<usize> {
        self.first_violation[model_idx]
    }

    /// Number of events fed so far (the current prefix length).
    pub fn num_events(&self) -> usize {
        self.trace.len()
    }

    /// Whether `model_idx`'s verdict and [`Monitor::first_violation`]
    /// are event-exact even under batched feeding. True for models on a
    /// live frontier engine: engines consume every event individually,
    /// so their state — and any violation they record — lands on the
    /// same event no matter how the stream was cut into batches.
    /// Restart-mode models and exhausted engines settle once per batch
    /// instead, so their first-refuted-prefix depends on where batch
    /// boundaries fall. Exhaustion is itself event-exact, so two
    /// monitors fed the same prefix agree on this answer regardless of
    /// batching.
    pub fn is_event_exact(&self, model_idx: usize) -> bool {
        match &self.engines[model_idx] {
            Engine::Frontier {
                views,
                latched_unknown,
                ..
            } => *latched_unknown == 0 && views.iter().flatten().all(|e| !e.is_exhausted()),
            Engine::Restart => false,
        }
    }

    /// Pre-declare a processor (a trace `procs` header). Declaring every
    /// processor up front avoids frontier rebuilds mid-stream.
    pub fn declare_proc(&mut self, name: &str) {
        let p = self.trace.add_proc(name);
        self.activate_proc(p);
        self.ensure_tables();
    }

    /// Record a `join p` lifecycle event: `p` (re-)enters the active
    /// set, reusing a folded slot when one is free.
    pub fn join(&mut self, name: &str) {
        let p = self.trace.add_proc(name);
        self.trace.push_lifecycle(Lifecycle::Join(p));
        self.churn.joins += 1;
        self.activate_proc(p);
        self.ensure_tables();
    }

    /// Record a `retire p` lifecycle event: `p` leaves the active set.
    /// Its engine columns fold away — freeing its slot — as soon as
    /// every reachable frontier state has scheduled all of its
    /// operations (often immediately, otherwise after a later batch or
    /// window seal quiesces them).
    pub fn retire(&mut self, name: &str) {
        let p = self.trace.add_proc(name);
        self.trace.push_lifecycle(Lifecycle::Retire(p));
        self.churn.retire(p);
        self.try_folds();
    }

    /// Give `p` a slot (on join or first event); a reused slot's
    /// per-processor viewers are seeded by the next `ensure_tables`.
    fn activate_proc(&mut self, p: ProcId) {
        match self.churn.activate(p) {
            Activation::Already | Activation::Grew(_) => {}
            Activation::Reused(s) => self.pending_seeds.push(s as usize),
        }
    }

    /// Pre-declare a location (a trace `locs` header).
    pub fn declare_loc(&mut self, name: &str) {
        self.trace.add_loc(name);
        self.ensure_tables();
    }

    /// Feed one event by names; returns the per-event counters and
    /// updates [`Monitor::verdicts`].
    pub fn feed(
        &mut self,
        proc: &str,
        kind: OpKind,
        loc: &str,
        value: i64,
        label: Label,
    ) -> StepReport {
        let ev = TraceEvent {
            proc: self.trace.add_proc(proc),
            kind,
            loc: self.trace.add_loc(loc),
            value: Value(value),
            label,
        };
        self.activate_proc(ev.proc);
        self.ensure_tables();
        self.append(&[ev])
    }

    /// Feed a parsed stream: a whole trace, or the next segment of one
    /// cut by [`Trace::split_front`]. Names the monitor has not seen
    /// yet are interned first and the tables grown for all of them at
    /// once, except a processor that a `join` of this segment
    /// introduces: that join activates it at its position, since
    /// declared up front it would take a fresh slot ahead of an earlier
    /// `retire` whose slot it should reuse. Each `join`/`retire` then
    /// applies at its recorded position, and the events between them go
    /// down in batches cut at every window boundary as well, so a
    /// window seals every `size` events however the stream was cut.
    /// Returns the aggregated report (`events` is the prefix length
    /// afterwards).
    ///
    /// Semantically a batch appends every event in order; operationally
    /// it amortizes the per-event bookkeeping that [`Monitor::feed`]
    /// pays on each call:
    ///
    /// * names are interned and the frontier tables grown **once per
    ///   batch** (at most one rebuild-by-replay, instead of one per
    ///   newly appearing name);
    /// * frontier-mode engines still see every event individually — the
    ///   per-prefix verdict and first-refuted-prefix of SC/PRAM-shaped
    ///   models stay event-exact;
    /// * restart-mode models are settled **once at the batch end** (by
    ///   lattice propagation or a batch re-check of the final prefix),
    ///   so their verdicts and `first_violation` are recorded at batch
    ///   granularity. Final verdicts are identical to per-event feeding
    ///   — only the granularity of intermediate restart-model verdicts
    ///   differs.
    pub fn feed_trace(&mut self, t: &Trace) -> StepReport {
        for (i, name) in t.proc_names().iter().enumerate() {
            let join = Lifecycle::Join(ProcId(i as u32));
            if !self.trace.proc_names().contains(name)
                && !t.lifecycle().iter().any(|&(_, l)| l == join)
            {
                let p = self.trace.add_proc(name);
                self.activate_proc(p);
            }
        }
        for name in t.loc_names() {
            self.trace.add_loc(name);
        }
        self.ensure_tables();
        let mut report = StepReport::default();
        let mut from = 0;
        for &(pos, l) in t.lifecycle() {
            let pos = pos as usize;
            report.absorb(self.feed_batch(t, &t.events()[from..pos]));
            from = pos;
            match l {
                Lifecycle::Join(p) => self.join(t.proc_name(p)),
                Lifecycle::Retire(p) => self.retire(t.proc_name(p)),
            }
        }
        report.absorb(self.feed_batch(t, &t.events()[from..]));
        report.events = self.trace.len();
        report.frontier_states = self.frontier_states();
        report
    }

    /// Intern `t`'s `events`, then grow the tables once and append them
    /// in batches that end at each window boundary. Interning comes first
    /// because a table rebuild replays only the events already
    /// incorporated, so the appends never duplicate an event. An empty
    /// batch does nothing.
    fn feed_batch(&mut self, t: &Trace, events: &[TraceEvent]) -> StepReport {
        if events.is_empty() {
            return StepReport::default();
        }
        let batch: Vec<TraceEvent> = events
            .iter()
            .map(|e| {
                let ev = TraceEvent {
                    proc: self.trace.add_proc(t.proc_name(e.proc)),
                    loc: self.trace.add_loc(t.loc_name(e.loc)),
                    ..*e
                };
                self.activate_proc(ev.proc);
                ev
            })
            .collect();
        self.ensure_tables();
        let mut report = StepReport::default();
        let mut rest = &batch[..];
        while !rest.is_empty() {
            let room = self
                .window
                .as_ref()
                .map_or(rest.len(), |w| w.room(self.trace.len()));
            let (now, later) = rest.split_at(room.min(rest.len()));
            report.absorb(self.append(now));
            rest = later;
        }
        report
    }

    /// Append interned events to the stream and settle every model on
    /// the new prefix (see [`Monitor::feed_trace`] for the batch
    /// semantics). Returns the batch's counters.
    fn append(&mut self, events: &[TraceEvent]) -> StepReport {
        let mut report = StepReport::default();
        // Phase 1: frontier-mode models consume the batch one event at
        // a time (their per-event cost is what the engine amortizes),
        // keeping per-prefix verdicts and first violations event-exact.
        for &ev in events {
            self.trace.push(ev);
            let n = self.trace.len();
            let ev_slot = ProcId(self.churn.slot(ev.proc).expect("active proc has a slot"));
            let churn = &self.churn;
            for (i, engine) in self.engines.iter_mut().enumerate() {
                let Engine::Frontier {
                    views,
                    delta,
                    latched_unknown,
                } = engine
                else {
                    continue;
                };
                // Every view taking the event must see it, even if an
                // earlier view already settled the verdict.
                for (s, v) in views.iter_mut().enumerate() {
                    if let Some(e) = v {
                        if view_takes(*delta, churn, s, &ev) {
                            report.absorb_frontier(e.append(ev_slot, view_op(&ev)));
                        }
                    }
                }
                if let Some(adm) = frontier_verdict(views, *latched_unknown) {
                    let v = tri_of(adm);
                    self.verdicts[i] = v;
                    if v == TriVerdict::Violated && self.first_violation[i].is_none() {
                        self.first_violation[i] = Some(n);
                    }
                }
            }
        }

        // Phase 2: settle every model on the batch-end prefix — frontier
        // verdicts stand as computed (an exhausted engine leaves its
        // model undecided here), everything else propagates through the
        // lattice or falls back to a batch re-check. The prefix history
        // is built only if some model needs a re-check.
        let n = self.trace.len();
        let frontier = self
            .engines
            .iter()
            .map(|engine| match engine {
                Engine::Frontier {
                    views,
                    latched_unknown,
                    ..
                } => frontier_verdict(views, *latched_unknown),
                Engine::Restart => None,
            })
            .collect();
        let prefix = OnceCell::new();
        let trace = &self.trace;
        let mut settle = Settle::new(
            &self.stronger,
            &self.models,
            &self.cfg.check,
            frontier,
            || prefix.get_or_init(|| trace.history_of_prefix(n)),
        );
        for i in 0..self.models.len() {
            settle.decide(i);
        }
        report.rechecks = settle.checked;
        report.recheck_nodes = settle.nodes;
        report.propagated = settle.propagated;
        for (i, v) in settle.row.into_iter().enumerate() {
            let v = v.map_or(TriVerdict::Unknown, tri_of);
            self.verdicts[i] = v;
            if v == TriVerdict::Violated && self.first_violation[i].is_none() {
                self.first_violation[i] = Some(n);
            }
        }
        // Lifecycle housekeeping: seal the window if one is due, then
        // fold any retired processors the seal (or the batch itself)
        // quiesced.
        self.maybe_seal_window();
        self.try_folds();
        report.events = n;
        report.frontier_states = self.frontier_states();
        self.totals.absorb(report);
        report
    }

    /// Total reachable states across all frontier engines.
    fn frontier_states(&self) -> u64 {
        self.engines
            .iter()
            .map(|engine| match engine {
                Engine::Frontier { views, .. } => views
                    .iter()
                    .flatten()
                    .map(|e| e.num_states() as u64)
                    .sum::<u64>(),
                Engine::Restart => 0,
            })
            .sum()
    }

    /// The minimal violating prefix for `model_idx`: the first refuted
    /// prefix, shrunk by greedy op deletion while the model still
    /// refutes it. `None` if no prefix was ever refuted.
    pub fn violation_report(&self, model_idx: usize) -> Option<ViolationReport> {
        let prefix_len = self.first_violation[model_idx]?;
        let spec = &self.models[model_idx];
        let prefix = self.trace.history_of_prefix(prefix_len);
        let minimized = delete_ops_while(prefix.clone(), |h| {
            check_with_config(h, spec, &self.cfg.check).is_disallowed()
        });
        Some(ViolationReport {
            model: spec.name.clone(),
            prefix_len,
            litmus: emit_litmus(&minimized),
            prefix,
            minimized,
        })
    }

    /// Rebuild the frontier engines if the slot width or location table
    /// outgrew what they were built for, and seed the viewers of slots
    /// reused by joiners since the last call (the shared view needs no
    /// seeding: a folded slot's column is already empty).
    fn ensure_tables(&mut self) {
        let width = self.churn.width().max(self.built_procs);
        let locs = self.trace.num_locs();
        let grow = width > self.built_procs || locs > self.built_locs;
        if !grow && self.pending_seeds.is_empty() {
            return;
        }
        let seeds = std::mem::take(&mut self.pending_seeds);
        self.built_procs = width;
        self.built_locs = locs;
        let mut replay = Replay {
            trace: &self.trace,
            churn: &self.churn,
            width,
            locs,
            max_states: self.cfg.max_frontier_states,
            seals: self.seal_positions(),
            work: 0,
        };
        for engine in &mut self.engines {
            let Engine::Frontier { views, delta, .. } = engine else {
                continue;
            };
            if grow {
                let slots = if delta.is_some() { width } else { 1 };
                *views = (0..slots)
                    .map(|s| {
                        (delta.is_none() || replay.churn.proc_of_slot(s).is_some())
                            .then(|| replay.view(*delta, s))
                    })
                    .collect();
            } else if delta.is_some() {
                for &s in &seeds {
                    views[s] = Some(replay.view(*delta, s));
                }
            }
        }
        self.totals.rebuild_work += replay.work;
    }

    /// Stream positions of every window seal so far, in order — a
    /// rebuild-by-replay must re-apply them at the same points, or the
    /// replayed frontier re-explores the unwindowed state space the live
    /// engine already sealed away.
    fn seal_positions(&self) -> Vec<usize> {
        self.window
            .as_ref()
            .map(|w| w.records().iter().map(|r| r.end).collect())
            .unwrap_or_default()
    }

    /// Fold every pending retiree whose engine columns have quiesced.
    fn try_folds(&mut self) {
        for p in self.churn.pending_folds().to_vec() {
            self.try_fold_one(p);
        }
    }

    /// Fold retiree `p` out of every engine if all of them can do so
    /// losslessly; returns whether the fold happened.
    fn try_fold_one(&mut self, p: ProcId) -> bool {
        let Some(slot) = self.churn.slot(p) else {
            return false;
        };
        let s = slot as usize;
        // Check first, mutate only if every engine agrees: the retiree's
        // column must have quiesced in every view, and its own view (if
        // it has one) must be settled-admitted — appended remote
        // operations can only extend an admitted view, never refute it,
        // because a retired processor issues no further reads.
        for engine in &self.engines {
            let Engine::Frontier { views, delta, .. } = engine else {
                continue;
            };
            let own = delta.is_some().then_some(s);
            for (s2, e) in views.iter().enumerate() {
                let Some(e) = e else { continue };
                if e.is_exhausted() {
                    continue;
                }
                let settled = if Some(s2) == own {
                    e.admitted() == Some(true)
                } else {
                    e.quiesced(s)
                };
                if !settled {
                    return false;
                }
            }
        }
        let summary = FoldSummary::compute(&self.trace, p);
        for engine in &mut self.engines {
            let Engine::Frontier {
                views,
                delta,
                latched_unknown,
            } = engine
            else {
                continue;
            };
            let own = delta.is_some().then_some(s);
            for (s2, v) in views.iter_mut().enumerate() {
                if Some(s2) == own {
                    if v.as_ref().is_some_and(FrontierEngine::is_exhausted) {
                        // The viewer's verdict is lost for good;
                        // remember that.
                        *latched_unknown += 1;
                    }
                    *v = None;
                } else if let Some(e) = v {
                    if !e.is_exhausted() {
                        let mut base = vec![0u32; e.num_procs()];
                        base[s] = e.seq_len(s) as u32;
                        e.seal(&base);
                    }
                }
            }
        }
        self.churn.apply_fold(p, slot, summary);
        true
    }

    /// Seal the current window if one is due: record the boundary
    /// verdicts and restart every engine from its surviving states.
    fn maybe_seal_window(&mut self) {
        let n = self.trace.len();
        let due = matches!(&self.window, Some(w) if w.due(n));
        if !due {
            return;
        }
        let verdicts = self.verdicts.clone();
        let mut sealed = 0u64;
        for engine in &mut self.engines {
            if let Engine::Frontier { views, .. } = engine {
                for e in views.iter_mut().flatten() {
                    sealed += seal_engine(e);
                }
            }
        }
        let w = self.window.as_mut().expect("window checked above");
        w.states_sealed += sealed;
        w.record(n, verdicts);
    }

    /// Serialize the complete session state — interned names, frontier
    /// engine arenas, verdicts, churn and window bookkeeping — in the
    /// versioned [`ckpt`] binary format.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        ckpt::save(self)
    }

    /// Resume a session from [`Monitor::checkpoint_bytes`] (read a file
    /// of them with [`smc_core::binfmt::read_file`] under
    /// [`ckpt::MAX_CHECKPOINT_BYTES`]). The session keeps the models,
    /// frontier cap and window size the checkpoint names; `check` gives
    /// what a checkpoint does not hold, the engine and memo cache of
    /// restart-mode re-checks. A model that does not resolve,
    /// corruption and truncation return `Err` naming the problem and a
    /// byte offset.
    pub fn restore_bytes(bytes: &[u8], check: CheckConfig) -> Result<Monitor, String> {
        ckpt::load(bytes, check)
    }
}

fn view_op(ev: &TraceEvent) -> ViewOp {
    ViewOp {
        kind: ev.kind,
        loc: ev.loc,
        value: ev.value,
    }
}

/// Replays the incorporated stream into fresh view engines: a rebuild
/// after table growth, or the seeding of a reused slot's viewer.
struct Replay<'a> {
    trace: &'a Trace,
    churn: &'a ChurnState,
    width: usize,
    locs: usize,
    max_states: usize,
    /// Stream positions of every window seal so far, ascending.
    seals: Vec<usize>,
    /// Frontier states created + expanded by the replays so far.
    work: u64,
}

impl Replay<'_> {
    /// A fresh engine for the view in slot `s` (see [`view_takes`]),
    /// holding every incorporated event the view takes. A folded
    /// processor's events are not appended (its column is gone);
    /// instead its writes are force-applied at their original stream
    /// positions, so every later event replays against the same memory
    /// sequence it originally saw. Forcing commits each folded write at
    /// its issue point — the bounded-staleness summarization DESIGN §12
    /// describes — rather than leaving it schedulable. Window seals are
    /// re-applied at their recorded positions: without them the replay
    /// re-explores the unwindowed state space the live engine sealed
    /// away, and a single rebuild can dwarf the whole stream.
    fn view(&mut self, delta: Option<OperationSet>, s: usize) -> FrontierEngine {
        let mut e = FrontierEngine::new(self.width, self.locs, self.max_states);
        let mut rep = AppendReport::default();
        let mut next_seal = 0usize;
        for (i, ev) in self.trace.events().iter().enumerate() {
            if next_seal < self.seals.len() && self.seals[next_seal] == i {
                seal_engine(&mut e);
                next_seal += 1;
            }
            if (i as u32) < self.churn.folded_upto(ev.proc) {
                // Writes are in every view, so a folded write lands here
                // regardless of `delta`; folded reads constrain nothing.
                if ev.kind.is_write() {
                    e.force_write(ev.loc, ev.value);
                }
                continue;
            }
            let Some(slot) = self.churn.slot(ev.proc) else {
                continue;
            };
            if view_takes(delta, self.churn, s, ev) {
                rep.absorb(e.append(ProcId(slot), view_op(ev)));
            }
        }
        if next_seal < self.seals.len() && self.seals[next_seal] == self.trace.len() {
            seal_engine(&mut e);
        }
        self.work += rep.created + rep.expanded;
        e
    }
}

/// Seal `e` at its decided boundary: an admitted engine keeps only its
/// complete states (committing to the prefix, restarting from the
/// surviving memory contents); an undecided or refuted one rebases
/// losslessly to the per-processor minimum already scheduled everywhere
/// (a refutation may still heal). Returns the states dropped.
fn seal_engine(e: &mut FrontierEngine) -> u64 {
    if e.is_exhausted() {
        return 0;
    }
    let base: Vec<u32> = if e.admitted() == Some(true) {
        (0..e.num_procs()).map(|q| e.seq_len(q) as u32).collect()
    } else {
        e.min_counts()
    };
    e.seal(&base).dropped as u64
}

fn tri_of(admitted: bool) -> TriVerdict {
    if admitted {
        TriVerdict::Admitted
    } else {
        TriVerdict::Violated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_core::models;
    use smc_history::trace::parse_trace;

    fn monitor(models: Vec<ModelSpec>) -> Monitor {
        Monitor::new(models, MonitorConfig::default())
    }

    #[test]
    fn empty_stream_admits_everything() {
        let m = monitor(models::lattice_models());
        assert!(m.verdicts().iter().all(|&v| v == TriVerdict::Admitted));
    }

    #[test]
    fn fig1_violates_sc_but_not_tso() {
        let t = parse_trace("p w(x)1\nq w(y)1\np r(y)0\nq r(x)0\n").unwrap();
        let mut m = monitor(vec![models::sc(), models::tso()]);
        m.feed_trace(&t);
        assert_eq!(m.verdicts()[0], TriVerdict::Violated);
        assert_eq!(m.verdicts()[1], TriVerdict::Admitted);
        // SC was fine until the last read arrived.
        assert_eq!(m.first_violation(0), Some(4));
        assert_eq!(m.first_violation(1), None);
    }

    #[test]
    fn violation_can_heal_and_is_still_recorded() {
        let mut m = monitor(vec![models::sc()]);
        m.feed("p", OpKind::Write, "x", 1, Label::Ordinary);
        m.feed("q", OpKind::Read, "x", 2, Label::Ordinary);
        assert_eq!(m.verdicts()[0], TriVerdict::Violated);
        m.feed("p", OpKind::Write, "x", 2, Label::Ordinary);
        assert_eq!(m.verdicts()[0], TriVerdict::Admitted);
        // The transient refutation is still on record.
        assert_eq!(m.first_violation(0), Some(2));
        let rep = m.violation_report(0).unwrap();
        assert_eq!(rep.prefix_len, 2);
        // Minimal counterexample: the lone stale read.
        assert_eq!(rep.minimized.num_ops(), 1);
        assert!(rep.litmus.contains("r(x)2"));
    }

    #[test]
    fn admitted_prefixes_have_no_violation_report() {
        let mut m = monitor(vec![models::sc()]);
        m.feed("p", OpKind::Write, "x", 1, Label::Ordinary);
        assert!(m.violation_report(0).is_none());
    }

    #[test]
    fn sc_admission_propagates_to_restart_models() {
        // Message passing read in order is SC; every weaker lattice
        // model must be decided without a re-check.
        let t = parse_trace("p w(d)1\np w(f)1\nq r(f)1\nq r(d)1\n").unwrap();
        let mut m = monitor(models::lattice_models());
        let report = m.feed_trace(&t);
        assert!(m.verdicts().iter().all(|&v| v == TriVerdict::Admitted));
        // SC and PRAM run on frontier engines; everything else is
        // propagated, never re-checked.
        assert_eq!(report.rechecks, 0);
        assert!(report.propagated > 0);
    }

    #[test]
    fn settle_rechecks_match_batch_checks_of_the_prefix() {
        // PC and Causal are incomparable, so neither verdict forces the
        // other: the batch-end settle re-checks both models on one plan
        // and one canonical form of the prefix, and must agree with two
        // independent batch checks of it, node for node.
        let t = parse_trace("p r(x)1\np w(y)1\nq r(y)1\nq w(x)1\n").unwrap();
        let ms = vec![models::pc(), models::causal()];
        let h = t.history_of_prefix(t.len());
        let mut m = Monitor::new(ms.clone(), MonitorConfig::default());
        let report = m.feed_trace(&t);
        let check = MonitorConfig::default().check;
        let (mut verdicts, mut nodes) = (Vec::new(), 0);
        for spec in &ms {
            let (v, stats) = smc_core::checker::check_with_stats(&h, spec, &check);
            verdicts.push(v.decided().map_or(TriVerdict::Unknown, tri_of));
            nodes += stats.nodes_spent;
        }
        assert_eq!(m.verdicts(), verdicts);
        assert_eq!(report.rechecks, 2);
        assert_eq!(report.recheck_nodes, nodes);
        assert_eq!(report.propagated, 0);
        assert!(nodes > 0);
    }

    #[test]
    fn pram_refutation_propagates_upward() {
        // A PRAM violation (stale read of p's second write before its
        // first) forces every stronger model to Violated without
        // re-checking those that include PRAM.
        let t = parse_trace("p w(d)1\np w(f)1\nq r(f)1\nq r(d)0\n").unwrap();
        let mut m = monitor(models::lattice_models());
        m.feed_trace(&t);
        let names: Vec<&str> = m.models().iter().map(|s| s.name.as_str()).collect();
        for strong in ["SC", "TSO", "PC", "PCG", "CausalCoherent", "Causal", "PRAM"] {
            let i = names.iter().position(|n| *n == strong).unwrap();
            assert_eq!(m.verdicts()[i], TriVerdict::Violated, "{strong}");
        }
        // Coherent-only memory has no pipelining requirement.
        let i = names.iter().position(|n| *n == "Coherent").unwrap();
        assert_eq!(m.verdicts()[i], TriVerdict::Admitted);
    }

    #[test]
    fn mid_stream_growth_does_not_duplicate_the_new_event() {
        // Headerless: `p` first appears at the last event, forcing a
        // frontier rebuild. The rebuild must replay only the three
        // events already incorporated — if it also replays the new
        // `p w(x)1`, step()'s own append duplicates it and the doubled
        // write admits the order w1 r1 w2 w1 r1, flipping the verdict.
        let mut m = monitor(vec![models::sc()]);
        m.feed("q", OpKind::Read, "x", 1, Label::Ordinary);
        m.feed("q", OpKind::Write, "x", 2, Label::Ordinary);
        m.feed("q", OpKind::Read, "x", 1, Label::Ordinary);
        m.feed("p", OpKind::Write, "x", 1, Label::Ordinary);
        // The lone w(x)1 cannot sit both before the first r(x)1 and
        // after w(x)2 for the second, so SC refutes this prefix.
        assert_eq!(m.verdicts()[0], TriVerdict::Violated);
    }

    #[test]
    fn exhausted_frontier_falls_back_to_recheck() {
        // A one-state budget exhausts the SC frontier engine
        // immediately; the batch re-check fallback must still decide.
        let mut m = Monitor::new(
            vec![models::sc()],
            MonitorConfig {
                max_frontier_states: 1,
                ..MonitorConfig::default()
            },
        );
        m.feed("p", OpKind::Write, "x", 1, Label::Ordinary);
        m.feed("p", OpKind::Write, "x", 2, Label::Ordinary);
        m.feed("q", OpKind::Read, "x", 1, Label::Ordinary);
        // After r(x)1 placed the write of 1, nothing restores 0: SC
        // refutes this prefix, and only the re-check can say so.
        let rep = m.feed("q", OpKind::Read, "x", 0, Label::Ordinary);
        assert_eq!(m.verdicts()[0], TriVerdict::Violated);
        assert!(rep.rechecks > 0, "fallback should have re-checked");
        // A later w(x)0 heals the prefix (w1 r1 w2 w0 r0); the verdict
        // must not stay latched at Unknown or Violated.
        m.feed("p", OpKind::Write, "x", 0, Label::Ordinary);
        assert_eq!(m.verdicts()[0], TriVerdict::Admitted);
    }

    #[test]
    fn rebuild_replay_work_is_not_double_counted() {
        // Cumulative frontier totals must equal the sum of the per-step
        // reports even when mid-stream growth forces rebuilds — the
        // replay overhead goes to `rebuild_work`, not created/expanded.
        let mut declared = monitor(vec![models::sc(), models::pram()]);
        declared.declare_proc("p");
        declared.declare_proc("q");
        declared.declare_loc("x");
        let mut headerless = monitor(vec![models::sc(), models::pram()]);
        let stream = [
            ("p", OpKind::Write, 1i64),
            ("p", OpKind::Write, 2),
            ("q", OpKind::Read, 1),
            ("q", OpKind::Read, 2),
        ];
        let (mut step_created, mut step_expanded) = (0u64, 0u64);
        for (proc, kind, value) in stream {
            declared.feed(proc, kind, "x", value, Label::Ordinary);
            let rep = headerless.feed(proc, kind, "x", value, Label::Ordinary);
            step_created += rep.created;
            step_expanded += rep.expanded;
        }
        assert_eq!(declared.verdicts(), headerless.verdicts());
        let h = headerless.totals();
        assert_eq!(h.created, step_created);
        assert_eq!(h.expanded, step_expanded);
        assert_eq!(declared.totals().rebuild_work, 0);
        assert!(h.rebuild_work > 0, "mid-stream growth should rebuild");
    }

    #[test]
    fn a_segment_grows_the_tables_once() {
        // The rebuild work of a segment after a header-first prefix.
        let rebuild = |segment: &str| {
            let mut m = monitor(vec![models::sc(), models::pram()]);
            let prefix = "procs p\nlocs x\np w(x)1\np w(x)2\np r(x)2\n";
            m.feed_trace(&parse_trace(prefix).unwrap());
            assert_eq!(m.totals().rebuild_work, 0);
            m.feed_trace(&parse_trace(segment).unwrap());
            m.totals().rebuild_work
        };
        // A new processor alone costs one replay of the prefix...
        let one = rebuild("q w(x)3\n");
        assert!(one > 0);
        // ...and so do a new processor and a new location together.
        assert_eq!(rebuild("q w(y)1\n"), one);
    }

    #[test]
    fn feed_trace_segments_match_per_event_feeding() {
        // Feeding `split_front` segments must land on the same final
        // verdicts, first-violation prefixes and sealed windows as
        // one-event-at-a-time feeding, for every way of cutting the
        // stream into batches, windowed or not.
        let traces = [
            "p w(x)1\nq w(y)1\np r(y)0\nq r(x)0\n",
            "p w(d)1\np w(f)1\nq r(f)1\nq r(d)1\n",
            "p w(d)1\np w(f)1\nq r(f)1\nq r(d)0\n",
            // Mid-stream growth: `r` and `z` first appear late.
            "p w(x)1\nq r(x)1\nr w(z)2\np r(z)2\nq r(z)0\n",
        ];
        let windowed = MonitorConfig {
            window: Some(2),
            ..MonitorConfig::default()
        };
        for cfg in [MonitorConfig::default(), windowed] {
            let fresh = || Monitor::new(models::lattice_models(), cfg.clone());
            for text in traces {
                let t = parse_trace(text).unwrap();
                let mut by_event = fresh();
                for ev in t.events() {
                    by_event.feed(
                        t.proc_name(ev.proc),
                        ev.kind,
                        t.loc_name(ev.loc),
                        ev.value.0,
                        ev.label,
                    );
                }
                for batch in [1usize, 2, 3, t.len().max(1)] {
                    let mut rest = t.clone();
                    let mut batched = fresh();
                    while !rest.is_empty() {
                        batched.feed_trace(&rest.split_front(batch));
                    }
                    let at = format!("batch={batch} window={:?} trace={text:?}", cfg.window);
                    assert_eq!(batched.verdicts(), by_event.verdicts(), "{at}");
                    let records = |m: &Monitor| m.windows().map(|w| w.records().to_vec());
                    assert_eq!(records(&batched), records(&by_event), "{at}");
                    // Frontier-engine models keep event-exact
                    // first_violation even inside a batch; fig1's SC
                    // refutation at prefix 4 must not be reported as
                    // "somewhere in the batch".
                    for (i, first) in by_event.first_violation.iter().enumerate() {
                        if matches!(batched.engines[i], Engine::Frontier { .. }) {
                            assert_eq!(batched.first_violation(i), *first, "model {i}, {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn retired_processors_fold_and_slots_are_reused() {
        let mut m = Monitor::new(
            vec![models::sc(), models::pram()],
            MonitorConfig {
                window: Some(1),
                ..MonitorConfig::default()
            },
        );
        m.feed("p", OpKind::Write, "x", 1, Label::Ordinary);
        m.feed("q", OpKind::Read, "x", 1, Label::Ordinary);
        // The window seal quiesced every column, so the retirement
        // folds immediately.
        m.retire("p");
        assert_eq!(m.totals().retires, 1);
        assert_eq!(m.totals().folds, 1);
        // The freed slot goes to the next joiner; engine width stays 2.
        m.join("r");
        assert_eq!(m.totals().joins, 1);
        assert_eq!(m.churn().width(), 2);
        m.feed("r", OpKind::Write, "x", 2, Label::Ordinary);
        m.feed("q", OpKind::Read, "x", 2, Label::Ordinary);
        assert_eq!(m.verdicts()[0], TriVerdict::Admitted);
        assert_eq!(m.verdicts()[1], TriVerdict::Admitted);
    }

    #[test]
    fn windowing_bounds_frontier_states() {
        // Three processors writing disjoint locations: the exact
        // frontier holds every count vector — (n/3 + 1)^3 states —
        // while a sealed window restarts from the lone surviving
        // memory-contents state every four events.
        let mut plain = monitor(vec![models::sc()]);
        let mut windowed = Monitor::new(
            vec![models::sc()],
            MonitorConfig {
                window: Some(4),
                ..MonitorConfig::default()
            },
        );
        let (mut peak_plain, mut peak_windowed) = (0u64, 0u64);
        for i in 0..30 {
            let pname = ["p", "q", "r"][i % 3];
            let loc = ["x", "y", "z"][i % 3];
            let rp = plain.feed(pname, OpKind::Write, loc, i as i64, Label::Ordinary);
            let rw = windowed.feed(pname, OpKind::Write, loc, i as i64, Label::Ordinary);
            peak_plain = peak_plain.max(rp.frontier_states);
            peak_windowed = peak_windowed.max(rw.frontier_states);
            assert_eq!(plain.verdicts(), windowed.verdicts(), "event {i}");
        }
        assert_eq!(windowed.totals().windows_sealed, 7);
        assert!(windowed.totals().states_sealed > 0);
        assert!(
            peak_windowed * 10 < peak_plain,
            "windowed peak {peak_windowed} should be far below exact peak {peak_plain}"
        );
        let recs = windowed.windows().unwrap().records();
        assert_eq!(recs.len(), 7);
        assert!(recs.iter().all(|r| r.verdicts == [TriVerdict::Admitted]));
    }

    #[test]
    fn lifecycle_traces_apply_joins_and_retires_in_stream_order() {
        let text = "join p\np w(x)1\njoin q\nq r(x)1\nretire p\nq w(x)2\nq r(x)2\n";
        let t = parse_trace(text).unwrap();
        let mut m = Monitor::new(
            vec![models::sc(), models::pram()],
            MonitorConfig {
                window: Some(1),
                ..MonitorConfig::default()
            },
        );
        m.feed_trace(&t);
        assert_eq!(m.totals().joins, 2);
        assert_eq!(m.totals().retires, 1);
        assert_eq!(m.totals().folds, 1);
        assert!(m.verdicts().iter().all(|&v| v == TriVerdict::Admitted));
        // The fold summary carries p's last write forward.
        let s = &m.churn().summaries()[0];
        assert_eq!(s.last_writes.len(), 1);
        assert_eq!(s.last_writes[0].1, Value(1));
    }

    #[test]
    fn feed_trace_empty_segment_is_a_no_op() {
        let mut m = monitor(vec![models::sc()]);
        m.feed("p", OpKind::Write, "x", 1, Label::Ordinary);
        let rep = m.feed_trace(&m.trace().clone().split_front(0));
        assert_eq!(rep.events, 1);
        assert_eq!(rep.rechecks, 0);
        assert_eq!(m.verdicts()[0], TriVerdict::Admitted);
    }

    #[test]
    fn mid_stream_processor_growth_rebuilds_consistently() {
        // No headers: the second processor appears only at event 3.
        let mut m = monitor(vec![models::sc(), models::pram()]);
        m.feed("p", OpKind::Write, "x", 1, Label::Ordinary);
        m.feed("p", OpKind::Write, "x", 2, Label::Ordinary);
        m.feed("q", OpKind::Read, "x", 1, Label::Ordinary);
        // q read the overwritten value: fine for PRAM (q's view may
        // lag), refuted by SC? No — w1 w2 then r1 is not SC, but
        // w1 r1 w2 is a legal SC order. Both admit.
        assert_eq!(m.verdicts()[0], TriVerdict::Admitted);
        assert_eq!(m.verdicts()[1], TriVerdict::Admitted);
        m.feed("q", OpKind::Read, "x", 0, Label::Ordinary);
        // ...but reading the initial value after value 1 breaks both.
        assert_eq!(m.verdicts()[0], TriVerdict::Violated);
        assert_eq!(m.verdicts()[1], TriVerdict::Violated);
    }
}
