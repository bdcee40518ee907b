//! The characterization framework of Kohli, Neiger & Ahamad,
//! *A Characterization of Scalable Shared Memories* (ICPP 1993) — the
//! paper's primary contribution, executable.
//!
//! The paper characterizes a memory consistency model *non-operationally*
//! by the set of system execution histories it admits: `H` is admitted iff
//! every processor `p` has a legal sequential **view** `S_{p+δp}` subject
//! to three parameters — the set of remote operations included
//! ([`spec::OperationSet`]), mutual-consistency requirements across views,
//! and an ordering derived from `H` that each view must respect. This
//! crate turns the characterization into a decision procedure:
//!
//! * [`spec`] — the three parameters as data; a [`spec::ModelSpec`] is a
//!   point in parameter space.
//! * [`models`] — SC, TSO, PC, PRAM, causal, RC_sc, RC_pc and the
//!   Section 7 extensions, each as a parameter choice.
//! * [`orders`] — the derived orders `po`, `ppo`, `wb`, `co`, `rwb`,
//!   `rrb`, `sem`.
//! * [`rf`] — reads-from resolution (and enumeration, when written values
//!   collide).
//! * [`coherence`] — per-location write orders and their enumeration.
//! * [`view`] — the legal-extension search for a single view: one
//!   depth-first search, which every checker path runs whole.
//! * [`kernel`] — the shared state-space kernel under the view search
//!   and `frontier`: one successor-generation function and a packed,
//!   arena-allocated visited-state table.
//! * [`frontier`] — the same question as a resumable state machine: all
//!   reachable scheduling states of a view, extendable one operation at
//!   a time (the streaming monitor's engine).
//! * [`checker`] — the full decision procedure: [`checker::check`]
//!   returns [`checker::Verdict::Allowed`] with a [`checker::Witness`],
//!   or `Disallowed`, under explicit resource budgets;
//!   [`checker::check_with_stats`] also reports [`checker::CheckStats`].
//! * [`saturate`] — the order-constraint saturation engine: a second
//!   backend that never enumerates schedules, deciding 100–1000-op
//!   histories by incremental closure + cycle detection over per-view
//!   constraint graphs (`--engine {exhaustive,saturate,auto}`).
//! * [`budget`] — the search-node budget: a thread-local fast path over
//!   an optional shared atomic pool with early cancellation.
//! * [`batch`] — the parallel engine: [`batch::check_batch`] fans
//!   (history, model) pairs across a thread pool; [`batch::check_parallel`]
//!   fans a single check's independent searches (reads-from assignments,
//!   store orders, per-processor views) across the same pool.
//! * [`canon`] — a canonical normal form for histories under
//!   processor/location/value renamings, with a 128-bit [`canon::HistoryKey`].
//! * [`memo`] — a sharded concurrent memo table of decided verdicts keyed
//!   by `(HistoryKey, model parameter key)`, shared across sweeps.
//! * [`binfmt`] — the shared binary-format helpers (bounds-checked
//!   reader, little-endian writers) behind memo files and monitor
//!   checkpoints.
//! * [`explain`] — best-effort cycle certificates for refutations.
//! * [`verify`] — independent validation of witnesses (used heavily by
//!   the test suite: every `Allowed` must verify).
//! * [`lattice`] — empirical comparison of models over history corpora,
//!   reproducing the paper's Figure 5.
//! * [`histgen`] — exhaustive generation of small abstract histories for
//!   the lattice experiments.
//!
//! # Quickstart
//!
//! ```
//! use smc_core::{checker, models};
//! use smc_history::litmus;
//!
//! // Figure 1 of the paper: admitted by TSO, forbidden by SC.
//! let h = litmus::parse_history("p: w(x)1 r(y)0\nq: w(y)1 r(x)0").unwrap();
//! assert!(checker::check(&h, &models::tso()).is_allowed());
//! assert!(checker::check(&h, &models::sc()).is_disallowed());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod binfmt;
pub mod budget;
pub mod canon;
pub mod checker;
pub mod coherence;
pub mod constraints;
pub mod explain;
pub mod frontier;
pub mod histgen;
pub mod kernel;
pub mod lattice;
pub mod memo;
pub mod models;
pub mod orders;
pub mod rf;
pub mod saturate;
pub mod separate;
pub mod spec;
pub mod verify;
pub mod view;

pub use batch::{check_batch, check_matrix, check_parallel, BatchResult};
pub use budget::{Budget, SharedBudget};
pub use canon::{canonicalize, Canon, HistoryKey};
pub use checker::{
    check, check_with_config, check_with_stats, CheckConfig, CheckStats, Engine, EngineKind, Stage,
    Verdict, Witness,
};
pub use frontier::{AppendReport, FrontierEngine, FrontierStats, SealReport, ViewOp};
pub use memo::{MemoCache, MemoStats};
pub use separate::{
    minimize_witness, separates, Direction, DirectionStatus, SeparateStats, SeparationWitness,
    Separator,
};
pub use spec::ModelSpec;
