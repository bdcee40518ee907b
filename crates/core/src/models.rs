//! The standard memory models of Sections 3–5, plus the new parameter
//! combinations the paper's Section 7 suggests, all as [`ModelSpec`]
//! instances.
//!
//! ```
//! use smc_core::{checker, models};
//! use smc_history::litmus::parse_history;
//!
//! // Message passing with a stale read: PRAM's pipelines forbid it,
//! // the coherent-only memory allows it.
//! let h = parse_history("p: w(d)1 w(f)1\nq: r(f)1 r(d)0").unwrap();
//! assert!(checker::check(&h, &models::pram()).is_disallowed());
//! assert!(checker::check(&h, &models::coherent()).is_allowed());
//! ```

use crate::spec::{GlobalOrder, LabeledModel, ModelSpec, OperationSet, OwnerOrder};

fn base(name: &str) -> ModelSpec {
    ModelSpec {
        name: name.to_owned(),
        delta: OperationSet::WritesOnly,
        identical_views: false,
        global_write_order: false,
        coherence: false,
        labeled: None,
        global_order: GlobalOrder::None,
        owner_order: OwnerOrder::None,
        rc_bracketing: false,
        fence_bracketing: false,
    }
}

/// Sequential consistency (Lamport): all processors share one legal view
/// of *all* operations, respecting program order.
pub fn sc() -> ModelSpec {
    ModelSpec {
        delta: OperationSet::AllOps,
        identical_views: true,
        global_order: GlobalOrder::ProgramOrder,
        ..base("SC")
    }
}

/// Total store ordering (Section 3.2): views contain the writes of
/// others, all views agree on a single store order, and the partial
/// program order `→ppo` is preserved (reads may bypass buffered writes).
pub fn tso() -> ModelSpec {
    ModelSpec {
        global_write_order: true,
        global_order: GlobalOrder::PartialProgramOrder,
        ..base("TSO")
    }
}

/// Processor consistency as implemented by DASH (Section 3.3): coherence
/// plus preservation of the semi-causality order
/// `→sem = (ppo ∪ rwb ∪ rrb)+`.
pub fn pc() -> ModelSpec {
    ModelSpec {
        coherence: true,
        global_order: GlobalOrder::SemiCausalOrder,
        ..base("PC")
    }
}

/// Pipelined RAM (Section 3.5): per-processor views with no mutual
/// consistency at all; only program order is preserved.
pub fn pram() -> ModelSpec {
    ModelSpec {
        global_order: GlobalOrder::ProgramOrder,
        ..base("PRAM")
    }
}

/// Causal memory (Section 3.5): like PRAM but the full causal order
/// `→co = (po ∪ wb)+` must be preserved in every view.
pub fn causal() -> ModelSpec {
    ModelSpec {
        global_order: GlobalOrder::CausalOrder,
        ..base("Causal")
    }
}

/// Coherent-only memory: per-location agreement on write order and
/// per-location program order, nothing else. Not named in the paper's
/// figures but the canonical weakest coherent point in the parameter
/// space.
pub fn coherent() -> ModelSpec {
    ModelSpec {
        coherence: true,
        global_order: GlobalOrder::PerLocationProgramOrder,
        ..base("Coherent")
    }
}

/// Causal memory strengthened with coherence — one of the *new* memories
/// Section 7 derives from the framework ("a mutual consistency condition
/// that requires coherence can be added to causal memory").
pub fn causal_coherent() -> ModelSpec {
    ModelSpec {
        coherence: true,
        global_order: GlobalOrder::CausalOrder,
        ..base("CausalCoherent")
    }
}

fn rc(name: &str, labeled: LabeledModel) -> ModelSpec {
    ModelSpec {
        coherence: true,
        labeled: Some(labeled),
        owner_order: OwnerOrder::PartialProgramOrder,
        rc_bracketing: true,
        ..base(name)
    }
}

/// Release consistency with sequentially consistent labeled operations
/// (`RC_sc`, Section 3.4).
pub fn rc_sc() -> ModelSpec {
    rc("RCsc", LabeledModel::SequentiallyConsistent)
}

/// Release consistency with processor-consistent labeled operations
/// (`RC_pc`, Section 3.4).
pub fn rc_pc() -> ModelSpec {
    rc("RCpc", LabeledModel::ProcessorConsistent)
}

/// Goodman's processor consistency, as formalized by Ahamad, Bazzi,
/// John, Kohli & Neiger (the paper's reference \[2\]): PRAM plus
/// coherence. Section 3.3 notes it is distinct from (and incomparable
/// with) the DASH definition; having both in the registry lets the
/// lattice harness exhibit the difference.
pub fn pc_goodman() -> ModelSpec {
    ModelSpec {
        coherence: true,
        global_order: GlobalOrder::ProgramOrder,
        ..base("PCG")
    }
}

/// Weak ordering (Dubois, Scheurich & Briggs — the paper's reference
/// \[1\]), expressed in the framework: labeled (synchronization)
/// operations are sequentially consistent, coherence holds for ordinary
/// operations, and every ordinary operation is fenced against every
/// labeled operation of its processor in both directions — strictly
/// stronger bracketing than release consistency's.
pub fn weak_ordering() -> ModelSpec {
    ModelSpec {
        coherence: true,
        labeled: Some(LabeledModel::SequentiallyConsistent),
        owner_order: OwnerOrder::PartialProgramOrder,
        rc_bracketing: true,
        fence_bracketing: true,
        ..base("WO")
    }
}

/// Hybrid consistency (Attiya & Friedman — the paper's reference \[4\]),
/// approximated in the framework: all processors agree on the relative
/// order of labeled (strong) operations (without requiring that common
/// order to be legal by itself), and ordinary (weak) operations are
/// fenced against the labeled operations of their processor.
pub fn hybrid() -> ModelSpec {
    ModelSpec {
        labeled: Some(LabeledModel::AgreementOnly),
        owner_order: OwnerOrder::ProgramOrder,
        fence_bracketing: true,
        ..base("Hybrid")
    }
}

/// Every model the crate defines, strongest first (by the paper's
/// Figure 5 where comparable).
pub fn all_models() -> Vec<ModelSpec> {
    vec![
        sc(),
        tso(),
        pc(),
        pc_goodman(),
        causal_coherent(),
        causal(),
        pram(),
        coherent(),
        rc_sc(),
        rc_pc(),
        weak_ordering(),
        hybrid(),
    ]
}

/// The models of the paper's Figure 5 (the inclusion lattice), strongest
/// first.
pub fn figure5_models() -> Vec<ModelSpec> {
    vec![sc(), tso(), pc(), causal(), pram()]
}

/// The unlabeled models — everything
/// [`crate::lattice::known_inclusions`] speaks about, and the model set
/// `smc separate --all` sweeps (the generated universes contain no
/// labeled operations, so the labeled models cannot be separated there).
pub fn lattice_models() -> Vec<ModelSpec> {
    all_models()
        .into_iter()
        .filter(|m| m.labeled.is_none())
        .collect()
}

/// The models the order-constraint saturation engine can decide
/// ([`crate::saturate::supports`]) — the capability flag the `--engine
/// auto` routing and the engine equivalence tests consult.
pub fn saturating_models() -> Vec<ModelSpec> {
    all_models()
        .into_iter()
        .filter(crate::saturate::supports)
        .collect()
}

/// Look a model up by (case-insensitive) name; accepts the common
/// spellings used in litmus expectations (`RC_sc`, `RCsc`, ...).
pub fn by_name(name: &str) -> Option<ModelSpec> {
    let canon: String = name
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect::<String>()
        .to_ascii_lowercase();
    let m = match canon.as_str() {
        "sc" => sc(),
        "tso" => tso(),
        "pc" => pc(),
        "pram" => pram(),
        "causal" => causal(),
        "coherent" | "coherence" => coherent(),
        "causalcoherent" => causal_coherent(),
        "rcsc" => rc_sc(),
        "rcpc" => rc_pc(),
        // DASH's processor consistency (Section 3.3) — distinct from
        // Goodman's, hence the explicit aliases.
        "dashpc" | "pcdash" => pc(),
        "pcg" | "pcgoodman" | "goodman" | "goodmanpc" => pc_goodman(),
        "wo" | "weakordering" => weak_ordering(),
        "hybrid" => hybrid(),
        _ => return None,
    };
    Some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_all_distinct_names() {
        let all = all_models();
        let mut names: Vec<_> = all.iter().map(|m| m.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }

    #[test]
    fn by_name_resolves_spelling_variants() {
        assert_eq!(by_name("SC").unwrap().name, "SC");
        assert_eq!(by_name("sc").unwrap().name, "SC");
        assert_eq!(by_name("RC_sc").unwrap().name, "RCsc");
        assert_eq!(by_name("rc-pc").unwrap().name, "RCpc");
        assert_eq!(by_name("Causal").unwrap().name, "Causal");
        assert_eq!(by_name("dash_pc").unwrap().name, "PC");
        assert_eq!(by_name("goodman_pc").unwrap().name, "PCG");
        assert!(by_name("nonsense").is_none());
    }

    #[test]
    fn lattice_models_are_exactly_the_unlabeled_ones() {
        let names: Vec<String> = lattice_models().iter().map(|m| m.name.clone()).collect();
        assert_eq!(
            names,
            [
                "SC",
                "TSO",
                "PC",
                "PCG",
                "CausalCoherent",
                "Causal",
                "PRAM",
                "Coherent"
            ]
        );
    }

    #[test]
    fn every_registered_model_resolvable_by_name() {
        for m in all_models() {
            let resolved = by_name(&m.name).unwrap();
            assert_eq!(resolved, m);
        }
    }
}
