//! The litmus-test corpus: the paper's figures plus classic shapes, each
//! annotated with the expected verdict per memory model.
//!
//! The text is `litmus/paper.litmus`, built in: the file the CLI reads
//! and the suite the tests check are one copy.
//!
//! Expectations use the checker's model names (`SC`, `TSO`, `PC`, `PRAM`,
//! `Causal`, `Coherent`, `CausalCoherent`, `RCsc`, `RCpc`); tests omit
//! models for which the verdict is uninteresting. The corpus is consumed
//! by the integration suite (every expectation is checked) and by the
//! Figure 5 lattice harness; `smc check` and `smc matrix` hold the file
//! to its expectations.

use smc_history::litmus::{parse_suite, LitmusTest};

/// The corpus source, in the litmus suite format of
/// [`smc_history::litmus`].
pub const SUITE_TEXT: &str = include_str!("../../../litmus/paper.litmus");

/// Parse the embedded corpus.
///
/// # Panics
/// Panics if the embedded text fails to parse (a build-time defect,
/// caught by tests).
pub fn litmus_suite() -> Vec<LitmusTest> {
    parse_suite(SUITE_TEXT).expect("embedded corpus must parse")
}

/// Look up one corpus entry by name.
pub fn by_name(name: &str) -> Option<LitmusTest> {
    litmus_suite().into_iter().find(|t| t.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_parses_and_is_well_formed() {
        let suite = litmus_suite();
        assert!(suite.len() >= 15);
        for t in &suite {
            t.history.validate().unwrap();
            assert!(!t.expectations.is_empty(), "{} has no expectations", t.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let suite = litmus_suite();
        let mut names: Vec<_> = suite.iter().map(|t| t.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("fig1").is_some());
        assert!(by_name("bakery_s5").is_some());
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn every_expectation_names_a_known_model() {
        // Guards against typos in the suite text.
        for t in litmus_suite() {
            for (model, _) in &t.expectations {
                assert!(
                    smc_core::models::by_name(model).is_some(),
                    "{}: unknown model `{model}`",
                    t.name
                );
            }
        }
    }
}
