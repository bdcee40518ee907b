//! Regression tests for the separation search engine: `smc separate`
//! must rediscover the paper's model-separation witnesses inside small
//! universes, and every witness it reports must be checkable, litmus
//! round-trippable, and op-deletion minimal.

use smc_core::checker::{check_with_stats, CheckConfig};
use smc_core::histgen::GenParams;
use smc_core::separate::{separate, without_op, DirectionStatus, SeparationWitness};
use smc_core::{models, ModelSpec};
use smc_history::litmus::{emit_litmus, parse_history};

fn gp(procs: usize, ops: usize, locs: usize, values: i64) -> GenParams {
    GenParams {
        procs,
        ops_per_proc: ops,
        locs,
        values,
    }
}

/// The witness must be admitted by one model and refuted by the other,
/// and it must survive a litmus round trip.
fn assert_separates(w: &SeparationWitness, admits: &ModelSpec, refutes: &ModelSpec) {
    let cfg = CheckConfig::default();
    let (va, _) = check_with_stats(&w.history, admits, &cfg);
    let (vr, _) = check_with_stats(&w.history, refutes, &cfg);
    assert!(
        va.is_allowed(),
        "{} must admit:\n{}",
        admits.name,
        w.history
    );
    assert!(
        vr.is_disallowed(),
        "{} must refute:\n{}",
        refutes.name,
        w.history
    );
    let back = parse_history(&emit_litmus(&w.history)).expect("witness parses back");
    assert_eq!(back, w.history, "litmus round trip changed the witness");
}

/// A minimized witness must stop separating when any single op is
/// removed (greedy op-deletion minimality).
fn assert_op_minimal(w: &SeparationWitness, admits: &ModelSpec, refutes: &ModelSpec) {
    assert!(w.minimized);
    let cfg = CheckConfig::default();
    for idx in 0..w.history.num_ops() {
        let smaller = without_op(&w.history, idx);
        assert!(
            !smc_core::separates(&smaller, admits, refutes, &cfg),
            "witness still separates {} / {} after deleting op {idx}:\n{}",
            admits.name,
            refutes.name,
            w.history
        );
    }
}

fn direction<'a>(
    sep: &'a smc_core::Separator,
    admits: &str,
    refutes: &str,
) -> &'a smc_core::Direction {
    sep.directions()
        .iter()
        .find(|d| sep.models()[d.admits].name == admits && sep.models()[d.refutes].name == refutes)
        .unwrap_or_else(|| panic!("no direction {admits} admits / {refutes} refutes"))
}

fn found(sep: &smc_core::Separator, admits: &str, refutes: &str) -> SeparationWitness {
    match &direction(sep, admits, refutes).status {
        DirectionStatus::Found(w) => w.clone(),
        other => panic!("{admits} admits / {refutes} refutes: expected witness, got {other:?}"),
    }
}

#[test]
fn rediscovers_sc_vs_causal_witness() {
    let models = vec![models::sc(), models::causal()];
    let universes = vec![gp(2, 1, 1, 1), gp(2, 2, 1, 1), gp(2, 2, 2, 1)];
    let sep = separate(models.clone(), &universes, CheckConfig::default(), 2);
    // SC ⊆ Causal: that direction must be marked impossible, not searched.
    let d = direction(&sep, "SC", "Causal");
    assert!(matches!(d.status, DirectionStatus::Impossible));
    let w = found(&sep, "Causal", "SC");
    assert_separates(&w, &models[1], &models[0]);
    assert_op_minimal(&w, &models[1], &models[0]);
    // Causal already splits from SC with one location and two ops.
    assert!(w.history.num_ops() <= 4, "{}", w.history);
}

#[test]
fn rediscovers_tso_vs_sc_store_buffering() {
    let models = vec![models::tso(), models::sc()];
    let universes = vec![gp(2, 2, 2, 1)];
    let sep = separate(models.clone(), &universes, CheckConfig::default(), 2);
    let w = found(&sep, "TSO", "SC");
    assert_separates(&w, &models[0], &models[1]);
    assert_op_minimal(&w, &models[0], &models[1]);
    // The minimal TSO/SC separation is the 4-op store-buffering shape of
    // the paper's Figure 1.
    assert_eq!(w.history.num_ops(), 4, "{}", w.history);
    assert_eq!(emit_litmus(&w.history), "p: w(x)1 r(y)0\nq: w(y)1 r(x)0\n");
}

#[test]
fn rediscovers_dash_goodman_incomparability() {
    // The acceptance case: PC (DASH) and PCG (Goodman) are incomparable,
    // and both witnessing directions exist within {3 procs, 3 ops,
    // 2 locs, 2 values}.
    let models = vec![models::pc(), models::pc_goodman()];
    let universes: Vec<GenParams> = smc_core::separate::full_ladder()
        .into_iter()
        .filter(|p| p.procs <= 3 && p.ops_per_proc <= 3 && p.locs <= 2 && p.values <= 2)
        .collect();
    let sep = separate(models.clone(), &universes, CheckConfig::default(), 4);
    let w_pc = found(&sep, "PC", "PCG");
    let w_pcg = found(&sep, "PCG", "PC");
    assert_separates(&w_pc, &models[0], &models[1]);
    assert_separates(&w_pcg, &models[1], &models[0]);
    assert_op_minimal(&w_pc, &models[0], &models[1]);
    assert_op_minimal(&w_pcg, &models[1], &models[0]);
}

#[test]
fn separation_respects_known_inclusions() {
    // Sweep all unlabeled models over the small ladder; no direction
    // marked impossible by the lattice may ever acquire a witness, and
    // every witness found must actually separate.
    let models = models::lattice_models();
    let universes = vec![gp(2, 2, 1, 1), gp(2, 2, 2, 1)];
    let sep = separate(models.clone(), &universes, CheckConfig::default(), 4);
    let mut witnessed = 0;
    for d in sep.directions() {
        if let DirectionStatus::Found(w) = &d.status {
            assert_separates(w, &models[d.admits], &models[d.refutes]);
            witnessed += 1;
        }
    }
    // 2x2x2x1 already separates most of the lattice.
    assert!(witnessed >= 20, "only {witnessed} directions witnessed");
}
