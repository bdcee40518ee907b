//! A derived artifact beyond the paper's figures: the *extended* lattice,
//! placing the models the paper only cites — Goodman's PC \[2,9\], weak
//! ordering \[1\], hybrid consistency \[4\] — and the Section 7 parameter
//! combinations alongside the five models of Figure 5.

use smc_core::checker::CheckConfig;
use smc_core::histgen::{all_histories, GenParams};
use smc_core::lattice::{classify_all, compare_classified};
use smc_core::models;
use smc_history::History;
use smc_programs::corpus::litmus_suite;

fn main() {
    // Ordinary-only models over the litmus corpus + small universe.
    let models = vec![
        models::sc(),
        models::tso(),
        models::pc(),
        models::pc_goodman(),
        models::causal_coherent(),
        models::causal(),
        models::coherent(),
        models::pram(),
    ];
    let mut corpus: Vec<History> = litmus_suite()
        .into_iter()
        .map(|t| t.history)
        .filter(|h| !h.has_labeled_ops())
        .collect();
    corpus.extend(all_histories(&GenParams {
        procs: 2,
        ops_per_proc: 2,
        locs: 2,
        values: 1,
    }));
    corpus.extend(all_histories(&GenParams {
        procs: 2,
        ops_per_proc: 2,
        locs: 1,
        values: 2,
    }));
    println!(
        "Extended lattice over {} histories × {} models:\n",
        corpus.len(),
        models.len()
    );
    let cfg = CheckConfig::default();
    let jobs = std::thread::available_parallelism().map_or(1, usize::from);
    let classifications = classify_all(&corpus, &models, &cfg, jobs);
    let r = compare_classified(&models, classifications);

    println!(
        "{:<16} admitted (of {})",
        "model",
        corpus.len() - r.undecided
    );
    for (name, count) in r.model_names.iter().zip(&r.counts) {
        println!("{name:<16} {count}");
    }
    println!("\nInclusion matrix (row ⊆ column?):");
    print!("{:<16}", "");
    for name in &r.model_names {
        print!(" {name:>14}");
    }
    println!();
    for a in 0..models.len() {
        print!("{:<16}", r.model_names[a]);
        for b in 0..models.len() {
            let cell = if a == b {
                "="
            } else if r.inclusion[a][b] {
                "⊆"
            } else {
                "⊄"
            };
            print!(" {cell:>14}");
        }
        println!();
    }

    println!("\nHasse diagram (covering edges; ≡ marks corpus-equivalent models):");
    let classes = r.equivalence_classes();
    for (a, b) in r.hasse_edges() {
        println!(
            "  {}  ⊂  {}",
            r.class_name(&classes[a]),
            r.class_name(&classes[b])
        );
    }

    let idx = |n: &str| r.model_names.iter().position(|m| m == n).unwrap();
    // The derived claims, asserted.
    assert!(r.strictly_stronger(idx("SC"), idx("PCG")));
    assert!(r.strictly_stronger(idx("PCG"), idx("PRAM")));
    assert!(r.strictly_stronger(idx("PCG"), idx("Coherent")));
    assert!(r.strictly_stronger(idx("CausalCoherent"), idx("Causal")));
    assert!(r.strictly_stronger(idx("CausalCoherent"), idx("Coherent")));
    println!(
        "\nLabeled models (corpus verdicts): WO ⊂ RCsc ⊂ RCpc, with Hybrid \
         incomparable to RCsc\n(see the `extended_models` integration tests and \
         `table_matrix` for the full picture)."
    );
}
