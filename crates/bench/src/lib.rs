//! Shared plumbing for the figure-regeneration binaries and benchmarks.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (see `DESIGN.md`'s per-experiment index):
//!
//! | binary            | paper artifact |
//! |-------------------|----------------|
//! | `fig1_tso`        | Figure 1 — TSO-but-not-SC execution, with witness views |
//! | `fig2_pc`         | Figure 2 — PC-but-not-TSO execution |
//! | `fig3_pram`       | Figure 3 — PRAM-but-not-TSO execution |
//! | `fig4_causal`     | Figure 4 — causal-but-not-TSO execution |
//! | `fig5_lattice`    | Figure 5 — the inclusion lattice, recomputed empirically |
//! | `fig6_bakery`     | Figure 6 / Section 5 — Bakery under RC_sc vs RC_pc |
//! | `fig7_extensions` | Section 7 — the extended models placed in the lattice |
//!
//! The corpus × model classification matrix, with every expectation of
//! `litmus/paper.litmus` asserted, is `smc matrix litmus/paper.litmus`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bighist;
pub mod quickbench;

use smc_core::checker::{check_with_config, format_view, CheckConfig, Verdict};
use smc_core::spec::ModelSpec;
use smc_history::{History, ProcId};

/// Check `h` against `spec` and print the verdict; when allowed, also
/// print the witness views in the paper's `S_{p+w}` notation.
pub fn report_check(h: &History, spec: &ModelSpec, show_views: bool) -> Verdict {
    let v = check_with_config(h, spec, &CheckConfig::default());
    match &v {
        Verdict::Allowed(w) => {
            println!("  {:<16} ALLOWED", spec.name);
            if show_views {
                for (p, view) in w.views.iter().enumerate() {
                    println!("    {}", format_view(h, ProcId(p as u32), view));
                }
                if let Some(t) = &w.labeled_order {
                    let seq: Vec<String> = t.iter().map(|&o| h.format_op_subscripted(o)).collect();
                    println!("    labeled order: {}", seq.join(" "));
                }
            }
        }
        Verdict::Disallowed => println!("  {:<16} forbidden", spec.name),
        Verdict::Exhausted => println!("  {:<16} undecided (budget exhausted)", spec.name),
        Verdict::Unsupported(msg) => println!("  {:<16} unsupported: {msg}", spec.name),
    }
    v
}

/// Print a history indented, paper-style.
pub fn print_history(h: &History) {
    for line in h.to_string().lines() {
        println!("    {line}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_core::models;
    use smc_history::litmus::parse_history;

    #[test]
    fn report_check_runs() {
        let h = parse_history("p: w(x)1\nq: r(x)1").unwrap();
        let v = report_check(&h, &models::sc(), true);
        assert!(v.is_allowed());
    }
}
