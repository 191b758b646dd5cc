//! Reflection-attack traceback scenario (§VII-a): the victim only ever
//! sees reflector ASes, so attribution runs from the origin network's
//! vantage — its honeypot attracts the pre-reflection queries and the
//! campaign names the true origin cluster behind the reflector hop.
//!
//! Accepts the shared experiment flags. With `--check`, exits non-zero
//! unless the origin stays invisible to the victim *and* ≥90% of the
//! baseline-observable origin ASes are recovered (the CI smoke contract).

use trackdown_experiments::{scenarios, Options};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let opts = Options::from_args_filtered(&["--check"]);

    let outcome = scenarios::amplification(&opts);
    println!(
        "victim view: {} reflector ASes, {:.0}x amplification, true origin visible: {}",
        outcome.victim_reflector_ases,
        outcome.victim_amplification,
        outcome.origin_visible_to_victim,
    );
    println!(
        "origin view: {} origin ASes ({} observable at baseline), {}/{} recovered; \
         {} ASes named",
        outcome.origin_ases.len(),
        outcome.observable,
        outcome.recovered,
        outcome.observable,
        outcome.named_ases.len(),
    );

    if check {
        if let Some(violation) = outcome.check() {
            eprintln!("amplification check FAILED: {violation}");
            std::process::exit(1);
        }
        eprintln!(
            "amplification check passed: {}/{} origins recovered behind the reflector hop",
            outcome.recovered, outcome.observable
        );
    }
}
