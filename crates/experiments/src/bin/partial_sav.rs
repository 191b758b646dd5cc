//! Partial source-address-validation scenario: SAV is deployed everywhere
//! except a seeded 20% pocket of stub ASes, and every spoofing source
//! lives in that pocket — the Spoofer-project picture of the real edge.
//! Localization must concentrate the suspect volume on clusters holding
//! spoof-capable stubs, not the compliant remainder.
//!
//! Accepts the shared experiment flags. With `--check`, exits non-zero
//! unless ≥90% of the suspect volume lands on spoof-capable pockets (the
//! CI smoke contract).

use trackdown_experiments::{scenarios, Options};

fn main() {
    let check = std::env::args().any(|a| a == "--check");
    let opts = Options::from_args_filtered(&["--check"]);

    let outcome = scenarios::partial_sav(&opts);
    println!(
        "partial SAV: {}/{} stubs spoof-capable; {} suspect clusters; \
         {:.1}% of suspect volume on spoof-capable pockets",
        outcome.spoof_capable,
        outcome.stubs,
        outcome.suspect_clusters,
        outcome.volume_on_spoofers * 100.0,
    );

    if check {
        if let Some(violation) = outcome.check() {
            eprintln!("partial-sav check FAILED: {violation}");
            std::process::exit(1);
        }
        eprintln!(
            "partial-sav check passed: {:.1}% of suspect volume on spoof-capable stubs",
            outcome.volume_on_spoofers * 100.0
        );
    }
}
