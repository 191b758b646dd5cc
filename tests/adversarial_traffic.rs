//! End-to-end adversarial-traffic scenarios, pinned at the CI scale
//! (small topology, seed 7 — the same arm the scenario binaries gate with
//! `--check`): the reflection-attack triangle must recover the true
//! origins the victim can never see, and partial-SAV localization must
//! concentrate suspect volume on the spoof-capable pockets. Both stream
//! their flows through the exact accumulator.

use trackdown_experiments::{scenarios, Options, Scale};

fn opts() -> Options {
    Options {
        scale: Scale::Small,
        seed: 7,
        ..Options::default()
    }
}

#[test]
fn amplification_recovers_origins_behind_reflectors_exact() {
    let outcome = scenarios::amplification(&opts());
    assert_eq!(outcome.check(), None, "{outcome:?}");
    // The victim's apparent sources are reflectors, never the origins.
    assert!(!outcome.origin_visible_to_victim);
    assert!(outcome.victim_reflector_ases > 0);
    assert!(outcome.victim_amplification >= 2.0);
    // Traceback from the origin vantage names what the victim cannot:
    // ≥90% of the baseline-observable true origins (the check already
    // enforces this; restated here so a contract change fails loudly).
    assert!(outcome.recovered * 10 >= outcome.observable * 9);
}

#[test]
fn partial_sav_concentrates_volume_on_spoof_capable_stubs() {
    let outcome = scenarios::partial_sav(&opts());
    assert_eq!(outcome.check(), None, "{outcome:?}");
    // The pocket is a strict, non-empty subset of the stubs.
    assert!(outcome.spoof_capable >= 1);
    assert!(outcome.spoof_capable < outcome.stubs);
    // ≥90% of suspect volume lands on spoof-capable pockets.
    assert!(outcome.volume_on_spoofers >= 0.9);
}
