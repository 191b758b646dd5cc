//! Parsers of outside input — CAIDA as-rel files, campaign datasets and
//! run manifests — return a result for any input and never panic.
//!
//! Each parser gets arbitrary byte strings, valid documents with one
//! field (a JSON scalar or an as-rel column) replaced by a hostile value,
//! and valid documents with one byte overwritten or the tail cut off.
//! The suite also round-trips generated topologies through
//! `to_as_rel` → `parse_as_rel`, and runs a campaign over a parsed
//! as-rel file whose providers form a cycle.

use proptest::prelude::*;
use std::ops::Range;
use std::sync::OnceLock;
use trackdown_suite::core::dataset::Dataset;
use trackdown_suite::obs::{render_manifest, validate_manifest, CampaignRecorder, RunInfo};
use trackdown_suite::prelude::*;
use trackdown_suite::topology::serfmt::{parse_as_rel, to_as_rel};

/// Values a hostile or corrupted document might carry in place of any
/// one field: wrong types, boundary and out-of-range integers, huge
/// lengths, empty and non-ASCII strings, nested containers.
const HOSTILE: &[&str] = &[
    "null",
    "true",
    "0",
    "-1",
    "1",
    "3",
    "255",
    "256",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "1.5",
    "-0.0",
    "1e400",
    "\"\"",
    "\"x\"",
    "\"\u{e9}|\u{1F600}\"",
    "[]",
    "{}",
    "[[[]]]",
    "{\"a\":1}",
    "",
];

/// Byte ranges of every JSON scalar (string, number, literal) in `json`,
/// object keys included.
fn json_scalars(json: &str) -> Vec<Range<usize>> {
    let bytes = json.as_bytes();
    let mut spans = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let start = i;
        match bytes[i] {
            b'"' => {
                i += 1;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(bytes.len());
                spans.push(start..i);
            }
            b'-' | b'0'..=b'9' | b't' | b'f' | b'n' => {
                while i < bytes.len() && !b",]} \n\r\t".contains(&bytes[i]) {
                    i += 1;
                }
                spans.push(start..i);
            }
            _ => i += 1,
        }
    }
    spans
}

/// `json` with the `pick`-th scalar (modulo the count) replaced.
fn mutate_scalar(json: &str, pick: usize, with: &str) -> String {
    let spans = json_scalars(json);
    let span = spans[pick % spans.len()].clone();
    format!("{}{with}{}", &json[..span.start], &json[span.end..])
}

/// `text` with one column of one non-comment line replaced.
fn mutate_as_rel_field(text: &str, pick: usize, with: &str) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let data: Vec<usize> = (0..lines.len())
        .filter(|&i| !lines[i].starts_with('#'))
        .collect();
    let target = data[pick % data.len()];
    let mut fields: Vec<&str> = lines[target].split('|').collect();
    let col = (pick / data.len()) % fields.len();
    fields[col] = with;
    let replaced = fields.join("|");
    let mut out: Vec<&str> = lines.clone();
    out[target] = &replaced;
    out.join("\n")
}

/// `text` with the byte at `pos` overwritten, or cut at `pos` when
/// `byte` is 0; the result is read back lossily as UTF-8.
fn corrupt_bytes(text: &str, pos: usize, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let pos = pos % bytes.len();
    if byte == 0 {
        bytes.truncate(pos);
    } else {
        bytes[pos] = byte;
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn arbitrary_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<u8>(), 0..256)
        .prop_map(|b| String::from_utf8_lossy(&b).into_owned())
}

/// Arbitrary text biased toward each format's alphabet, so the parsers
/// get past their first byte more often than uniform noise allows.
fn format_noise(alphabet: &'static [u8]) -> impl Strategy<Value = String> {
    proptest::collection::vec(0..alphabet.len(), 0..128)
        .prop_map(move |v| v.into_iter().map(|i| alphabet[i] as char).collect())
}

fn small_world(seed: u64) -> GeneratedTopology {
    generate(&TopologyConfig::small(seed))
}

fn small_schedule(world: &GeneratedTopology, origin: &OriginAs) -> Vec<AnnouncementConfig> {
    full_schedule(
        &world.topology,
        origin,
        &GeneratorParams {
            max_removals: 1,
            max_poison_configs: Some(4),
        },
    )
}

/// A valid dataset document and a valid run manifest from one small
/// recorded campaign, built once for the whole suite.
fn valid_documents() -> &'static (String, String) {
    static DOCS: OnceLock<(String, String)> = OnceLock::new();
    DOCS.get_or_init(|| {
        let world = small_world(7);
        let origin = OriginAs::peering_style(&world, 4);
        let schedule = small_schedule(&world, &origin);
        let engine = BgpEngine::new(&world.topology, &EngineConfig::default());
        let recorder = CampaignRecorder::new(true);
        let opts = CampaignOpts {
            recorder: Some(&recorder),
            ..CampaignOpts::default()
        };
        let campaign = run_campaign(&engine, &origin, &schedule, &opts).expect("valid schedule");
        let dataset = Dataset::from_campaign(&world.topology, &origin, &campaign)
            .to_json()
            .expect("dataset serializes");
        let run = RunInfo {
            name: "parser_robustness".into(),
            seed: 7,
            policy_seed: 0,
            scale: "small".into(),
            threads: campaign.stats.threads,
            trace: "off".into(),
            schedule_len: schedule.len(),
            deterministic: true,
        };
        let manifest = render_manifest(&run, &recorder.take_records(), None);
        (dataset, manifest)
    })
}

fn valid_as_rel() -> &'static String {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| to_as_rel(&small_world(7).topology))
}

#[test]
fn valid_documents_parse() {
    let (dataset, manifest) = valid_documents();
    assert!(Dataset::from_json(dataset).is_ok());
    assert!(validate_manifest(manifest).is_ok());
    assert!(parse_as_rel(valid_as_rel()).is_ok());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parsers_survive_arbitrary_bytes(text in arbitrary_text()) {
        let _ = parse_as_rel(&text);
        let _ = Dataset::from_json(&text);
        let _ = validate_manifest(&text);
    }

    #[test]
    fn parsers_survive_format_shaped_noise(
        rel in format_noise(b"0123456789|-# \n"),
        json in format_noise(b"{}[]:,\"\\0123456789-.eEtrunlfas \n"),
    ) {
        let _ = parse_as_rel(&rel);
        let _ = Dataset::from_json(&json);
        let _ = validate_manifest(&json);
    }

    #[test]
    fn as_rel_survives_one_mutated_field(pick in any::<usize>(), with in 0..HOSTILE.len()) {
        let text = mutate_as_rel_field(valid_as_rel(), pick, HOSTILE[with]);
        let _ = parse_as_rel(&text);
    }

    #[test]
    fn dataset_survives_one_mutated_field(pick in any::<usize>(), with in 0..HOSTILE.len()) {
        let text = mutate_scalar(&valid_documents().0, pick, HOSTILE[with]);
        if let Ok(ds) = Dataset::from_json(&text) {
            // Whatever loads must be safe to analyse.
            let _ = ds.rebuild_clustering();
            let _ = ds.distinct_catchments_per_source();
        }
    }

    #[test]
    fn manifest_survives_one_mutated_field(pick in any::<usize>(), with in 0..HOSTILE.len()) {
        let _ = validate_manifest(&mutate_scalar(&valid_documents().1, pick, HOSTILE[with]));
    }

    #[test]
    fn parsers_survive_corrupted_bytes(pos in any::<usize>(), byte in any::<u8>()) {
        let (dataset, manifest) = valid_documents();
        let _ = parse_as_rel(&corrupt_bytes(valid_as_rel(), pos, byte));
        let _ = Dataset::from_json(&corrupt_bytes(dataset, pos, byte));
        let _ = validate_manifest(&corrupt_bytes(manifest, pos, byte));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn as_rel_round_trips_generated_topologies(seed in any::<u64>(), size in 40usize..400) {
        for topo in [
            small_world(seed).topology,
            generate(&TopologyConfig::power_law(seed, size)).topology,
        ] {
            let text = to_as_rel(&topo);
            let back = parse_as_rel(&text).expect("exported as-rel parses");
            let mut asns = topo.asns().to_vec();
            let mut back_asns = back.asns().to_vec();
            asns.sort_unstable();
            back_asns.sort_unstable();
            prop_assert_eq!(asns, back_asns);
            prop_assert_eq!(back.num_links(), topo.num_links());
            prop_assert_eq!(to_as_rel(&back), text);
        }
    }
}

#[test]
fn manifest_with_huge_schedule_len_is_rejected() {
    let manifest = &valid_documents().1;
    let header = manifest.lines().next().unwrap();
    let needle = "\"schedule_len\":";
    let at = header.find(needle).expect("header has schedule_len") + needle.len();
    let end = at + header[at..].find([',', '}']).unwrap();
    let huge = format!("{}{}{}", &manifest[..at], u64::MAX, &manifest[end..]);
    let err = validate_manifest(&huge).unwrap_err();
    assert!(err.contains("schedule_len"), "{err}");
}

/// A campaign over a parsed as-rel file whose providers form a 3-AS
/// cycle (AS 64501 → 64502 → 64503 → 64501), hung below a tier-1 of a
/// generated topology. The cycle voids the uniqueness a baseline start
/// relies on, so the campaign keeps no baseline and deploys every
/// configuration from empty RIBs: at 1 and 2 worker threads it must say
/// so and equal per-configuration propagations.
#[test]
fn campaign_over_parsed_provider_cycle_agrees_across_modes() {
    let world = small_world(7);
    let tier1 = world.tier1s[0];
    let mut text = to_as_rel(&world.topology);
    text.push_str(&format!(
        "{tier1}|64501|-1\n64501|64502|-1\n64502|64503|-1\n64503|64501|-1\n",
        tier1 = tier1.0
    ));
    let topology = parse_as_rel(&text).expect("a provider cycle is well-formed as-rel");
    let world = GeneratedTopology::from_topology(topology, 6);
    let origin = OriginAs::peering_style(&world, 4);
    let schedule = small_schedule(&world, &origin);
    let engine_cfg = EngineConfig {
        policy: PolicyConfig {
            violator_fraction: 0.0,
            ..PolicyConfig::default()
        },
        ..EngineConfig::default()
    };
    let engine = BgpEngine::new(&world.topology, &engine_cfg);
    let run = |threads| {
        let opts = CampaignOpts {
            threads,
            ..CampaignOpts::default()
        };
        run_campaign(&engine, &origin, &schedule, &opts).expect("valid schedule")
    };
    let one = run(1);
    assert_eq!(one.stats.baseline, BaselineStatus::ProviderCycle);
    assert_eq!(one.stats.baseline_events, 0);
    for (k, cfg) in schedule.iter().enumerate() {
        let fresh = engine
            .propagate_config(&origin, &cfg.to_link_announcements())
            .expect("valid configuration");
        assert_eq!(
            one.catchments[k],
            Catchments::from_control_plane(&fresh),
            "config {k}"
        );
        assert_eq!(one.records[k].converged, fresh.converged, "config {k}");
    }
    let cycle: Vec<AsIndex> = [64501, 64502, 64503]
        .into_iter()
        .map(|a| world.topology.index_of(Asn(a)).expect("cycle AS parsed"))
        .collect();
    assert!(
        cycle.iter().any(|&a| one.catchments[0].get(a).is_some()),
        "the cycle hangs below a tier-1, so some member is reachable"
    );
    let two = run(2);
    assert_eq!(two.stats.baseline, BaselineStatus::ProviderCycle);
    assert!(
        two.catchments == one.catchments,
        "2-thread campaign diverged"
    );
    assert_eq!(two.tracked, one.tracked);
}
