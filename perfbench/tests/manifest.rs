//! `BENCHMARK.json` declares exactly the workloads and metrics the
//! benchmark measures, in the same order and with the same units.

use omcf_perfbench::report::{END_TO_END, PER_LAYER};
use omcf_perfbench::workloads::WORKLOADS;

/// Every string value of `key` in `text`, in order.
fn values<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let pattern = format!("\"{key}\": \"");
    text.match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &text[at + pattern.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn manifest_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let declared = values(&text, "name");
    let metrics = END_TO_END.iter().chain(&PER_LAYER);
    let expected: Vec<&str> =
        WORKLOADS.iter().map(|w| w.name).chain(metrics.clone().map(|m| m.name)).collect();
    assert_eq!(declared, expected);
    assert_eq!(values(&text, "unit"), metrics.clone().map(|m| m.unit).collect::<Vec<_>>());
    assert_eq!(values(&text, "better"), metrics.map(|m| m.better).collect::<Vec<_>>());
}
