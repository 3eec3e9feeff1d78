//! Self-tests of the benchmark: seeded inputs repeat exactly, the seed
//! matters, and every printed metric name matches `BENCHMARK.json`.

use impact_perfbench::report::Metrics;
use impact_perfbench::requests::{draws, Programs};
use impact_perfbench::{Options, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use impact_support::json::{parse, Json};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("valid JSON")
}

fn listed(doc: &Json, key: &str, field: &str) -> Vec<String> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get(field)
                .and_then(Json::as_str)
                .expect("a string field")
                .to_string()
        })
        .collect()
}

fn body_sequence(seed: u64) -> Vec<u8> {
    let programs = Programs::load();
    draws(seed, 64, programs.workloads.len())
        .into_iter()
        .flat_map(|d| programs.body(d).into_bytes())
        .collect()
}

#[test]
fn same_seed_gives_byte_identical_requests() {
    assert_eq!(body_sequence(7), body_sequence(7));
}

#[test]
fn different_seed_changes_the_draws() {
    assert_ne!(draws(7, 64, 10), draws(8, 64, 10));
}

#[test]
fn draws_are_distinct_and_cover_the_programs() {
    let d = draws(3, 2_000, 10);
    let unique: std::collections::HashSet<_> = d.iter().collect();
    assert_eq!(unique.len(), d.len());
    for p in 0..10 {
        assert!(d.iter().any(|x| x.program == p), "program {p} never drawn");
    }
}

#[test]
fn every_round_of_draws_holds_each_program_once() {
    let d = draws(5, 1_000, 10);
    for round in d.chunks(10) {
        let mut programs: Vec<usize> = round.iter().map(|x| x.program).collect();
        programs.sort_unstable();
        assert_eq!(programs, (0..10).collect::<Vec<_>>());
    }
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    let outcome = Outcome::new(Default::default(), Metrics::default());
    for (key, list, trace) in [
        ("end_to_end", &END_TO_END[..], false),
        ("per_layer", &PER_LAYER[..], true),
    ] {
        let names = listed(&doc, key, "name");
        let units = listed(&doc, key, "unit");
        let ours: Vec<String> = list.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, ours, "{key} names");
        let our_units: Vec<String> = list.iter().map(|(_, u)| u.to_string()).collect();
        assert_eq!(units, our_units, "{key} units");
        let printed: Vec<String> = outcome.printed(trace).names().map(str::to_string).collect();
        assert_eq!(printed, ours, "{key} printed");
    }
    assert_eq!(listed(&doc, "workloads", "name"), WORKLOADS);
}

#[test]
fn names_use_the_allowed_characters() {
    let ok = |name: &str| {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(ok(name), "bad metric name {name}");
    }
    for name in WORKLOADS {
        assert!(ok(name), "bad workload name {name}");
    }
}

#[test]
fn layer_map_covers_every_per_layer_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/layers.json");
    let doc = parse(&std::fs::read_to_string(path).expect("read layers.json")).expect("valid JSON");
    let mapped = listed(&doc, "layers", "metric");
    let ours: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(mapped, ours);
    let end_to_end: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    for layer in doc.get("layers").and_then(Json::as_arr).unwrap() {
        for m in layer.get("moves").and_then(Json::as_arr).unwrap() {
            assert!(end_to_end.contains(&m.get("metric").and_then(Json::as_str).unwrap()));
            assert!(WORKLOADS.contains(&m.get("workload").and_then(Json::as_str).unwrap()));
        }
    }
}

#[test]
fn options_parse_the_command_line() {
    let args = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let o = Options::parse(&args(
        "--workload serve_cold --seed 4 --seconds 20 --trace 1",
    ))
    .unwrap();
    assert_eq!(
        (o.workload.as_str(), o.seed, o.seconds, o.trace),
        ("serve_cold", 4, 20, true)
    );
    assert!(Options::parse(&args("--workload nope --seed 4 --seconds 20 --trace 1")).is_err());
    assert!(Options::parse(&args("--workload repro_all --seed 4 --seconds 0 --trace 0")).is_err());
    assert!(Options::parse(&args("--workload repro_all --seed 4 --seconds 20")).is_err());
}
