//! Tests of the benchmark itself, at tiny problem sizes: every workload
//! reports every metric with its unit, the names agree with
//! `BENCHMARK.json`, the traced ledger's digests match the untraced
//! runs, and the checks count an injected wrong answer or a dropped
//! query as failed.

use perfbench::{end_to_end, ledger, Inject, Params, Size, END_TO_END, PER_LAYER, WORKLOADS};
use std::sync::Mutex;

/// Tracing is switched per process, so the tests take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn tiny(inject: Option<Inject>) -> Params {
    Params {
        seed: 7,
        size: Size::Tiny,
        inject,
    }
}

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`, which
/// holds one metric object per line.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |line: &str, key: &str| {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        let end = line[at..].find('"')?;
        Some(line[at..at + end].to_string())
    };
    body.lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, "unit")?)))
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_the_metrics_the_runs_print() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for w in WORKLOADS {
        let o = end_to_end(w, &tiny(None), 0.05);
        perfbench::check_names(&o.metrics, END_TO_END).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(o.tally.attempted > 0, "{w}: nothing checked");
        assert_eq!(o.tally.failed, 0, "{w}: {:?}", o.notes);
        for m in &o.metrics {
            assert!(m.value > 0.0, "{w}: {} is {}", m.name, m.value);
        }
    }
}

#[test]
fn ledger_reports_every_layer_metric_with_matching_digests() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let o = ledger(&tiny(None), 0.2);
    perfbench::check_names(&o.metrics, PER_LAYER).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(o.tally.failed, 0, "{:?}", o.notes);
    assert_eq!(o.spans.len(), WORKLOADS.len());
    assert!(o.spans.iter().all(|(_, s)| !s.is_empty()));
    let line = perfbench::result_json(&o);
    for (name, unit) in PER_LAYER {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
}

#[test]
fn an_injected_wrong_answer_raises_failed_frac() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let o = end_to_end("query_service16", &tiny(Some(Inject::WrongAnswer)), 0.05);
    assert!(o.tally.failed > 0, "{:?}", o.tally);
    assert!(o.tally.failed_frac() > 0.0);
    assert!(perfbench::result_json(&o).starts_with("{\"correct\": false"));
}

#[test]
fn a_dropped_query_raises_failed_frac() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let o = end_to_end("query_service16", &tiny(Some(Inject::DropQuery)), 0.05);
    assert!(o.tally.failed > 0, "{:?}", o.tally);
    assert!(o.tally.failed_frac() > 0.0);
}
