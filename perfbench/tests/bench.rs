//! The benchmark's own checks, at small scale: the correctness check
//! catches a bad reference, bypassed layers read zero, and the metric
//! names match `BENCHMARK.json`.

use emlio_util::json::Json;
use perfbench::workload::{Scale, Workload};
use perfbench::{run, Report, RunOptions, END_TO_END, PER_LAYER};
use std::path::PathBuf;

/// Each test passes its own `test` tag: tests run in parallel, and each
/// needs its own dataset and spill directories.
fn small_run(test: &str, workload: Workload, trace: bool, corrupt_reference: bool) -> Report {
    let data_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("perfbench-{test}-{}-{trace}", workload.name()));
    run(&RunOptions {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        data_dir,
        scale: Scale::Small,
        corrupt_reference,
    })
    .expect("small run completes")
}

fn names(report: &Report) -> Vec<&str> {
    report.metrics.iter().map(|m| m.0).collect()
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .get(name)
        .unwrap_or_else(|| panic!("{name} is reported"))
}

#[test]
fn corrupted_reference_fails_the_run() {
    let clean = small_run("corrupt", Workload::SmallRecords, false, false);
    assert_eq!(clean.failed, 0);
    assert_eq!(value(&clean, "batch_ok_ratio"), 1.0);
    assert!(clean.to_json().starts_with("{\"correct\": true,"));

    let corrupt = small_run("corrupt-ref", Workload::SmallRecords, false, true);
    assert!(corrupt.failed > 0, "a wrong digest must fail its batches");
    assert!(value(&corrupt, "batch_ok_ratio") < 1.0);
    assert!(corrupt.to_json().starts_with("{\"correct\": false,"));
}

#[test]
fn bypassed_layers_read_zero() {
    for workload in Workload::ALL {
        let r = small_run("bypass", workload, true, false);
        assert_eq!(r.failed, 0, "{}", workload.name());
        let zero = |prefix: &str| {
            r.metrics
                .iter()
                .filter(|m| m.0.starts_with(prefix))
                .all(|m| m.2 == 0.0)
        };
        let local = matches!(workload, Workload::WanImagenet | Workload::SmallRecords);
        assert_eq!(zero("cache."), local, "cache.* on {}", workload.name());
        assert_eq!(zero("nfs."), local, "nfs.* on {}", workload.name());
        let fleet = workload == Workload::FleetNfs;
        assert_eq!(zero("peer."), !fleet, "peer.* on {}", workload.name());
        let wan = workload == Workload::WanImagenet;
        assert_eq!(
            value(&r, "link.relayed_mib") == 0.0,
            !wan,
            "{}",
            workload.name()
        );
        assert!(value(&r, "storage.reads") > 0.0, "{}", workload.name());
        if fleet && value(&r, "peer.fallbacks") == 0.0 {
            assert_eq!(value(&r, "fleet.storage_per_dataset"), 1.0);
        }
    }
}

#[test]
fn reported_metrics_match_benchmark_json() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json")).expect("json");
    let listed = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), own(&END_TO_END));
    assert_eq!(listed("per_layer"), own(&PER_LAYER));
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let untraced = small_run("names", Workload::WanImagenet, false, false);
    let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names(&untraced), e2e);
    let traced = small_run("names", Workload::WanImagenet, true, false);
    let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names(&traced), layers);
}
