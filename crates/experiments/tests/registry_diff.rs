//! End-to-end test of the `rla_diff` binary against the committed golden
//! manifests: a copy with exactly one perturbed metric must be flagged as
//! drift naming exactly that key, identical manifests must exit 0, and
//! usage errors must exit 2.

use std::path::{Path, PathBuf};
use std::process::Command;

use experiments::manifest::Json;

fn golden() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results/golden/case5_droptail_60s.manifest.json")
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rla_diff_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn rla_diff(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rla_diff"))
        .args(args)
        .output()
        .expect("run rla_diff")
}

/// Double `key` in the first run's registry, returning the old value.
fn perturb(manifest: &mut Json, key: &str) -> f64 {
    let Json::Obj(fields) = manifest else {
        panic!("manifest is not an object")
    };
    let runs = &mut fields
        .iter_mut()
        .find(|(k, _)| k == "runs")
        .expect("runs field")
        .1;
    let Json::Arr(runs) = runs else {
        panic!("runs is not an array")
    };
    let Json::Obj(run) = &mut runs[0] else {
        panic!("run is not an object")
    };
    let registry = &mut run
        .iter_mut()
        .find(|(k, _)| k == "registry")
        .expect("registry field")
        .1;
    let Json::Obj(entries) = registry else {
        panic!("registry is not an object")
    };
    let value = &mut entries
        .iter_mut()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no {key} in golden registry"))
        .1;
    match value {
        Json::Int(v) => {
            let old = *v;
            *v *= 2;
            old as f64
        }
        Json::Num(v) => {
            let old = *v;
            *v *= 2.0;
            old
        }
        other => panic!("{key} is not numeric: {other:?}"),
    }
}

#[test]
fn identical_manifests_exit_zero() {
    let golden = golden();
    let golden = golden.to_str().expect("utf-8 path");
    let out = rla_diff(&[golden, golden]);
    assert!(
        out.status.success(),
        "self-diff should exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("registries match"), "{stdout}");
}

#[test]
fn a_perturbed_metric_is_flagged_by_name() {
    let text = std::fs::read_to_string(golden()).expect("read golden");
    let mut manifest = Json::parse(&text).expect("parse golden");
    let old = perturb(&mut manifest, "net.offered");
    assert!(old > 0.0, "net.offered should be a busy counter");
    let perturbed = scratch_dir().join("perturbed.manifest.json");
    std::fs::write(&perturbed, manifest.pretty()).expect("write perturbed copy");

    let golden = golden();
    let out = rla_diff(&[
        golden.to_str().unwrap(),
        perturbed.to_str().unwrap(),
        "--json",
    ]);
    assert_eq!(out.status.code(), Some(1), "doubling a counter is drift");

    let report = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("parse --json output");
    assert_eq!(report.get("drift"), Some(&Json::Bool(true)));
    let runs = report.get("runs").and_then(Json::as_arr).expect("runs");
    assert_eq!(runs.len(), 1);
    let drifted = runs[0]
        .get("drifted")
        .and_then(Json::as_arr)
        .expect("drifted");
    assert_eq!(drifted.len(), 1, "exactly the perturbed key must drift");
    assert_eq!(
        drifted[0].get("key").and_then(Json::as_str),
        Some("net.offered")
    );
    assert_eq!(
        drifted[0].get("rel_pct").and_then(Json::as_f64),
        Some(100.0)
    );
    assert_eq!(
        runs[0]
            .get("added")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0)
    );
    assert_eq!(
        runs[0]
            .get("removed")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0)
    );

    // The human table names the key too, and still exits 1.
    let out = rla_diff(&[golden.to_str().unwrap(), perturbed.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("net.offered"), "{table}");
    assert!(table.contains("+100.00%"), "{table}");

    std::fs::remove_file(&perturbed).ok();
}

#[test]
fn a_generous_threshold_silences_the_drift() {
    let text = std::fs::read_to_string(golden()).expect("read golden");
    let mut manifest = Json::parse(&text).expect("parse golden");
    perturb(&mut manifest, "net.offered");
    let perturbed = scratch_dir().join("perturbed_threshold.manifest.json");
    std::fs::write(&perturbed, manifest.pretty()).expect("write perturbed copy");

    let golden = golden();
    let out = rla_diff(&[
        golden.to_str().unwrap(),
        perturbed.to_str().unwrap(),
        "--threshold",
        "150",
    ]);
    assert!(
        out.status.success(),
        "+100% is under a 150% threshold: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    std::fs::remove_file(&perturbed).ok();
}

#[test]
fn usage_and_parse_errors_exit_two() {
    let out = rla_diff(&[]);
    assert_eq!(out.status.code(), Some(2), "no paths is a usage error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let golden = golden();
    let out = rla_diff(&[golden.to_str().unwrap(), "/nonexistent/manifest.json"]);
    assert_eq!(out.status.code(), Some(2), "missing file is an error");

    let garbage = scratch_dir().join("garbage.manifest.json");
    std::fs::write(&garbage, "not json {").expect("write garbage");
    let out = rla_diff(&[golden.to_str().unwrap(), garbage.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "parse error is an error");
    std::fs::remove_file(&garbage).ok();

    let out = rla_diff(&[
        golden.to_str().unwrap(),
        golden.to_str().unwrap(),
        "--frobnicate",
    ]);
    assert_eq!(out.status.code(), Some(2), "unknown flag is a usage error");
}
