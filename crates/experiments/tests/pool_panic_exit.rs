//! End-to-end tests of how `tables` fails on a bad events file: an event
//! that passes build-time validation but panics at run time (restoring a
//! link that was never degraded) must make it exit non-zero, name the
//! failed scenario and the cause on stderr, and leave no manifest behind;
//! an event naming a link the tree does not have must stop it before any
//! run starts.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `tables` at 60 s with `events` as its `RLA_EVENTS_FILE`, in a
/// scratch dir named after `test`. Returns the output and the results dir.
fn tables_with_events(test: &str, events: &str) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("rla_{test}_{}", std::process::id()));
    let results = dir.join("results");
    std::fs::create_dir_all(&results).expect("create scratch dir");
    let events_file = dir.join("events.json");
    std::fs::write(&events_file, events).expect("write the events file");
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .env("RLA_DURATION_SECS", "60")
        .env("RLA_JOBS", "2")
        .env("RLA_RESULTS_DIR", &results)
        .env("RLA_EVENTS_FILE", &events_file)
        .output()
        .expect("run tables");
    (out, dir)
}

fn assert_stderr_has(out: &Output, needles: &[&str]) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "tables exited 0; stderr:\n{stderr}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "no {needle:?} in stderr:\n{stderr}"
        );
    }
}

#[test]
fn a_panicking_pool_scenario_fails_the_binary_without_a_manifest() {
    let (out, dir) = tables_with_events(
        "pool_panic_exit",
        r#"[{"t_secs": 30.0, "command": "link_restore", "link": "L2.1"}]"#,
    );
    assert_stderr_has(
        &out,
        &[
            "scenarios panicked",
            "is not degraded",
            "scenario 0 (L1 DropTail seed 1)",
        ],
    );
    assert!(
        !dir.join("results/tables.manifest.json").exists(),
        "a failed sweep wrote its manifest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_unknown_link_label_stops_tables_before_any_run() {
    let (out, dir) = tables_with_events(
        "unknown_link_exit",
        r#"[{"t_secs": 30.0, "command": "link_degrade", "link": "L2.4", "loss": 0.1}]"#,
    );
    assert_stderr_has(&out, &["scenario event at 30s names unknown link \"L2.4\""]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("runs,"),
        "tables started its runs:\n{stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
