//! End-to-end test of how a binary fails when a pool scenario panics: an
//! events file that passes build-time validation but panics at run time
//! (restoring a link that was never degraded) must make `tables` exit
//! non-zero, name the failed scenario and the cause on stderr, and leave
//! no manifest behind.

use std::process::Command;

#[test]
fn a_panicking_pool_scenario_fails_the_binary_without_a_manifest() {
    let dir = std::env::temp_dir().join(format!("rla_pool_panic_exit_{}", std::process::id()));
    let results = dir.join("results");
    std::fs::create_dir_all(&results).expect("create scratch dir");
    let events = dir.join("events.json");
    std::fs::write(
        &events,
        r#"[{"t_secs": 30.0, "command": "link_restore", "link": "L2.1"}]"#,
    )
    .expect("write the events file");

    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .env("RLA_DURATION_SECS", "60")
        .env("RLA_JOBS", "2")
        .env("RLA_RESULTS_DIR", &results)
        .env("RLA_EVENTS_FILE", &events)
        .output()
        .expect("run tables");
    let stderr = String::from_utf8_lossy(&out.stderr);

    assert!(!out.status.success(), "tables exited 0; stderr:\n{stderr}");
    for needle in [
        "scenarios panicked",
        "is not degraded",
        "scenario 0 (L1 DropTail seed 1)",
    ] {
        assert!(
            stderr.contains(needle),
            "no {needle:?} in stderr:\n{stderr}"
        );
    }
    assert!(
        !results.join("tables.manifest.json").exists(),
        "a failed sweep wrote its manifest"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
