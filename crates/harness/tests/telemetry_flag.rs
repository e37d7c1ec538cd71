//! Pins `repro --telemetry PATH`: the invocation's cell schedule, recorded
//! by the batch engine's flight recorder, lands at PATH as a Chrome
//! `trace_event` file with one slice per cell and nothing left unfinished.

use std::process::Command;

/// Runs `repro <args> --threads 2 --telemetry <file>` in a scratch output
/// directory and returns the file.
fn schedule(tag: &str, args: &[&str]) -> String {
    let dir = std::env::temp_dir().join(format!("giantsan-telemetry-{tag}-{}", std::process::id()));
    let path = dir.join("schedule.json");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .args(["--threads", "2", "--out-dir", dir.to_str().unwrap()])
        .args(["--telemetry", path.to_str().unwrap()])
        .output()
        .expect("spawn repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("--telemetry wrote its file");
    let _ = std::fs::remove_dir_all(&dir);
    text
}

#[test]
fn telemetry_writes_one_slice_per_cell() {
    // The trace study runs 5 cells: the planner plus 4 executed cells.
    let chrome = schedule("trace", &["trace", "--workload", "figure8"]);
    let doc = giantsan_harness::json::Json::parse(&chrome).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let mut names: Vec<&str> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .map(|e| e.get("name").and_then(|n| n.as_str()).expect("slice name"))
        .collect();
    names.sort_unstable();
    assert_eq!(names, ["cell 0", "cell 1", "cell 2", "cell 3", "cell 4"]);
    assert!(!chrome.contains("(unfinished)"), "{chrome}");
    assert!(chrome.contains("repro trace [kernel="), "{chrome}");
    for e in events {
        for key in ["ph", "ts", "pid"] {
            assert!(e.get(key).is_some(), "event missing {key}: {e:?}");
        }
    }
}

#[test]
fn telemetry_rings_hold_every_cell_of_the_invocation() {
    // The fault campaign runs 1050 cells, 2100 events across two workers:
    // default 1024-slot rings would overwrite the oldest, so every slice
    // surviving shows the rings were sized from the cell count.
    let chrome = schedule("faults", &["faults"]);
    let mut cells: Vec<&str> = chrome
        .split("\"ph\":\"X\"")
        .skip(1)
        .map(|e| {
            e.split("\"name\":\"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap()
        })
        .collect();
    assert_eq!(cells.len(), 1050);
    cells.sort_unstable();
    cells.dedup();
    assert_eq!(cells.len(), 1050, "one slice per distinct cell");
    assert!(!chrome.contains("(unfinished)"));
}
