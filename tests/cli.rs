//! End-to-end tests of the `dvbp` command-line binary.

use std::path::{Path, PathBuf};
use std::process::Command;

fn dvbp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dvbp"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dvbp_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn gen_run_bounds_compare_pipeline() {
    let trace = temp_path("pipeline.json");
    let report = temp_path("report.json");

    let out = dvbp()
        .args([
            "gen", "--d", "2", "--n", "40", "--mu", "10", "--span", "80", "--seed", "5", "--out",
        ])
        .arg(&trace)
        .output()
        .expect("spawn dvbp gen");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace.exists());

    let out = dvbp()
        .args(["run", "--trace"])
        .arg(&trace)
        .args(["--policy", "MoveToFront", "--billing", "60", "--out"])
        .arg(&report)
        .output()
        .expect("spawn dvbp run");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("MoveToFront:"), "{stdout}");
    assert!(stdout.contains("ratio"), "{stdout}");

    // The report is valid JSON with consistent fields.
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert_eq!(json["policy"], "MoveToFront");
    assert_eq!(json["assignment"].as_array().unwrap().len(), 40);
    assert!(json["cost"].as_u64().unwrap() >= json["lower_bound"].as_u64().unwrap());
    assert!(json["billed_cost"].as_u64().unwrap().is_multiple_of(60));

    let out = dvbp()
        .args(["bounds", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn dvbp bounds");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Lemma 1(i)"), "{stdout}");
    assert!(stdout.contains("OPT (repacking) within"), "{stdout}");

    let out = dvbp()
        .args(["compare", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn dvbp compare");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["MoveToFront", "FirstFit", "NextFit", "WorstFit"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn run_accepts_bracketed_policy_names() {
    let trace = temp_path("bracketed.json");
    assert!(dvbp()
        .args(["gen", "--n", "20", "--mu", "5", "--span", "40", "--out"])
        .arg(&trace)
        .status()
        .unwrap()
        .success());
    let out = dvbp()
        .args(["run", "--trace"])
        .arg(&trace)
        .args(["--policy", "BestFit[L2]"])
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("BestFit[L2]"));
}

#[test]
fn unknown_policy_fails_cleanly() {
    let trace = temp_path("badpolicy.json");
    assert!(dvbp()
        .args(["gen", "--n", "5", "--mu", "2", "--span", "10", "--out"])
        .arg(&trace)
        .status()
        .unwrap()
        .success());
    let out = dvbp()
        .args(["run", "--trace"])
        .arg(&trace)
        .args(["--policy", "MagicFit"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
}

#[test]
fn missing_flags_fail_cleanly() {
    let out = dvbp().args(["run"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace"));

    let out = dvbp().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = dvbp().arg("--help").output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

#[test]
fn import_and_show_pipeline() {
    let csv = temp_path("jobs.csv");
    let trace = temp_path("imported.json");
    std::fs::write(
        &csv,
        "arrival,departure,cpu,mem\n0,40,30,10\n5,20,60,80\n10,90,20,20\n",
    )
    .unwrap();

    let out = dvbp()
        .args(["import", "--csv"])
        .arg(&csv)
        .args(["--cap", "100,100", "--out"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("imported 3 items"));

    let out = dvbp()
        .args(["show", "--trace"])
        .arg(&trace)
        .args(["--policy", "MoveToFront", "--width", "40"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("B0"), "{stdout}");
    assert!(stdout.contains("utilization"), "{stdout}");
    assert!(stdout.contains("alignment"), "{stdout}");
}

#[test]
fn import_rejects_malformed_csv() {
    let csv = temp_path("bad.csv");
    let trace = temp_path("never.json");
    std::fs::write(&csv, "0,40,300\n").unwrap(); // size 300 > cap 100
    let out = dvbp()
        .args(["import", "--csv"])
        .arg(&csv)
        .args(["--cap", "100", "--out"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exceeds the capacity"), "{stderr}");
    assert!(stderr.contains("line 1"), "{stderr}");
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/traces/tests/fixtures")
        .join(name)
}

/// `dvbp run --stream` under a 256 MiB peak-RSS ceiling; returns the
/// `--out` report.
fn stream(file: &Path, format: &str, args: &[&str], out: &str) -> serde_json::Value {
    let report = temp_path(out);
    let run = dvbp()
        .args(["run", "--stream"])
        .arg(file)
        .args(["--format", format, "--max-rss-kb", "262144", "--out"])
        .arg(&report)
        .args(args)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}: {}",
        file.display(),
        String::from_utf8_lossy(&run.stderr)
    );
    serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap()
}

#[test]
fn every_committed_fixture_streams_under_the_memory_ceiling() {
    // Clean fixtures survive --dirty reject; dirty ones are repaired
    // under --dirty clamp, with the repairs in the report.
    for (name, format, dirty, cap) in [
        ("azure_subset.csv", "azure", "reject", None),
        ("azure_dirty.csv", "azure", "clamp", None),
        ("google_subset.csv", "google", "reject", None),
        ("google_dirty.csv", "google", "clamp", None),
        ("native_subset.csv", "csv", "reject", Some("100,100")),
    ] {
        let mut args = vec!["--policy", "FirstFit", "--dirty", dirty];
        if let Some(cap) = cap {
            args.extend(["--cap", cap]);
        }
        let r = stream(&fixture(name), format, &args, &format!("{name}.json"));
        let ingest = &r["ingest"];
        assert!(ingest["items"].as_u64().unwrap() > 0, "{name}: no items");
        assert!(r["bins"].as_u64().unwrap() > 0, "{name}: no bins");
        let (cost, lb) = (
            r["cost"].as_u64().unwrap(),
            r["lower_bound"].as_u64().unwrap(),
        );
        assert!(
            cost >= lb && lb > 0,
            "{name}: cost {cost}, lower bound {lb}"
        );
        if dirty == "clamp" {
            let repaired: u64 = [
                "clamped_durations",
                "clamped_times",
                "clamped_sizes",
                "dropped_duplicates",
            ]
            .iter()
            .map(|k| ingest[*k].as_u64().unwrap())
            .sum();
            assert!(repaired > 0, "{name}: clamp repaired nothing");
        }
    }
}

#[test]
fn import_and_stream_agree_on_native_csv() {
    let csv = fixture("native_subset.csv");
    let trace = temp_path("native_subset_imported.json");
    let out = dvbp()
        .args(["import", "--csv"])
        .arg(&csv)
        .args(["--cap", "100,100", "--out"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("imported 10 items"));
    for policy in ["MoveToFront", "FirstFit", "BestFit[Linf]"] {
        let report = temp_path("native_subset_report.json");
        let out = dvbp()
            .args(["run", "--trace"])
            .arg(&trace)
            .args(["--policy", policy, "--out"])
            .arg(&report)
            .output()
            .unwrap();
        assert!(out.status.success());
        let batch: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
        let streamed = stream(
            &csv,
            "csv",
            &["--policy", policy, "--cap", "100,100"],
            "native_subset_stream.json",
        );
        for key in ["cost", "bins"] {
            assert_eq!(batch[key], streamed[key], "{policy}: {key}");
        }
    }

    // Rows out of arrival order: both commands refuse the file at the
    // same line.
    let unsorted = temp_path("unsorted.csv");
    std::fs::write(&unsorted, "0,10,4\n5,9,4\n2,9,4\n").unwrap();
    let import = dvbp()
        .args(["import", "--csv"])
        .arg(&unsorted)
        .args(["--cap", "10", "--out"])
        .arg(temp_path("unsorted.json"))
        .output()
        .unwrap();
    let run = dvbp()
        .args(["run", "--stream"])
        .arg(&unsorted)
        .args(["--format", "csv", "--cap", "10", "--policy", "FirstFit"])
        .output()
        .unwrap();
    for out in [import, run] {
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("line 3: rows must be sorted"), "{stderr}");
    }
}

#[test]
fn stream_run_rejects_a_zero_capacity_component() {
    let out = dvbp()
        .args(["run", "--stream"])
        .arg(fixture("native_subset.csv"))
        .args(["--format", "csv", "--cap", "0,5", "--policy", "FirstFit"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--cap 0,5: need positive units per dimension"),
        "{stderr}"
    );
}

#[test]
fn lower_bounds_sum_concurrent_sizes_past_u64() {
    // Capacity u64::MAX and two concurrent items of sizes u64::MAX and 1,
    // each staying two ticks: Lemma 1(i) forces two bins for two ticks,
    // though the two sizes together do not fit a u64.
    let csv = temp_path("huge_units.csv");
    std::fs::write(&csv, "0,2,18446744073709551615\n0,2,1\n").unwrap();
    let cap = u64::MAX.to_string();
    let streamed = stream(
        &csv,
        "csv",
        &["--policy", "FirstFit", "--cap", &cap],
        "huge_units_stream.json",
    );
    assert_eq!(streamed["lower_bound"].as_u64(), Some(4));
    assert_eq!(streamed["cost"].as_u64(), Some(4));

    let trace = temp_path("huge_units.json");
    let import = dvbp()
        .args(["import", "--csv"])
        .arg(&csv)
        .args(["--cap", &cap, "--out"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(import.status.success());
    let report = temp_path("huge_units_report.json");
    let run = dvbp()
        .args(["run", "--trace"])
        .arg(&trace)
        .args(["--policy", "FirstFit", "--out"])
        .arg(&report)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let batch: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert_eq!(batch["lower_bound"].as_u64(), Some(4));
    for command in ["bounds", "compare"] {
        let out = dvbp()
            .args([command, "--trace"])
            .arg(&trace)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{command}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
