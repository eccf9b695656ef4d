//! Crash recovery of the real `dvbp-serve` binary, in three service
//! configurations: plain, `--repack drain:2`, and a `switch:2`
//! portfolio. Each run boots the binary on an ephemeral port with a
//! fresh `--wal` directory, drives the committed zipf corpus trace with
//! a 20 ms throttle, SIGKILLs the process once `/status` shows the
//! configuration's first departure, migration or policy switch, reboots
//! on the same WAL (which must log its recovery),
//! re-drives the whole trace (the client resumes idempotently), and
//! requires the final `/status` to match an uninterrupted reference
//! run — totals, per-shard slices, migrations and the switch history.

use dvbp_obs::expo::{http_get, http_post};
use dvbp_serve::{client, Client, ServeStatus};
use serde_json::Value;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Top-level `/status` keys that must survive the crash unchanged.
const KEYS: [&str; 15] = [
    "policy",
    "meta",
    "repack",
    "router",
    "shards",
    "arrivals",
    "departures",
    "active_items",
    "open_bins",
    "bins_opened",
    "migrations",
    "migration_cost",
    "usage_time",
    "last_time",
    "policy_switches",
];

/// Per-shard keys that must survive the crash unchanged (the portfolio
/// run's full `PolicySwitch` history included).
const SHARD_KEYS: [&str; 8] = [
    "arrivals",
    "departures",
    "migrations",
    "migration_cost",
    "usage_time",
    "policy",
    "policy_switches",
    "switch_history",
];

/// A running service process.
struct Service {
    child: Child,
    /// Held open so the service's final log line has a reader.
    stdout: BufReader<ChildStdout>,
    addr: String,
    /// Everything the service printed up to and including its banner.
    boot_log: Vec<String>,
}

impl Service {
    /// Boots a two-shard service over the corpus trace's capacity and
    /// reads its address from the banner (printed once the listener is
    /// bound, after any WAL recovery).
    fn boot(flags: &[&str], wal: &Path) -> Service {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dvbp-serve"))
            .args(["serve", "--addr", "127.0.0.1:0", "--cap", "10,10"])
            .args(["--shards", "2", "--wal"])
            .arg(wal)
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn dvbp-serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut boot_log = Vec::new();
        let addr = loop {
            let mut line = String::new();
            let n = stdout.read_line(&mut line).expect("read boot log");
            assert!(n > 0, "dvbp-serve exited before its banner: {boot_log:?}");
            boot_log.push(line.trim_end().to_string());
            if line.contains("recovered event(s)") {
                let after = line
                    .rsplit(" on ")
                    .next()
                    .expect("banner names its address");
                break after.split(',').next().expect("address field").to_string();
            }
        };
        Service {
            child,
            stdout,
            addr,
            boot_log,
        }
    }

    fn status(&self) -> String {
        http_get(&self.addr, "/status").expect("GET /status")
    }

    /// Drives the whole trace; every operation must be acknowledged or
    /// (on a resume) skipped as already known.
    fn drive(&self, instance: &dvbp_core::Instance) {
        let mut client = Client::connect(&self.addr).expect("connect");
        let report = client.drive_instance(instance, None).expect("drive");
        assert_eq!(report.errors, 0, "{report:?}");
    }

    /// `/status`, then a graceful `POST /shutdown`; the process must
    /// exit cleanly.
    fn finish(mut self) -> String {
        let status = self.status();
        http_post(&self.addr, "/shutdown").expect("POST /shutdown");
        let exit = self.child.wait().expect("wait for dvbp-serve");
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest).unwrap_or(0) > 0 {}
        assert!(exit.success(), "dvbp-serve exited with {exit}: {rest}");
        status
    }
}

impl Drop for Service {
    /// `Child::kill` is SIGKILL on Unix: a crash, not a shutdown. Also
    /// keeps a failing test from leaking the process.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn parse(status: &str) -> ServeStatus {
    serde_json::from_str(status).expect("/status parses")
}

fn corpus_trace() -> dvbp_core::Instance {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus/zipf-bursty.json");
    client::load_instance(&path).expect("corpus trace loads")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dvbp-serve-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the reference and the crash/recover/resume passes for one
/// configuration, killing the crash run once `progress` holds, and
/// returns the reference's final status after checking every key of
/// [`KEYS`] and [`SHARD_KEYS`] matches.
fn crash_and_recover(tag: &str, flags: &[&str], progress: fn(&ServeStatus) -> bool) -> ServeStatus {
    let instance = corpus_trace();
    let dir = temp_dir(tag);

    let reference = Service::boot(flags, &dir.join("ref"));
    reference.drive(&instance);
    let reference = reference.finish();

    // Crash run: SIGKILL the service mid-drive, once the WAL holds the
    // state the configuration is about.
    let wal = dir.join("crash");
    let service = Service::boot(flags, &wal);
    let drive_thread = {
        let addr = service.addr.clone();
        let instance = instance.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&addr)?;
            client.drive_instance(&instance, Some(Duration::from_millis(20)))
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while !progress(&parse(&service.status())) {
        assert!(
            Instant::now() < deadline,
            "{tag}: the drive made no progress"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(service); // SIGKILL
    let drive = drive_thread.join().expect("drive thread");
    assert!(
        drive.is_err(),
        "{tag}: the drive finished before the kill: {drive:?}"
    );

    // Reboot on the surviving WAL and resume the same trace.
    let service = Service::boot(flags, &wal);
    assert!(
        service
            .boot_log
            .iter()
            .any(|l| l.contains("shard 0: recovered")),
        "{tag}: reboot did not log its WAL recovery: {:?}",
        service.boot_log
    );
    service.drive(&instance);
    let recovered = service.finish();
    let _ = std::fs::remove_dir_all(&dir);

    let want: Value = serde_json::from_str(&reference).expect("/status parses");
    let got: Value = serde_json::from_str(&recovered).expect("/status parses");
    let (reference, recovered) = (parse(&reference), parse(&recovered));
    let diverged = |keys: &[&str], want: &Value, got: &Value| -> Vec<String> {
        keys.iter()
            .filter(|k| want[**k] != got[**k])
            .map(|k| format!("{k}: {:?} vs {:?}", want[*k], got[*k]))
            .collect()
    };
    let diff = diverged(&KEYS, &want, &got);
    assert!(diff.is_empty(), "{tag}: totals diverge: {diff:?}");
    assert_eq!(reference.per_shard.len(), recovered.per_shard.len());
    for (i, (w, g)) in want["per_shard"]
        .as_array()
        .unwrap()
        .iter()
        .zip(got["per_shard"].as_array().unwrap())
        .enumerate()
    {
        let diff = diverged(&SHARD_KEYS, w, g);
        assert!(diff.is_empty(), "{tag}: shard {i} diverges: {diff:?}");
    }
    assert!(
        recovered.recovered_events > 0,
        "{tag}: reboot recovered zero events"
    );
    reference
}

#[test]
fn plain_service_recovers_to_the_reference() {
    crash_and_recover("plain", &[], |s| s.departures > 0);
}

#[test]
fn repacking_service_recovers_its_migrations() {
    let flags = ["--repack", "drain:2"];
    let reference = crash_and_recover("repack", &flags, |s| s.migrations > 0);
    assert!(reference.migrations > 0, "drain:2 never migrated");
}

#[test]
fn portfolio_service_recovers_its_switch_history() {
    let flags = [
        "--policy",
        "NextFit",
        "--portfolio",
        "NextFit,FirstFit,BestFit[Linf]",
        "--meta",
        "switch:2",
    ];
    let reference = crash_and_recover("portfolio", &flags, |s| s.policy_switches > 0);
    assert!(reference.policy_switches > 0, "switch:2 never switched");
}
