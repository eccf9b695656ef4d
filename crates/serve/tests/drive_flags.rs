//! `dvbp-serve drive` reads its flags and opens its trace before it
//! connects: a bad `--cap` is reported as such even with no server
//! listening at `--addr`.

use std::net::TcpListener;
use std::path::Path;
use std::process::Command;

#[test]
fn drive_rejects_a_zero_capacity_component_before_connecting() {
    // A port nothing listens on: bound once, then released.
    let addr = TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .expect("bind an ephemeral port")
        .to_string();
    let trace =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../traces/tests/fixtures/native_subset.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_dvbp-serve"))
        .args(["drive", "--addr", &addr, "--stream"])
        .arg(&trace)
        .args(["--format", "csv", "--cap", "0,5"])
        .output()
        .expect("spawn dvbp-serve");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--cap 0,5: need positive units per dimension"),
        "{stderr}"
    );
    assert!(!stderr.contains("connecting"), "{stderr}");
}
