//! Regression test: one request line of deeply nested brackets must be
//! refused, not crash the service. The parser used to recurse once per
//! nesting level with no limit, so a 30,000-byte line of `[` overflowed
//! the connection thread's stack and aborted the whole process: no
//! reply, and the next connect was refused. It now refuses nesting
//! deeper than 128 levels with `bad-request` and keeps serving.
//!
//! The test boots the real `dvbp-serve` binary on an ephemeral port, as
//! `crash_recovery.rs` does, since an abort would take an in-process
//! server down with the test harness.

use dvbp_obs::expo::http_post;
use dvbp_serve::protocol::error_code;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

/// The running service, with its stdout held open so its last log
/// lines have a reader; killed on drop so a failing test leaks nothing.
struct Service(Child, BufReader<ChildStdout>);

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Boots an in-memory service and returns it with its address, read
/// from the banner printed once the listener is bound.
fn boot() -> (Service, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_dvbp-serve"))
        .args(["serve", "--addr", "127.0.0.1:0", "--cap", "10,10"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn dvbp-serve");
    let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut service = Service(child, stdout);
    let mut line = String::new();
    loop {
        line.clear();
        let n = service.1.read_line(&mut line).expect("read boot log");
        assert!(n > 0, "dvbp-serve exited before its banner");
        if line.contains("recovered event(s)") {
            break;
        }
    }
    let addr = line
        .rsplit(" on ")
        .next()
        .and_then(|rest| rest.split(',').next())
        .expect("banner names its address")
        .to_string();
    (service, addr)
}

/// Sends one request line on a fresh connection and returns the reply
/// line ("" when the connection closed without one).
fn call(addr: &str, request: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reply = String::new();
    let _ = BufReader::new(stream).read_line(&mut reply);
    reply
}

#[test]
fn a_deeply_nested_line_is_refused_and_the_service_keeps_serving() {
    let (service, addr) = boot();
    let bad_request = format!("\"{}\"", error_code::BAD_REQUEST);
    let reply = call(&addr, &"[".repeat(30_000));
    assert!(
        reply.contains(&bad_request),
        "expected a bad-request reply, got {reply:?}"
    );
    // The same brackets as the value of an unknown key, which the
    // parser reads past rather than refusing at its first byte.
    let line = format!(
        r#"{{"Arrive":{{"id":"a","size":[1,1],"time":0,"x":{}"#,
        "[".repeat(30_000)
    );
    let reply = call(&addr, &line);
    assert!(
        reply.contains(&bad_request) && reply.contains("nesting deeper than 128"),
        "expected a bad-request reply naming the limit, got {reply:?}"
    );
    let status = call(&addr, "\"Query\"");
    assert!(status.starts_with("{\"Status\":"), "{status:?}");
    http_post(&addr, "/shutdown").expect("POST /shutdown");
    let mut service = service;
    let exit = service.0.wait().expect("wait for dvbp-serve");
    assert!(exit.success(), "dvbp-serve exited with {exit}");
}
