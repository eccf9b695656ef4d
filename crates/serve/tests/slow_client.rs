//! Regression tests for the slow-client guard: a connection that sends a
//! *partial* request line and then stalls used to pin its handler
//! thread forever (`read_line` blocks until the newline arrives). With
//! the read timeout, the stalled client receives a typed `timeout`
//! protocol error and is disconnected — while an idle-but-healthy
//! keep-alive connection on the same service is unaffected. A client
//! that keeps sending without a newline is cut off at the line cap.

use dvbp_core::{PolicyKind, RepackPolicy, TimeMode, TraceMode};
use dvbp_dimvec::DimVec;
use dvbp_obs::expo::MAX_LINE_BYTES;
use dvbp_obs::SyncPolicy;
use dvbp_serve::protocol::error_code;
use dvbp_serve::router::RouterKind;
use dvbp_serve::server::{serve, ServeState};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn boot(read_timeout_ms: u64) -> (String, Arc<ServeState<Vec<u8>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let state = Arc::new(
        ServeState::in_memory(
            &DimVec::from_slice(&[10, 10]),
            &PolicyKind::FirstFit,
            RepackPolicy::NoRepack,
            1,
            RouterKind::Hash,
            TraceMode::CostOnly,
            TimeMode::Clamp,
            SyncPolicy::PerEvent,
            None,
        )
        .unwrap(),
    );
    state.set_read_timeout_ms(read_timeout_ms);
    {
        let state = Arc::clone(&state);
        std::thread::spawn(move || serve(&state, &listener).unwrap());
    }
    (addr, state)
}

#[test]
fn stalled_partial_line_gets_timeout_error_and_disconnect() {
    let (addr, state) = boot(150);

    // A healthy keep-alive session, opened first: it must keep working
    // across the stalled client's whole lifetime.
    let mut healthy = TcpStream::connect(&addr).unwrap();
    healthy
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut healthy_reader = BufReader::new(healthy.try_clone().unwrap());
    let mut line = String::new();
    writeln!(
        healthy,
        r#"{{"Arrive":{{"id":"vm-0","size":[1,1],"time":0}}}}"#
    )
    .unwrap();
    healthy_reader.read_line(&mut line).unwrap();
    assert!(line.contains("Placed"), "{line}");

    // The stalled client: half a request line, then silence.
    let mut stalled = TcpStream::connect(&addr).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    write!(stalled, r#"{{"Arrive":{{"id":"vm-1","#).unwrap();
    stalled.flush().unwrap();

    // The guard fires after the 150ms read timeout: one typed error
    // line, then EOF.
    let started = Instant::now();
    let mut response = String::new();
    stalled.read_to_string(&mut response).unwrap();
    assert!(
        response.contains(&format!("\"{}\"", error_code::TIMEOUT)),
        "expected a typed timeout error, got {response:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "disconnect took {:?}",
        started.elapsed()
    );

    // An *idle* connection (no partial bytes) is NOT disconnected by
    // the same timeout: the healthy session still answers after the
    // stall window.
    std::thread::sleep(Duration::from_millis(400));
    line.clear();
    writeln!(
        healthy,
        r#"{{"Arrive":{{"id":"vm-2","size":[1,1],"time":1}}}}"#
    )
    .unwrap();
    healthy_reader.read_line(&mut line).unwrap();
    assert!(
        line.contains("Placed"),
        "idle connection was killed: {line}"
    );

    // The stalled request never reached a shard.
    let status = state.status();
    assert_eq!(status.arrivals, 2);
    state.begin_shutdown();
    let _ = TcpStream::connect(&addr);
}

#[test]
fn an_overlong_line_gets_bad_request_before_the_read_timeout() {
    let (addr, state) = boot(10_000);
    let mut client = TcpStream::connect(&addr).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let started = Instant::now();
    client.write_all(&vec![b'a'; MAX_LINE_BYTES + 1]).unwrap();
    // The socket stays open, so only the cap can answer this early.
    // Read until EOF, a reset (the server closes with the rest of the
    // line unread) or the 2 s client timeout.
    let mut answer = Vec::new();
    let mut buf = [0u8; 4096];
    while let Ok(n @ 1..) = client.read(&mut buf) {
        answer.extend_from_slice(&buf[..n]);
    }
    let answer = String::from_utf8_lossy(&answer);
    assert!(
        answer.contains(&format!("\"{}\"", error_code::BAD_REQUEST)),
        "expected a bad-request error, got {answer:?}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "answered after {:?}",
        started.elapsed()
    );
    assert_eq!(state.status().arrivals, 0);
    state.begin_shutdown();
    let _ = TcpStream::connect(&addr);
}
