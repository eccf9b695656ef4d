//! The load generator: one thread per connection, two at most.
//!
//! Open loop: every request has a due time fixed before the step
//! starts; a request goes out when it is due, whatever the server is
//! doing, and its latency runs from the due time to the receipt of its
//! response line. A stalled server therefore cannot slow the offered
//! load, and the wait it causes is counted against every request queued
//! behind it. Responses are read between sends, each wait bounded by
//! the next due time (`ppoll`, nanosecond timeout), so reading never
//! delays a send. The generator's own lateness (send − due) and the
//! backlog of unanswered requests at each send are recorded per step.
//!
//! Closed loop (topping a stream up to a WAL sync batch): the same loop
//! with every request due at once and at most `window` unanswered per
//! connection.

use crate::stats::lateness_ns;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// One NDJSON request and how to recognize its answer.
pub struct Req {
    /// The request line, newline included.
    pub line: String,
    /// The prefix a correct answer starts with: `{"Placed":{"id":"<id>",`
    /// for an arrival, `{"Departed":{"id":"<id>",` for a departure.
    pub expect: String,
    pub depart: bool,
}

/// One connection's share of one step.
#[derive(Debug, Default)]
pub struct Side {
    pub sent: u64,
    /// Due → response receipt (ns), in send order.
    pub latency_ns: Vec<u64>,
    /// Send − due (ns), per request.
    pub late_ns: Vec<u64>,
    /// Unanswered requests at each send.
    pub backlog: Vec<u32>,
    /// Answers other than the expected `Placed` / `Departed`.
    pub errors: u64,
    /// Requests never answered (connection closed or timed out).
    pub unanswered: u64,
    pub departs: u64,
    /// Repack migrations the departures reported.
    pub migrations: u64,
}

/// A connection with its partial-line read buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects to an NDJSON endpoint.
    ///
    /// # Errors
    ///
    /// The connect error.
    pub fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }
}

/// How long to wait for answers after the last send before counting the
/// rest as unanswered.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

fn since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Drives `reqs` (with absolute due times `due_ns`, ns since `epoch`)
/// over `conn`, keeping at most `window` unanswered.
pub fn drive(
    conn: &mut Conn,
    reqs: &[&Req],
    due_ns: &[u64],
    window: usize,
    epoch: Instant,
) -> Side {
    assert_eq!(reqs.len(), due_ns.len());
    sys::fine_timer_slack();
    let mut side = Side {
        latency_ns: Vec::with_capacity(reqs.len()),
        late_ns: Vec::with_capacity(reqs.len()),
        backlog: Vec::with_capacity(reqs.len()),
        ..Side::default()
    };
    let mut inflight: VecDeque<usize> = VecDeque::with_capacity(window.min(reqs.len()));
    let mut next = 0usize;
    let mut out = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let fd = conn.stream.as_raw_fd();
    let mut deadline = None;
    loop {
        let now = since(epoch);
        if next < reqs.len() && due_ns[next] <= now && inflight.len() < window {
            out.clear();
            while next < reqs.len() && due_ns[next] <= now && inflight.len() < window {
                out.extend_from_slice(reqs[next].line.as_bytes());
                side.late_ns.push(lateness_ns(due_ns[next], now));
                side.backlog
                    .push(u32::try_from(inflight.len()).unwrap_or(u32::MAX));
                inflight.push_back(next);
                next += 1;
            }
            if conn.stream.write_all(&out).is_err() {
                break;
            }
            side.sent = next as u64;
            continue;
        }
        if next == reqs.len() && inflight.is_empty() {
            break;
        }
        let wait = if next < reqs.len() && inflight.len() < window {
            due_ns[next] - now
        } else {
            let end = *deadline
                .get_or_insert(now + u64::try_from(REPLY_TIMEOUT.as_nanos()).unwrap_or(u64::MAX));
            if now >= end {
                break;
            }
            end - now
        };
        if !sys::wait_readable(fd, wait) {
            continue;
        }
        let n = match conn.stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        let recv = since(epoch);
        conn.buf.extend_from_slice(&chunk[..n]);
        let mut start = 0;
        while let Some(pos) = conn.buf[start..].iter().position(|&b| b == b'\n') {
            let line = &conn.buf[start..start + pos];
            start += pos + 1;
            let Some(k) = inflight.pop_front() else {
                side.errors += 1;
                continue;
            };
            let latency = recv - due_ns[k].min(recv);
            side.latency_ns.push(latency);
            let req = reqs[k];
            if !line.starts_with(req.expect.as_bytes()) {
                side.errors += 1;
            } else if req.depart {
                side.departs += 1;
                side.migrations += migrations(line);
            }
            deadline = None;
        }
        conn.buf.drain(..start);
    }
    side.unanswered = inflight.len() as u64 + (reqs.len() - next) as u64;
    side
}

/// The `migrations` count of a `Departed` answer.
fn migrations(line: &[u8]) -> u64 {
    let key = b"\"migrations\":";
    line.windows(key.len())
        .position(|w| w == key)
        .map_or(0, |at| {
            line[at + key.len()..]
                .iter()
                .take_while(|b| b.is_ascii_digit())
                .fold(0, |acc, b| acc * 10 + u64::from(b - b'0'))
        })
}

/// The two system calls std does not wrap.
#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_long, c_short, c_ulong, c_void};

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    const POLLIN: c_short = 1;
    const PR_SET_TIMERSLACK: c_int = 29;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn prctl(option: c_int, ...) -> c_int;
    }

    /// Waits at most `timeout_ns` for `fd` to turn readable (or to hang
    /// up, which the following read reports). `false` on timeout or
    /// interruption.
    pub fn wait_readable(fd: c_int, timeout_ns: u64) -> bool {
        let mut pfd = PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: c_long::try_from(timeout_ns / 1_000_000_000).unwrap_or(c_long::MAX),
            tv_nsec: c_long::try_from(timeout_ns % 1_000_000_000).unwrap_or(0),
        };
        // SAFETY: `pfd` and `ts` are live, properly laid-out locals for
        // the whole call; nfds is 1, matching the single `pfd`; a null
        // sigmask keeps the thread's signal mask.
        let ready = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
        ready > 0
    }

    /// Shrinks this thread's timer slack to 1 ns so a timed wait ends on
    /// its due time rather than up to 50 µs after it.
    pub fn fine_timer_slack() {
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, c_ulong::from(1u8));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migrations_field_is_read() {
        let line = br#"{"Departed":{"id":"vm1","shard":0,"item":1,"bin":0,"closed":true,"migrations":12,"time":5}}"#;
        assert_eq!(migrations(line), 12);
        assert_eq!(migrations(br#"{"Placed":{"id":"vm1"}}"#), 0);
    }

    /// A one-line echo server answers after a delay: the generator sends
    /// on schedule, reads between sends, and times from the due time.
    #[test]
    fn open_loop_times_from_due_and_reads_between_sends() {
        use std::io::{BufRead, BufReader};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            for (i, line) in BufReader::new(stream).lines().enumerate() {
                let line = line.unwrap();
                if i == 2 {
                    // A 30 ms stall on the third request.
                    std::thread::sleep(Duration::from_millis(30));
                }
                writeln!(w, "{{\"Placed\":{{\"id\":\"{}\",\"x\":1}}}}", line.trim()).unwrap();
            }
        });
        let reqs: Vec<Req> = (0..6)
            .map(|i| Req {
                line: format!("r{i}\n"),
                expect: format!("{{\"Placed\":{{\"id\":\"r{i}\","),
                depart: false,
            })
            .collect();
        let refs: Vec<&Req> = reqs.iter().collect();
        let mut conn = Conn::open(&addr).unwrap();
        let epoch = Instant::now();
        // One request every 5 ms, starting 5 ms from now.
        let due: Vec<u64> = (1..=6).map(|k| k * 5_000_000).collect();
        let side = drive(&mut conn, &refs, &due, usize::MAX, epoch);
        drop(conn);
        server.join().unwrap();
        assert_eq!((side.sent, side.errors, side.unanswered), (6, 0, 0));
        // The stall delays request 3 by ~30 ms and the queue behind it:
        // request 4, due 5 ms later, still waits ~25 ms.
        assert!(side.latency_ns[2] >= 30_000_000, "{:?}", side.latency_ns);
        assert!(side.latency_ns[3] >= 24_000_000, "{:?}", side.latency_ns);
        // Sends were not held up by the stall: the generator stayed on time.
        assert!(
            side.late_ns.iter().all(|&l| l < 5_000_000),
            "{:?}",
            side.late_ns
        );
        assert!(
            side.backlog[3] >= 1,
            "request 4 went out behind an unanswered one"
        );
    }
}
