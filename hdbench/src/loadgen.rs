//! The open-loop load generator. Each lane sends its requests on a fixed
//! schedule over one keep-alive connection and times every request from
//! the moment it was *due*, not the moment it went out, so a server stall
//! is charged to every request queued behind it (no coordinated omission).

use crate::http::Conn;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// How far ahead of a due time the lane stops sleeping and spins: sleeps
/// overshoot by tens of microseconds, which would otherwise land in every
/// latency as generator lateness.
const SPIN_WINDOW: Duration = Duration::from_micros(60);

/// Attempts per request while the server sheds with `503`.
const MAX_ATTEMPTS: u32 = 4;

/// Longest pause honoured from a `Retry-After`, so one shed request cannot
/// silence the lane for the server's full retry hint.
const MAX_RETRY_PAUSE: Duration = Duration::from_millis(20);

/// How far past the end of its schedule a lane keeps sending; requests
/// still unsent then are recorded as failed, so a stuck server cannot hold
/// the run open.
const OVERRUN_LIMIT: Duration = Duration::from_secs(10);

/// One lane of traffic.
pub struct Lane<'a> {
    /// Requests per second.
    pub rate: f64,
    /// Prebuilt wire requests, sent in rotation.
    pub requests: &'a [Vec<u8>],
    /// Requests to schedule.
    pub count: usize,
}

/// One scheduled request.
pub struct Sample {
    /// Index into [`Lane::requests`].
    pub request: usize,
    /// Response status; `0` for a transport error.
    pub status: u16,
    /// From due time to the last response byte.
    pub latency: Duration,
    /// The generator's own lateness: send time minus the later of the due
    /// time and the previous response on this connection.
    pub late: Duration,
    pub body: Vec<u8>,
}

/// What one lane saw.
pub struct LaneReport {
    pub samples: Vec<Sample>,
    /// Connections opened after the first (the server closes a keep-alive
    /// connection at its request budget).
    pub reconnects: u64,
    /// `503` answers that were retried.
    pub retries_503: u64,
}

/// Runs one lane to the end of its schedule, which starts at `start`.
pub fn run_lane(addr: SocketAddr, lane: &Lane<'_>, start: Instant) -> LaneReport {
    let interval = Duration::from_secs_f64(1.0 / lane.rate);
    let mut conn: Option<Conn> = None;
    let mut opened = 0u64;
    let mut retries_503 = 0u64;
    let mut prev_done = start;
    let mut samples = Vec::with_capacity(lane.count);
    let give_up = start + interval.mul_f64(lane.count as f64) + OVERRUN_LIMIT;
    for i in 0..lane.count {
        let due = start + interval.mul_f64(i as f64);
        let request = i % lane.requests.len();
        if Instant::now() > give_up {
            samples.push(Sample {
                request,
                status: 0,
                latency: Instant::now() - due,
                late: Duration::ZERO,
                body: Vec::new(),
            });
            continue;
        }
        wait_until(due);
        let sent = Instant::now();
        let late = sent.saturating_duration_since(due.max(prev_done));
        let (status, body) = send(
            addr,
            &mut conn,
            &mut opened,
            &mut retries_503,
            &lane.requests[request],
        );
        let done = Instant::now();
        prev_done = done;
        samples.push(Sample {
            request,
            status,
            latency: done - due,
            late,
            body,
        });
    }
    LaneReport {
        samples,
        reconnects: opened.saturating_sub(1),
        retries_503,
    }
}

fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_WINDOW {
        std::thread::sleep(due - now - SPIN_WINDOW);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// One request, with retries while the server sheds. A transport error is
/// not retried: the server may have scored the records already.
fn send(
    addr: SocketAddr,
    conn: &mut Option<Conn>,
    opened: &mut u64,
    retries_503: &mut u64,
    wire: &[u8],
) -> (u16, Vec<u8>) {
    for attempt in 1..=MAX_ATTEMPTS {
        if conn.is_none() {
            match Conn::connect(addr) {
                Ok(c) => {
                    *conn = Some(c);
                    *opened += 1;
                }
                Err(_) => return (0, Vec::new()),
            }
        }
        let reply = match conn.as_mut().expect("connected above").send(wire) {
            Ok(reply) => reply,
            Err(_) => {
                *conn = None;
                return (0, Vec::new());
            }
        };
        if reply.close {
            *conn = None;
        }
        if reply.status == 503 && attempt < MAX_ATTEMPTS {
            *retries_503 += 1;
            let pause = reply.retry_after.unwrap_or(MAX_RETRY_PAUSE);
            std::thread::sleep(pause.min(MAX_RETRY_PAUSE));
            continue;
        }
        return (reply.status, reply.body);
    }
    unreachable!("the last attempt always returns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::request_bytes;
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Serves `total` requests, echoing each body. Request number `stall_at`
    /// (0-based, counted across connections) is answered after `stall`; a
    /// connection is closed with `Connection: close` after `budget` requests.
    /// The server thread ends once the client drops its last connection.
    fn fake_server(
        total: usize,
        stall_at: usize,
        stall: Duration,
        budget: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound");
        let served = Arc::new(AtomicUsize::new(0));
        let handle = std::thread::spawn(move || {
            while served.load(Ordering::SeqCst) < total {
                let (stream, _) = listener.accept().expect("accept");
                serve_connection(stream, &served, stall_at, stall, budget);
            }
        });
        (addr, handle)
    }

    fn serve_connection(
        stream: TcpStream,
        served: &AtomicUsize,
        stall_at: usize,
        stall: Duration,
        budget: usize,
    ) {
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        for n in 1..=budget {
            let mut length = 0usize;
            let mut line = String::new();
            loop {
                line.clear();
                if reader.read_line(&mut line).expect("read head") == 0 {
                    return;
                }
                if line == "\r\n" {
                    break;
                }
                if let Some(v) = line.strip_prefix("Content-Length: ") {
                    length = v.trim().parse().expect("length");
                }
            }
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body).expect("read body");
            if served.fetch_add(1, Ordering::SeqCst) == stall_at {
                std::thread::sleep(stall);
            }
            let close = if n == budget {
                "Connection: close\r\n"
            } else {
                ""
            };
            let head = format!(
                "HTTP/1.1 200 OK\r\n{close}Content-Length: {}\r\n\r\n",
                body.len()
            );
            writer.write_all(head.as_bytes()).expect("write head");
            writer.write_all(&body).expect("write body");
        }
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // 100 req/s for 60 requests; request 10 stalls 200 ms, so the ~20
        // requests due during the stall are each late by what remained of it.
        let (addr, server) = fake_server(60, 10, Duration::from_millis(200), 1000);
        let requests = vec![request_bytes("POST", "/x", "hello")];
        let lane = Lane {
            rate: 100.0,
            requests: &requests,
            count: 60,
        };
        let report = run_lane(addr, &lane, Instant::now());
        server.join().expect("fake server");
        assert!(report.samples.iter().all(|s| s.status == 200));
        assert!(report.samples.iter().all(|s| s.body == b"hello"));
        let slow = report
            .samples
            .iter()
            .filter(|s| s.latency >= Duration::from_millis(50))
            .count();
        // A closed loop timing each request from its own send would show one
        // slow request; from due times, the queue behind the stall shows too.
        assert!(slow >= 15, "only {slow} requests carry the stall");
        let stalled = &report.samples[10];
        assert!(stalled.latency >= Duration::from_millis(200));
        // The generator itself was not late: it waited on the server.
        assert!(report.samples[11].late < Duration::from_millis(20));
        assert_eq!(report.reconnects, 0);
    }

    #[test]
    fn the_lane_survives_connection_close_at_the_budget() {
        let (addr, server) = fake_server(10, usize::MAX, Duration::ZERO, 3);
        let requests = vec![
            request_bytes("POST", "/x", "a"),
            request_bytes("POST", "/x", "bb"),
        ];
        let lane = Lane {
            rate: 500.0,
            requests: &requests,
            count: 10,
        };
        let report = run_lane(addr, &lane, Instant::now());
        server.join().expect("fake server");
        assert!(report.samples.iter().all(|s| s.status == 200));
        let bodies: Vec<&[u8]> = report.samples.iter().map(|s| s.body.as_slice()).collect();
        assert_eq!(bodies[0], b"a");
        assert_eq!(bodies[9], b"bb");
        // Closed after requests 3, 6 and 9: three fresh connections.
        assert_eq!(report.reconnects, 3);
    }
}
