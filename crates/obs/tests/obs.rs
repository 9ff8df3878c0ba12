//! Integration tests for the observability crate: concurrency behaviour
//! and the public-surface contracts the rest of the workspace relies on.

use hdoutlier_obs as obs;
use std::sync::Arc;
use std::thread;

#[test]
fn counter_is_atomic_under_thread_fanout() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let registry = obs::Registry::new();
    let counter = registry.counter("hdoutlier.test.fanout");
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let counter = counter.clone();
            thread::spawn(move || {
                for _ in 0..PER_THREAD {
                    counter.inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
}

#[test]
fn histogram_is_consistent_under_thread_fanout() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 5_000;
    let registry = obs::Registry::new();
    let hist = registry.histogram_with_bounds("hdoutlier.test.lat", &[10.0, 100.0, 1000.0]);
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let hist = hist.clone();
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    hist.record((t * PER_THREAD + i) as f64 % 1500.0);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = hist.snapshot();
    assert_eq!(snap.count, (THREADS * PER_THREAD) as u64);
    let bucket_total: u64 = hist.buckets().iter().map(|&(_, c)| c).sum();
    assert_eq!(bucket_total, snap.count);
    assert_eq!(snap.min, 0.0);
    assert_eq!(snap.max, 1499.0);
}

#[test]
fn histogram_quantiles_match_known_distribution() {
    let registry = obs::Registry::new();
    let hist = registry.histogram_with_bounds("hdoutlier.test.q", &[1.0, 2.0, 4.0, 8.0, 16.0]);
    // 1000 samples uniform over (0, 10]: ranks put p50 at bound 8 clamped
    // by the data layout below.
    for i in 1..=1000u32 {
        hist.record(f64::from(i) / 100.0); // 0.01 ..= 10.0
    }
    let snap = hist.snapshot();
    assert_eq!(snap.count, 1000);
    // Rank 500 → value 5.0 → bucket (4, 8] → reported as 8.0.
    assert_eq!(snap.p50, 8.0);
    // Rank 900 → value 9.0 → bucket (8, 16] → bound 16 clamps to max 10.
    assert_eq!(snap.p90, 10.0);
    assert_eq!(snap.p99, 10.0);
    assert_eq!(snap.min, 0.01);
    assert_eq!(snap.max, 10.0);
}

#[test]
fn ndjson_sink_escapes_hostile_strings() {
    let sink = obs::CaptureSink::default();
    let fields = [
        ("path", obs::Value::Str("C:\\data\\\"quoted\"\nline")),
        ("tab", obs::Value::Str("a\tb")),
        ("ctl", obs::Value::Str("\u{0}bell\u{7}")),
    ];
    obs::Sink::emit(
        &sink,
        &obs::EventRecord {
            ts_us: 1,
            level: obs::Level::Warn,
            target: "hdoutlier.test",
            name: "esc\"aped",
            fields: &fields,
        },
    );
    let lines = sink.lines();
    assert_eq!(lines.len(), 1);
    let line = &lines[0];
    assert!(line.contains("\"event\":\"esc\\\"aped\""), "{line}");
    assert!(
        line.contains("\"path\":\"C:\\\\data\\\\\\\"quoted\\\"\\nline\""),
        "{line}"
    );
    assert!(line.contains("\"tab\":\"a\\tb\""), "{line}");
    assert!(line.contains("\"ctl\":\"\\u0000bell\\u0007\""), "{line}");
    // No raw control bytes survive.
    assert!(line.chars().all(|c| c as u32 >= 0x20), "{line}");
}

#[test]
fn level_parsing_is_case_insensitive() {
    assert_eq!("INFO".parse::<obs::Level>().unwrap(), obs::Level::Info);
    assert_eq!("Trace".parse::<obs::Level>().unwrap(), obs::Level::Trace);
    assert!("noisy".parse::<obs::Level>().is_err());
}

#[test]
fn global_registry_handles_are_shared() {
    // The global registry is process-wide and append-only; use a unique
    // name so parallel tests cannot collide on kind.
    let name = "hdoutlier.test.obs_integration.shared";
    let a = obs::registry().counter(name);
    let b = obs::registry().counter(name);
    let before = a.get();
    b.add(3);
    assert_eq!(a.get(), before + 3);
    assert!(obs::registry().snapshot().iter().any(|m| m.name == name));
}

#[test]
fn scrape_while_recording_is_consistent() {
    // A live /metrics scrape renders from the same registry the hot path
    // is writing to. Hammer a private registry from writer threads while a
    // reader renders Prometheus text in a loop: every render must parse
    // into internally consistent series (cumulative buckets monotone,
    // +Inf bucket == _count), never torn or panicking.
    static SCRAPED: obs::Registry = obs::Registry::new();
    const WRITERS: usize = 4;
    const PER_THREAD: u64 = 20_000;
    // Register the histogram before any thread starts, so the reader's
    // renders cannot all run before a writer registers it.
    SCRAPED.histogram_with_bounds("hdoutlier.test.race.lat", &[1.0, 10.0]);
    let writers: Vec<_> = (0..WRITERS)
        .map(|_| {
            thread::spawn(|| {
                let c = SCRAPED.counter("hdoutlier.test.race.events");
                let h = SCRAPED.histogram_with_bounds("hdoutlier.test.race.lat", &[1.0, 10.0]);
                for i in 0..PER_THREAD {
                    c.inc();
                    h.record((i % 20) as f64);
                }
            })
        })
        .collect();
    let reader = thread::spawn(|| {
        let mut renders = 0u32;
        for _ in 0..200 {
            let text = SCRAPED.render_prometheus();
            let buckets: Vec<u64> = text
                .lines()
                .filter(|l| l.starts_with("hdoutlier_test_race_lat_bucket"))
                .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
                .collect();
            if buckets.is_empty() {
                continue; // histogram not registered yet
            }
            assert!(
                buckets.windows(2).all(|w| w[0] <= w[1]),
                "non-cumulative buckets: {buckets:?}"
            );
            let count: u64 = text
                .lines()
                .find(|l| l.starts_with("hdoutlier_test_race_lat_count"))
                .and_then(|l| l.rsplit(' ').next())
                .unwrap()
                .parse()
                .unwrap();
            assert_eq!(*buckets.last().unwrap(), count, "+Inf bucket != count");
            renders += 1;
        }
        renders
    });
    for w in writers {
        w.join().unwrap();
    }
    assert!(reader.join().unwrap() > 0, "reader never saw the histogram");
    // Quiesced totals line up exactly.
    let text = SCRAPED.render_prometheus();
    assert!(
        text.contains(&format!(
            "hdoutlier_test_race_events_total {}",
            WRITERS as u64 * PER_THREAD
        )),
        "{text}"
    );
}

#[test]
fn labeled_exposition_escapes_hostile_label_values() {
    // Prometheus label values must escape backslash, double quote, and
    // newline — and nothing else may leak a raw control byte into the
    // exposition.
    let registry = obs::Registry::new();
    let requests = registry.counter_vec("hdoutlier.test.esc.requests", &["route", "status"]);
    requests.with(&["/a\\b\"c\nd", "200"]).add(3);
    let text = registry.render_prometheus();
    assert!(
        text.contains(
            "hdoutlier_test_esc_requests_total{route=\"/a\\\\b\\\"c\\nd\",status=\"200\"} 3"
        ),
        "{text}"
    );
    assert!(text.lines().all(|l| l.chars().all(|c| c as u32 >= 0x20)));
}

#[test]
fn labeled_exposition_orders_series_deterministically() {
    // Children render sorted by label values regardless of intern order,
    // and one family emits exactly one HELP/TYPE header — so consecutive
    // scrapes of a quiesced registry are byte-identical.
    let registry = obs::Registry::new();
    let requests = registry.counter_vec("hdoutlier.test.order.req", &["route", "status"]);
    let latency =
        registry.histogram_vec_with_bounds("hdoutlier.test.order.lat", &["route"], &[1.0, 10.0]);
    for (route, status) in [("/z", "500"), ("/a", "200"), ("/m", "404"), ("/a", "503")] {
        requests.with(&[route, status]).inc();
    }
    latency.with(&["/z"]).record(5.0);
    latency.with(&["/a"]).record(0.5);

    let text = registry.render_prometheus();
    assert_eq!(text, registry.render_prometheus(), "scrape not stable");
    let series: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("hdoutlier_test_order_req_total{"))
        .collect();
    assert_eq!(
        series,
        [
            "hdoutlier_test_order_req_total{route=\"/a\",status=\"200\"} 1",
            "hdoutlier_test_order_req_total{route=\"/a\",status=\"503\"} 1",
            "hdoutlier_test_order_req_total{route=\"/m\",status=\"404\"} 1",
            "hdoutlier_test_order_req_total{route=\"/z\",status=\"500\"} 1",
        ]
    );
    assert_eq!(
        text.matches("# TYPE hdoutlier_test_order_req_total counter")
            .count(),
        1
    );
    assert_eq!(
        text.matches("# TYPE hdoutlier_test_order_lat histogram")
            .count(),
        1
    );
    // Labeled histogram series keep `le` as the last label and stay
    // grouped per label set.
    assert!(
        text.contains("hdoutlier_test_order_lat_bucket{route=\"/a\",le=\"1\"} 1"),
        "{text}"
    );
    assert!(
        text.contains("hdoutlier_test_order_lat_count{route=\"/z\"} 1"),
        "{text}"
    );
}

#[test]
fn scrape_race_on_labeled_family_stays_consistent() {
    // The labeled sibling of scrape_while_recording_is_consistent: writer
    // threads hammer distinct label sets of one family (interning new
    // children mid-race) while a reader renders; every render must show
    // internally consistent per-label-set histogram series.
    static LABELED: obs::Registry = obs::Registry::new();
    const WRITERS: usize = 4;
    const PER_THREAD: u64 = 10_000;
    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            thread::spawn(move || {
                let c = LABELED.counter_vec("hdoutlier.test.lrace.req", &["route", "status"]);
                let h = LABELED.histogram_vec_with_bounds(
                    "hdoutlier.test.lrace.lat",
                    &["route"],
                    &[1.0, 10.0],
                );
                let route = ["/a", "/b", "/c", "/d"][t];
                let counter = c.with(&[route, "200"]);
                let hist = h.with(&[route]);
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record((i % 20) as f64);
                }
            })
        })
        .collect();
    let reader = thread::spawn(|| {
        let mut renders = 0u32;
        for _ in 0..200 {
            let text = LABELED.render_prometheus();
            for route in ["/a", "/b", "/c", "/d"] {
                let prefix = format!("hdoutlier_test_lrace_lat_bucket{{route=\"{route}\",");
                let buckets: Vec<u64> = text
                    .lines()
                    .filter(|l| l.starts_with(&prefix))
                    .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
                    .collect();
                if buckets.is_empty() {
                    continue; // this child not interned yet
                }
                assert!(
                    buckets.windows(2).all(|w| w[0] <= w[1]),
                    "non-cumulative buckets for {route}: {buckets:?}"
                );
                let count: u64 = text
                    .lines()
                    .find(|l| {
                        l.starts_with(&format!(
                            "hdoutlier_test_lrace_lat_count{{route=\"{route}\""
                        ))
                    })
                    .and_then(|l| l.rsplit(' ').next())
                    .unwrap()
                    .parse()
                    .unwrap();
                assert_eq!(*buckets.last().unwrap(), count, "+Inf != count for {route}");
                renders += 1;
            }
        }
        renders
    });
    for w in writers {
        w.join().unwrap();
    }
    assert!(reader.join().unwrap() > 0, "reader never saw a child");
    let text = LABELED.render_prometheus();
    for route in ["/a", "/b", "/c", "/d"] {
        assert!(
            text.contains(&format!(
                "hdoutlier_test_lrace_req_total{{route=\"{route}\",status=\"200\"}} {PER_THREAD}"
            )),
            "{text}"
        );
    }
}

#[test]
fn metrics_server_serves_live_registry_over_tcp() {
    use std::io::{Read, Write};
    static SERVED: obs::Registry = obs::Registry::new();
    SERVED.counter("hdoutlier.test.live.hits").add(11);
    let server = obs::MetricsServer::serve("127.0.0.1:0", &SERVED).expect("bind");
    let addr = server.local_addr();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("request");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("response");
    assert!(body.contains("hdoutlier_test_live_hits_total 11"), "{body}");
    server.shutdown();
}

#[test]
fn span_guard_emits_elapsed_into_capture() {
    // Serializes against other dispatcher users in this binary only; unit
    // tests inside the crate use their own lock, so keep this tolerant:
    // assert on our own event's presence, not on total line counts.
    let capture = Arc::new(obs::CaptureSink::default());
    obs::install(capture.clone(), obs::Level::Debug);
    {
        let _span = obs::span(obs::Level::Debug, "hdoutlier.test", "spanned_work");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    obs::uninstall();
    let lines = capture.lines();
    let ours: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("\"event\":\"spanned_work\""))
        .collect();
    assert_eq!(ours.len(), 1, "{lines:?}");
    assert!(ours[0].contains("\"elapsed_us\":"), "{}", ours[0]);
}
