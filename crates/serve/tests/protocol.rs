//! Protocol robustness: every way a client can misbehave must produce a
//! structured error response or a clean close — never a dead daemon, and
//! never a poisoned session table. Each test drives a real server over
//! real sockets.

use mdg_geom::Point;
use mdg_serve::client::Client;
use mdg_serve::protocol::{Ack, ErrorResponse, PlanSummary};
use mdg_serve::server::{ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn start(cfg: ServeConfig) -> Server {
    Server::start(cfg).expect("server starts")
}

fn error_code(response: &str) -> String {
    let err: ErrorResponse = serde_json::from_str(response)
        .unwrap_or_else(|e| panic!("not an error response: {response} ({e})"));
    assert!(!err.ok);
    err.error.code
}

/// Creates a small session the poisoning checks can probe afterwards.
fn seed_session(client: &mut Client, name: &str) -> PlanSummary {
    client
        .plan_uniform(name, 150, 200.0, 9, 30.0)
        .expect("transport")
        .expect("plan accepted")
}

#[test]
fn truncated_json_gets_a_bad_json_error() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client.send_raw("{\"cmd\":\"plan\",\"field\":").unwrap();
    assert_eq!(error_code(&resp), "bad_json");
    // The connection survives a parse error.
    let resp = client.send_raw("{\"cmd\":\"metrics\"}").unwrap();
    let ack: Ack = serde_json::from_str(&resp).unwrap();
    assert!(ack.ok);
    server.shutdown();
    server.join();
}

#[test]
fn unknown_cmd_and_missing_cmd_are_structured_errors() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client.send_raw("{\"cmd\":\"frobnicate\"}").unwrap();
    assert_eq!(error_code(&resp), "unknown_cmd");
    let resp = client.send_raw("{\"field\":\"x\"}").unwrap();
    assert_eq!(error_code(&resp), "bad_request");
    // Wrong JSON *type* for a field is bad_json, not a crash.
    let resp = client
        .send_raw("{\"cmd\":\"plan\",\"field\":\"x\",\"n\":\"many\"}")
        .unwrap();
    assert_eq!(error_code(&resp), "bad_json");
    server.shutdown();
    server.join();
}

#[test]
fn oversized_payload_is_rejected_and_the_connection_closed() {
    let server = start(ServeConfig {
        max_line_bytes: 4096,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let huge = format!(
        "{{\"cmd\":\"plan\",\"field\":\"{}\"}}",
        "x".repeat(16 * 1024)
    );
    let resp = client.send_raw(&huge).unwrap();
    assert_eq!(error_code(&resp), "oversized");
    // The server closes the connection after an oversized line (it cannot
    // trust the stream's framing any more): the next request sees EOF.
    let after = client.send_raw("{\"cmd\":\"metrics\"}");
    assert!(after.is_err(), "connection must be closed, got {after:?}");
    // The daemon itself is fine.
    let mut fresh = Client::connect(server.local_addr()).unwrap();
    assert!(fresh.metrics().unwrap().is_ok());
    server.shutdown();
    server.join();
}

#[test]
fn mid_request_disconnect_leaves_the_daemon_serving() {
    let server = start(ServeConfig::default());
    // Open a raw socket, send half a request, and vanish.
    {
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        s.write_all(b"{\"cmd\":\"plan\",\"field\":\"half").unwrap();
        // Dropped here without a newline: the server's reader sees EOF
        // mid-line and must simply clean up.
    }
    std::thread::sleep(Duration::from_millis(50));
    let mut client = Client::connect(server.local_addr()).unwrap();
    let summary = seed_session(&mut client, "alive");
    assert_eq!(summary.mode, "cold");
    server.shutdown();
    server.join();
}

#[test]
fn garbage_requests_do_not_poison_existing_sessions() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let cold = seed_session(&mut client, "victim");

    // A barrage of malformed traffic on a second connection.
    let mut attacker = Client::connect(server.local_addr()).unwrap();
    for garbage in [
        "not json at all",
        "{\"cmd\":\"delta\",\"field\":\"victim\",\"died\":[999999]}",
        "{\"cmd\":\"delta\",\"field\":\"victim\",\"range\":-5}",
        "{\"cmd\":\"delta\",\"field\":\"no-such-session\"}",
        "{\"cmd\":\"plan\",\"field\":\"victim2\",\"n\":0,\"side\":100,\"range\":30}",
        "[1,2,3]",
        "\"just a string\"",
    ] {
        let resp = attacker.send_raw(garbage).unwrap();
        let ack: Ack = serde_json::from_str(&resp).unwrap();
        assert!(!ack.ok, "garbage must be rejected: {garbage} -> {resp}");
    }

    // The existing session still answers and still repairs correctly.
    let patched = client
        .delta("victim", vec![0, 1], vec![], None)
        .unwrap()
        .unwrap();
    assert_eq!(patched.generation, cold.generation + 1);
    assert_eq!(patched.live, cold.live - 2);
    let got = client.get_plan("victim").unwrap().unwrap();
    assert_eq!(got.generation, patched.generation);
    server.shutdown();
    server.join();
}

#[test]
fn lru_eviction_bounds_the_session_table() {
    let server = start(ServeConfig {
        max_sessions: 2,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    seed_session(&mut client, "a");
    seed_session(&mut client, "b");
    // Touch `a` so `b` is the LRU victim when `c` arrives.
    client.get_plan("a").unwrap().unwrap();
    seed_session(&mut client, "c");
    let metrics = client.metrics().unwrap().unwrap();
    assert_eq!(metrics.sessions.len(), 2);
    assert_eq!(metrics.evictions, 1);
    let names: Vec<&str> = metrics.sessions.iter().map(|s| s.field.as_str()).collect();
    assert!(names.contains(&"a") && names.contains(&"c"), "{names:?}");
    let err = client.get_plan("b").unwrap().unwrap_err();
    assert_eq!(err.code, "unknown_session");
    server.shutdown();
    server.join();
}

#[test]
fn byte_budget_eviction_sheds_many_small_sessions_for_one_big() {
    // Five small sessions fit the byte budget; one big session landing on
    // top must evict several of them (LRU-first) — the count cap alone
    // would have kept everything. A 100-sensor flat session estimates
    // about 30 KiB (graphs, coverage lists, plan), the 400-sensor one
    // about 120 KiB.
    let server = start(ServeConfig {
        max_sessions: 16,
        max_session_bytes: 192 << 10,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    for i in 0..5 {
        client
            .plan_uniform(&format!("small-{i}"), 100, 200.0, i, 30.0)
            .unwrap()
            .unwrap();
    }
    let before = client.metrics().unwrap().unwrap();
    assert_eq!(before.sessions.len(), 5);
    assert_eq!(before.evictions, 0);

    client
        .plan_uniform("big", 400, 400.0, 7, 30.0)
        .unwrap()
        .unwrap();
    let after = client.metrics().unwrap().unwrap();
    let names: Vec<&str> = after.sessions.iter().map(|s| s.field.as_str()).collect();
    assert!(names.contains(&"big"), "{names:?}");
    assert!(
        after.evictions >= 2,
        "one big session must displace several small ones, evictions={}",
        after.evictions
    );
    // The survivors (the big session possibly excepted) fit the budget.
    let total: u64 = after.sessions.iter().map(|s| s.approx_bytes).sum();
    assert!(
        total <= 192 << 10 || after.sessions.len() == 1,
        "table still over budget: {total} bytes across {names:?}"
    );
    server.shutdown();
    server.join();
}

#[test]
fn large_fields_get_hier_sessions_over_the_wire() {
    // Above the threshold the daemon plans hierarchically; plan, delta,
    // and get_plan flow through the same protocol unchanged.
    // Default auto tile sizing targets ~2048 sensors per tile, so the
    // field needs ~10k sensors to span several tiles — below that a
    // small delta dirties the only tile and escalates to a full replan.
    let server = start(ServeConfig {
        hier_threshold: 2_000,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let cold = client
        .plan_uniform("tiled", 10_000, 1_000.0, 3, 30.0)
        .unwrap()
        .unwrap();
    assert_eq!(cold.mode, "cold");
    assert_eq!(cold.live, 10_000);

    let metrics = client.metrics().unwrap().unwrap();
    let info = metrics
        .sessions
        .iter()
        .find(|s| s.field == "tiled")
        .unwrap();
    assert_eq!(info.kind, "hier");
    assert!(info.approx_bytes > 0);

    let patched = client
        .delta(
            "tiled",
            vec![1, 2, 3],
            vec![Point { x: 20.0, y: 20.0 }],
            None,
        )
        .unwrap()
        .unwrap();
    assert_eq!(patched.mode, "repair");
    assert_eq!(patched.generation, cold.generation + 1);
    assert_eq!(patched.live, 9_998);

    let got = client.get_plan("tiled").unwrap().unwrap();
    assert_eq!(got.generation, patched.generation);
    assert!((got.range - 30.0).abs() < 1e-12);
    assert!(got.plan.tour_length > 0.0);

    // A small flat session next to it keeps its flavor.
    client
        .plan_uniform("smallf", 120, 200.0, 4, 30.0)
        .unwrap()
        .unwrap();
    let metrics = client.metrics().unwrap().unwrap();
    let info = metrics
        .sessions
        .iter()
        .find(|s| s.field == "smallf")
        .unwrap();
    assert_eq!(info.kind, "flat");
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_and_stops_accepting() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    seed_session(&mut client, "s");
    let down = client.shutdown().unwrap().unwrap();
    assert!(down.draining);
    server.join();
    // After the drain the listener is gone; a fresh connection must fail
    // (or be refused immediately on read).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            s.write_all(b"{\"cmd\":\"metrics\"}\n").unwrap();
            let mut buf = [0u8; 1];
            assert!(
                !matches!(s.read(&mut buf), Ok(n) if n > 0),
                "drained daemon must not answer"
            );
        }
    }
}

#[test]
fn concurrent_clients_get_isolated_sessions() {
    let server = start(ServeConfig::default());
    let addr = server.local_addr();
    let handles: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                let name = format!("conc-{i}");
                let cold = c.plan_uniform(&name, 120, 180.0, i, 25.0).unwrap().unwrap();
                let patched = c
                    .delta(&name, vec![i, i + 1], vec![], None)
                    .unwrap()
                    .unwrap();
                assert_eq!(patched.generation, 1);
                assert_eq!(patched.live, cold.live - 2);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    let mut c = Client::connect(addr).unwrap();
    let metrics = c.metrics().unwrap().unwrap();
    assert_eq!(metrics.sessions.len(), 4);
    server.shutdown();
    server.join();
}

#[test]
fn hostile_coordinates_get_structured_errors_and_the_session_survives() {
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let cold = seed_session(&mut client, "survivor");

    // Non-finite and absurd-magnitude coordinates are the classic way to
    // smuggle NaN/inf into the warm state (distances overflow, tours go
    // non-finite). Every one must come back as a structured reject, with
    // the session untouched.
    for hostile in [
        "{\"cmd\":\"delta\",\"field\":\"survivor\",\"added\":[{\"x\":1e300,\"y\":0}]}",
        "{\"cmd\":\"delta\",\"field\":\"survivor\",\"added\":[{\"x\":0,\"y\":-1e300}]}",
        "{\"cmd\":\"delta\",\"field\":\"survivor\",\"added\":[{\"x\":5e12,\"y\":5e12}]}",
        "{\"cmd\":\"delta\",\"field\":\"survivor\",\"range\":1e300}",
        "{\"cmd\":\"plan\",\"field\":\"poisoned\",\"sensors\":[{\"x\":1e300,\"y\":0}],\"range\":30}",
        "{\"cmd\":\"plan\",\"field\":\"poisoned\",\"sensors\":[{\"x\":1,\"y\":2}],\"sink\":{\"x\":-7e12,\"y\":0},\"range\":30}",
    ] {
        let resp = client.send_raw(hostile).unwrap();
        assert_eq!(error_code(&resp), "bad_request", "for {hostile}");
    }

    // The warm session was not mutated by any rejected request: the
    // generation is unchanged and a well-formed delta still repairs.
    let got = client.get_plan("survivor").unwrap().unwrap();
    assert_eq!(got.generation, cold.generation);
    let patched = client
        .delta("survivor", vec![3], vec![Point { x: 40.0, y: 55.0 }], None)
        .unwrap()
        .unwrap();
    assert_eq!(patched.generation, cold.generation + 1);
    // No half-created session leaked from the rejected `plan` requests.
    let metrics = client.metrics().unwrap().unwrap();
    assert_eq!(metrics.sessions.len(), 1);
    server.shutdown();
    server.join();
}

#[test]
fn a_generated_field_past_max_coord_is_a_bad_request() {
    // The `n`+`side` form generates positions in [0, side]², so a side
    // past `MAX_COORD` smuggles in what the `sensors` form rejects: 1e13
    // planned a 3.4e13 m tour, and 1e300 overflowed every distance to
    // infinity and panicked inside cheapest insertion.
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    for side in ["1e13", "1e300"] {
        let req =
            format!("{{\"cmd\":\"plan\",\"field\":\"f\",\"n\":10,\"side\":{side},\"range\":30}}");
        assert_eq!(
            error_code(&client.send_raw(&req).unwrap()),
            "bad_request",
            "side {side}"
        );
        let metrics = client.metrics().expect("transport").expect("metrics");
        assert!(metrics.ok);
        assert!(metrics.sessions.is_empty(), "side {side} left a session");
    }
    server.shutdown();
    server.join();
}

#[test]
fn a_collinear_field_plans_without_aborting_the_daemon() {
    // 600 sensors on a line, 60 m apart at range 30: every sensor is its
    // own stop, so the 601-vertex tour takes the neighbor-list path. Its
    // k-NN grid used to size cells by the field's (zero) area, asked for
    // ~37 GB and aborted the whole process.
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let sensors: Vec<Point> = (0..600).map(|i| Point::new(i as f64 * 60.0, 0.0)).collect();
    let summary = client
        .plan_sensors("line", sensors.clone(), None, 30.0)
        .expect("transport")
        .expect("plan accepted");
    assert!(summary.ok);
    assert_eq!(summary.polling_points, 600);
    assert!((summary.tour_m - 2.0 * 599.0 * 60.0).abs() < 1e-6);
    let metrics = client.metrics().expect("transport").expect("metrics");
    assert!(metrics.ok);
    let got = client.get_plan("line").unwrap().unwrap();
    got.plan.validate(&sensors, 30.0).unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn a_deeply_nested_request_is_bad_json_not_a_dead_daemon() {
    // 200 000 `[` on one line (200 KB, far under `max_line_bytes`). The
    // parser used to recurse once per `[` with no bound, overflowed the
    // connection thread's stack and aborted the process, every warm
    // session with it. Nesting now stops at 128 levels with an error, in
    // typed fields and skipped unknown fields alike.
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let sensors: Vec<Point> = (0..150)
        .map(|i| Point::new((i % 15) as f64 * 13.0, (i / 15) as f64 * 13.0))
        .collect();
    client
        .plan_sensors("warm", sensors.clone(), None, 30.0)
        .expect("transport")
        .expect("plan accepted");
    let deep = "[".repeat(200_000);
    assert_eq!(error_code(&client.send_raw(&deep).unwrap()), "bad_json");
    let in_unknown_field = format!("{{\"cmd\":\"metrics\",\"junk\":{deep}}}");
    assert_eq!(
        error_code(&client.send_raw(&in_unknown_field).unwrap()),
        "bad_json"
    );
    let metrics = client.metrics().expect("transport").expect("metrics");
    assert!(metrics.ok);
    let got = client.get_plan("warm").unwrap().unwrap();
    got.plan.validate(&sensors, 30.0).unwrap();
    server.shutdown();
    server.join();
}

#[test]
fn an_escaped_surrogate_pair_names_the_same_session_as_raw_utf8() {
    // Python's default `json.dumps` escapes non-ASCII, so a client sends
    // the session name `f😀` as `"f\ud83d\ude00"`. Each half used to
    // decode to U+FFFD on its own, and the raw name found no session.
    let server = start(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let resp = client
        .send_raw(
            r#"{"cmd":"plan","field":"f\ud83d\ude00","n":150,"side":200,"seed":9,"range":30}"#,
        )
        .unwrap();
    let summary: PlanSummary = serde_json::from_str(&resp).unwrap();
    assert_eq!(summary.field, "f😀");
    let got = client
        .get_plan("f😀")
        .expect("transport")
        .expect("the raw name finds the session");
    assert_eq!(got.field, "f😀");
    assert_eq!(got.generation, summary.generation);
    server.shutdown();
    server.join();
}
