//! Malformed-input hardening for the query front end: every
//! `wire::parse` error path echoes the caller's id, non-UTF-8 and
//! oversized datagrams get an answer instead of a dropped worker, and
//! no byte soup panics the parser. The exact error strings are pinned
//! here because operators match on them when debugging client bugs.

use agentnet_engine::obs::Metrics;
use agentnet_serve::wire::{self, Request};
use agentnet_serve::{ServeConfig, Server};
use proptest::prelude::*;
use std::net::UdpSocket;
use std::time::Duration;

/// The UDP workers' receive buffer; datagrams beyond this are
/// truncated by the kernel, not rejected (`server.rs::query_worker`).
const RECV_BUF: usize = 1500;

fn err(datagram: &str) -> (u64, String) {
    wire::parse(datagram).expect_err(&format!("{datagram:?} must not parse"))
}

#[test]
fn every_parse_error_path_echoes_the_right_id() {
    // No id recoverable: the reply goes out under id 0.
    assert_eq!(err(""), (0, "empty request".into()));
    assert_eq!(err(" \t \r\n "), (0, "empty request".into()));
    assert_eq!(err("x ROUTE 1"), (0, "bad request id \"x\"".into()));
    assert_eq!(err("-3 INFO"), (0, "bad request id \"-3\"".into()));
    // A u64-overflowing id token is a bad id, not a wrapped one.
    assert_eq!(
        err("99999999999999999999 INFO"),
        (0, "bad request id \"99999999999999999999\"".into())
    );
    // NUL is not ASCII whitespace, so it fuses into the id token (the
    // Debug echo escapes it, keeping the reply printable).
    assert_eq!(err("5\u{0}INFO"), (0, "bad request id \"5\\0INFO\"".into()));

    // Id parsed: every later failure must carry it back.
    assert_eq!(err("5"), (5, "missing verb".into()));
    assert_eq!(err("5 ROUTE"), (5, "ROUTE needs a node argument".into()));
    // The missing-argument echo keeps the caller's casing.
    assert_eq!(err("5 links"), (5, "links needs a node argument".into()));
    assert_eq!(err("5 REACH x9"), (5, "bad node argument \"x9\"".into()));
    assert_eq!(err("5 ROUTE -1"), (5, "bad node argument \"-1\"".into()));
    // A usize-overflowing node token is malformed, not clamped.
    let wide = "9".repeat(40);
    assert_eq!(err(&format!("5 LINKS {wide}")), (5, format!("bad node argument {wide:?}")));
    // Unknown verbs echo post-uppercasing (the form that was matched).
    assert_eq!(err("5 fly 1"), (5, "unknown verb \"FLY\"".into()));
    assert_eq!(err("5 INFO extra"), (5, "trailing tokens after request".into()));
    assert_eq!(err("5 ROUTE 1 2"), (5, "trailing tokens after request".into()));
}

#[test]
fn error_replies_are_id_prefixed() {
    for datagram in ["", "x", "5", "5 FLY", "5 ROUTE zz", "5 INFO 9"] {
        let (id, msg) = err(datagram);
        let reply = wire::error_reply(id, &msg);
        assert!(reply.starts_with(&format!("{id} ERR ")), "{datagram:?} -> {reply:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, lossily decoded the way a UDP worker would see
    /// them, never panic the parser — and every rejection renders as a
    /// well-formed `<id> ERR <msg>` reply.
    #[test]
    fn parse_never_panics_on_byte_soup(bytes in proptest::collection::vec(0u8..=255, 0..200)) {
        let text = String::from_utf8_lossy(&bytes);
        match wire::parse(&text) {
            Ok((_, req)) => {
                prop_assert!(matches!(
                    req,
                    Request::Route(_) | Request::Links(_) | Request::Reach(_) | Request::Info
                ));
            }
            Err((id, msg)) => {
                prop_assert!(!msg.is_empty());
                let reply = wire::error_reply(id, &msg);
                let prefixed = reply.starts_with(&format!("{id} ERR "));
                prop_assert!(prefixed);
            }
        }
    }

    /// Well-formed requests round-trip the id and decode the verb,
    /// whatever the id magnitude or verb casing.
    #[test]
    fn well_formed_requests_round_trip(
        id in 0u64..u64::MAX,
        verb in 0usize..4,
        node in 0usize..100_000,
        upper in 0usize..2,
    ) {
        let name = ["route", "links", "reach", "info"][verb];
        let name = if upper == 1 { name.to_ascii_uppercase() } else { name.to_string() };
        let datagram = if verb == 3 {
            format!("{id} {name}")
        } else {
            format!("{id} {name} {node}")
        };
        let (got_id, req) = wire::parse(&datagram).expect("well-formed request");
        prop_assert_eq!(got_id, id);
        let node_of = |r: Request| match r {
            Request::Route(v) | Request::Links(v) | Request::Reach(v) => Some(v.index()),
            Request::Info => None,
        };
        prop_assert_eq!(node_of(req), if verb == 3 { None } else { Some(node) });
    }

    /// Any non-numeric node token is rejected under the caller's id —
    /// bytes 58..=126 cover printable ASCII with no digits and no
    /// whitespace, so the token survives tokenization intact.
    #[test]
    fn garbage_node_tokens_echo_the_id(
        id in 0u64..10_000,
        junk in proptest::collection::vec(58u8..=126, 1..12),
    ) {
        let token = String::from_utf8(junk).expect("range is ASCII");
        let (got_id, msg) = err(&format!("{id} ROUTE {token}"));
        prop_assert_eq!(got_id, id);
        prop_assert!(msg.contains("bad node argument"), "{}", msg);
    }
}

/// End-to-end over a real socket: a non-UTF-8 datagram and an
/// over-sized one both draw error replies, both bump the error
/// counter, and the worker keeps serving afterwards.
#[test]
fn udp_front_end_survives_malformed_and_oversized_datagrams() {
    let server = Server::start(ServeConfig {
        nodes: 100,
        warmup_steps: 40,
        query_threads: 2,
        metrics: Metrics::enabled(),
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.udp_addr();
    let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
    socket.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let ask = |bytes: &[u8]| -> String {
        socket.send_to(bytes, addr).unwrap();
        let mut buf = [0u8; 4096];
        let (len, _) = socket.recv_from(&mut buf).unwrap();
        String::from_utf8_lossy(&buf[..len]).into_owned()
    };

    // Invalid UTF-8 cannot carry an id, so the reply goes to id 0.
    assert_eq!(ask(&[0xff, 0xfe, b' ', b'A']), "0 ERR request is not utf-8");

    // A datagram past the worker's buffer is truncated by the kernel,
    // so the worker sees the first RECV_BUF bytes. Here that leaves an
    // id, a verb, and a node token too wide for usize — the reply must
    // still reach id 7 rather than vanishing.
    let oversized = format!("7 ROUTE {}", "9".repeat(2 * RECV_BUF));
    let reply = ask(oversized.as_bytes());
    assert!(reply.starts_with("7 ERR bad node argument"), "{reply}");

    // The worker survived both: a valid query still gets answered.
    let info = ask(b"11 INFO");
    assert!(info.starts_with("11 OK step=40 "), "{info}");

    let metrics = server.metrics().snapshot();
    assert!(metrics.counters["serve_query_errors_total"] >= 2, "{:?}", metrics.counters);
    server.shutdown();
}
