//! The UDP query/reply wire protocol: one request per datagram, one
//! reply per datagram, plain ASCII text.
//!
//! Requests (`<id>` is a caller-chosen u64 echoed verbatim in the
//! reply, for matching replies to requests over a shared socket):
//!
//! ```text
//! <id> ROUTE <node>     best current route from <node> to a gateway
//! <id> LINKS <node>     <node>'s live out-links
//! <id> REACH <node>     does <node>'s next-hop chain reach a gateway?
//! <id> INFO             snapshot header + map summary
//! ```
//!
//! Replies all start `<id> OK step=<s> topo=<t> seq=<q>` — the header
//! of the *one* snapshot the whole answer was computed from (staleness
//! semantics: the answer is exact as of step `s` / topology version
//! `t`, not of the instant the datagram arrived) — followed by a body:
//!
//! ```text
//! route gw=<g> next=<x> hops=<h> age=<a>   (or `route none`)
//! links n=<k> <v1> <v2> ...
//! reach 0|1
//! info nodes=<n> gateways=<g> reachable=<fraction>
//! ```
//!
//! Malformed requests and out-of-range nodes get `<id> ERR <message>`
//! (id `0` when no id could be parsed). Verbs are case-insensitive.

use crate::snapshot::MapSnapshot;
use agentnet_graph::NodeId;
use std::fmt::Write as _;

/// A parsed query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    /// Best current route from the node to any live gateway.
    Route(NodeId),
    /// The node's live out-links.
    Links(NodeId),
    /// Whether the node's next-hop chain reaches a live gateway.
    Reach(NodeId),
    /// Snapshot header and map summary.
    Info,
}

/// Parses one request datagram.
///
/// # Errors
///
/// `(id, message)` — the id is whatever could be parsed from the first
/// token (0 otherwise), so the error reply still reaches the right
/// caller slot.
pub fn parse(datagram: &str) -> Result<(u64, Request), (u64, String)> {
    let mut parts = datagram.split_ascii_whitespace();
    let id_token = parts.next().ok_or((0, "empty request".to_string()))?;
    let id = id_token.parse::<u64>().map_err(|_| (0, format!("bad request id {id_token:?}")))?;
    let verb = parts.next().ok_or((id, "missing verb".to_string()))?;
    let node_arg =
        |parts: &mut std::str::SplitAsciiWhitespace<'_>| -> Result<NodeId, (u64, String)> {
            let token = parts.next().ok_or((id, format!("{verb} needs a node argument")))?;
            let index =
                token.parse::<usize>().map_err(|_| (id, format!("bad node argument {token:?}")))?;
            Ok(NodeId::new(index))
        };
    let req = match verb.to_ascii_uppercase().as_str() {
        "ROUTE" => Request::Route(node_arg(&mut parts)?),
        "LINKS" => Request::Links(node_arg(&mut parts)?),
        "REACH" => Request::Reach(node_arg(&mut parts)?),
        "INFO" => Request::Info,
        other => return Err((id, format!("unknown verb {other:?}"))),
    };
    if parts.next().is_some() {
        return Err((id, "trailing tokens after request".to_string()));
    }
    Ok((id, req))
}

/// Renders the reply to `req` computed from `snap` — a pure function of
/// the snapshot, so identical snapshots give byte-identical replies.
pub fn respond(id: u64, req: Request, snap: &MapSnapshot) -> String {
    let answer = |body: Result<String, String>| match body {
        Ok(body) => {
            let h = snap.header();
            format!("{id} OK step={} topo={} seq={} {body}", h.step, h.topology_version, h.seq)
        }
        Err(msg) => error_reply(id, &msg),
    };
    match req {
        Request::Route(node) => answer(snap.route(node).map(|route| match route {
            Some(r) => format!(
                "route gw={} next={} hops={} age={}",
                r.gateway.index(),
                r.next_hop.index(),
                r.hops,
                r.age
            ),
            None => "route none".to_string(),
        })),
        Request::Links(node) => answer(snap.links_of(node).map(|links| {
            let mut body = format!("links n={}", links.len());
            for v in links {
                let _ = write!(body, " {}", v.index());
            }
            body
        })),
        Request::Reach(node) => {
            answer(snap.is_reachable(node).map(|ok| format!("reach {}", u8::from(ok))))
        }
        Request::Info => answer(Ok(format!(
            "info nodes={} gateways={} reachable={:.6}",
            snap.node_count(),
            snap.gateways().len(),
            snap.reachable_fraction()
        ))),
    }
}

/// Renders an error reply.
pub fn error_reply(id: u64, msg: &str) -> String {
    format!("{id} ERR {msg}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentnet_baselines::zoo::{build_protocol, ZooParams};
    use agentnet_core::routing::ProtocolKind;
    use agentnet_engine::Step;
    use agentnet_radio::NetworkBuilder;

    fn snap() -> MapSnapshot {
        let net = NetworkBuilder::new(40).gateways(3).target_edges(320).build(5).unwrap();
        let mut protocol =
            build_protocol(ProtocolKind::Agents, net, &ZooParams::with_population(12), 5).unwrap();
        for s in 0..60 {
            protocol.step(Step::new(s));
        }
        MapSnapshot::capture(protocol.as_ref(), Step::new(60))
    }

    #[test]
    fn requests_parse_and_echo_ids() {
        assert_eq!(parse("7 ROUTE 12"), Ok((7, Request::Route(NodeId::new(12)))));
        assert_eq!(parse("0 links 3"), Ok((0, Request::Links(NodeId::new(3)))));
        assert_eq!(parse("  9  REACH  0  "), Ok((9, Request::Reach(NodeId::new(0)))));
        assert_eq!(parse("42 INFO"), Ok((42, Request::Info)));
    }

    #[test]
    fn malformed_requests_carry_the_parsed_id() {
        assert_eq!(parse("").unwrap_err().0, 0);
        assert_eq!(parse("x ROUTE 1").unwrap_err().0, 0);
        assert_eq!(parse("5").unwrap_err().0, 5);
        assert_eq!(parse("5 FLY 1").unwrap_err().0, 5);
        assert_eq!(parse("5 ROUTE").unwrap_err().0, 5);
        assert_eq!(parse("5 ROUTE abc").unwrap_err().0, 5);
        assert_eq!(parse("5 INFO extra").unwrap_err().0, 5);
    }

    #[test]
    fn replies_carry_the_snapshot_header_and_id() {
        let snap = snap();
        let h = snap.header();
        let reply = respond(31, Request::Info, &snap);
        assert!(reply.starts_with(&format!(
            "31 OK step={} topo={} seq={} info nodes=40 gateways=3",
            h.step, h.topology_version, h.seq
        )));
    }

    #[test]
    fn route_replies_match_the_snapshot() {
        let snap = snap();
        let routed = (0..40)
            .find(|&v| matches!(snap.route(NodeId::new(v)), Ok(Some(_))))
            .expect("warmed map has at least one route");
        let r = snap.route(NodeId::new(routed)).unwrap().unwrap();
        let reply = respond(1, Request::Route(NodeId::new(routed)), &snap);
        assert!(
            reply.contains(&format!(
                "route gw={} next={} hops={} age={}",
                r.gateway.index(),
                r.next_hop.index(),
                r.hops,
                r.age
            )),
            "{reply}"
        );
        let gw = snap.gateways()[0];
        assert!(respond(2, Request::Route(gw), &snap).contains("route none"));
    }

    #[test]
    fn links_and_reach_replies_are_exact() {
        let snap = snap();
        let node = NodeId::new(1);
        let links = snap.links_of(node).unwrap();
        let reply = respond(3, Request::Links(node), &snap);
        assert!(reply.contains(&format!("links n={}", links.len())), "{reply}");
        for v in links {
            assert!(reply.contains(&format!(" {}", v.index())), "{reply}");
        }
        let reach = respond(4, Request::Reach(node), &snap);
        let expected = u8::from(snap.is_reachable(node).unwrap());
        assert!(reach.ends_with(&format!("reach {expected}")), "{reach}");
    }

    #[test]
    fn out_of_range_nodes_are_errors_not_panics() {
        let snap = snap();
        for req in [
            Request::Route(NodeId::new(999)),
            Request::Links(NodeId::new(999)),
            Request::Reach(NodeId::new(999)),
        ] {
            let reply = respond(8, req, &snap);
            assert!(reply.starts_with("8 ERR"), "{reply}");
        }
        assert_eq!(error_reply(3, "boom"), "3 ERR boom");
    }
}
