//! Golden bytes for the query API.
//!
//! Every endpoint is rendered on a fixed seeded ledger — sealed, pruned,
//! confirmed and pending transactions of every payload kind, and credit
//! with fractional weights and penalties — and the full HTTP response is
//! compared with one built here by `format!` and a reference hex encoder
//! (`format!("{b:02x}")` per byte). The renderers may write however they
//! like; the bytes on the wire may not change.

use biot_credit::{CreditBreakdown, CreditEvent, CreditLedger, CreditParams, Misbehavior};
use biot_crypto::sha256::{from_hex, to_hex};
use biot_net::time::SimTime;
use biot_node::api::{render_http, ApiState, HealthInfo};
use biot_node::Request;
use biot_tangle::graph::{Tangle, TxStatus};
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder, TxId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The reference encoder the renderers are pinned to.
fn ref_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn bytes<const N: usize>(rng: &mut StdRng) -> [u8; N] {
    let mut b = [0; N];
    rng.fill_bytes(&mut b);
    b
}

fn payload(rng: &mut StdRng, k: usize) -> Payload {
    match k % 4 {
        0 => Payload::Data(vec![rng.gen(); rng.gen_range(0..40)]),
        1 => Payload::EncryptedData {
            iv: bytes(rng),
            ciphertext: vec![rng.gen(); 16 * rng.gen_range(1..4usize)],
        },
        2 => Payload::Spend {
            token: bytes(rng),
            to: NodeId(bytes(rng)),
        },
        _ => Payload::AuthList {
            devices: vec![NodeId(bytes(rng)); rng.gen_range(1..4)],
            signature: vec![rng.gen(); 64],
        },
    }
}

/// A ledger that has been through attach, confirm, seal and prune.
fn world() -> (Tangle, CreditLedger, HealthInfo, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(0x901d);
    let devices: Vec<NodeId> = (0..5).map(|_| NodeId(bytes(&mut rng))).collect();
    let mut tangle = Tangle::new();
    let genesis = tangle.attach_genesis(NodeId([0; 32]), 0);
    let mut ids = vec![genesis];
    for k in 0..160usize {
        let pick = |rng: &mut StdRng| ids[rng.gen_range(ids.len().saturating_sub(12)..ids.len())];
        let (trunk, branch) = (pick(&mut rng), pick(&mut rng));
        let at = 10 * (k as u64 + 1);
        let tx = TransactionBuilder::new(devices[k % devices.len()])
            .parents(trunk, branch)
            .payload(payload(&mut rng, k))
            .timestamp_ms(at - 3)
            .build();
        ids.push(tangle.attach(tx, at).expect("fresh tokens never conflict"));
        if k % 20 == 19 {
            tangle.confirm_with_threshold(4);
            tangle.seal_frontier(6);
        }
        if k == 120 {
            tangle.snapshot(400);
        }
    }
    assert!(tangle.sealed_len() > 0 && tangle.pruned_count() > 0 && tangle.tip_count() > 1);
    let mut credits = CreditLedger::new(CreditParams::default());
    for (i, node) in devices.iter().enumerate().take(4) {
        for j in 0..3u64 {
            let w = 1.0 + i as f64 / 3.0 + j as f64 * 0.53;
            credits.apply(&CreditEvent::validated(
                *node,
                w,
                SimTime::from_millis(900 + 700 * j),
            ));
        }
    }
    credits.apply(&CreditEvent::misbehaved(
        devices[1],
        Misbehavior::LazyTips,
        SimTime::from_millis(1_500),
    ));
    credits.apply(&CreditEvent::misbehaved(
        devices[2],
        Misbehavior::DoubleSpend,
        SimTime::from_millis(1_900),
    ));
    let health = HealthInfo {
        role: "archival",
        ready_peers: 2,
        credit_events: 14,
        now_ms: 2_000,
    };
    (tangle, credits, health, devices)
}

fn get(target: &str, keep_alive: bool) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: "GET".into(),
        path: path.into(),
        query: query.into(),
        keep_alive,
    }
}

fn http(status: u16, reason: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

fn ok(body: String) -> (u16, &'static str, String) {
    (200, "OK", body)
}

fn error(status: u16, reason: &'static str, msg: &str) -> (u16, &'static str, String) {
    (status, reason, format!("{{\"error\":\"{msg}\"}}"))
}

fn breakdown(b: &CreditBreakdown) -> String {
    format!(
        "\"positive\":{},\"negative\":{},\"combined\":{}",
        b.positive, b.negative, b.combined
    )
}

fn kind(p: &Payload) -> &'static str {
    match p {
        Payload::Data(_) => "data",
        Payload::EncryptedData { .. } => "encrypted",
        Payload::Spend { .. } => "spend",
        Payload::AuthList { .. } => "auth_list",
    }
}

/// Every endpoint with the response the reference renderer gives it.
fn golden(
    tangle: &Tangle,
    credits: &CreditLedger,
    health: &HealthInfo,
    devices: &[NodeId],
) -> Vec<(String, (u16, &'static str, String))> {
    let mut cases = Vec::new();
    cases.push((
        "/v1/health".to_string(),
        ok(format!(
            "{{\"role\":\"{}\",\"now_ms\":{},\"tangle_len\":{},\"tips\":{},\"ready_peers\":{},\"credit_events\":{}}}",
            health.role,
            health.now_ms,
            tangle.len(),
            tangle.tip_count(),
            health.ready_peers,
            health.credit_events
        )),
    ));
    let seal = tangle.seal_stats();
    cases.push((
        "/v1/stats".to_string(),
        ok(format!(
            "{{\"len\":{},\"tips\":{},\"total_attached\":{},\"pruned\":{},\"sealed_len\":{},\"frontier_len\":{}}}",
            tangle.len(),
            tangle.tip_count(),
            tangle.total_attached(),
            tangle.pruned_ids().len(),
            seal.sealed_len,
            seal.frontier_len
        )),
    ));
    let tips: Vec<String> = tangle
        .tips()
        .iter()
        .map(|id| format!("\"{}\"", ref_hex(&id.0)))
        .collect();
    cases.push((
        "/v1/tips".to_string(),
        ok(format!(
            "{{\"count\":{},\"tips\":[{}]}}",
            tips.len(),
            tips.join(",")
        )),
    ));
    for at_ms in [health.now_ms, 1_200, 400_000] {
        let rows: Vec<String> = credits
            .known_nodes()
            .map(|n| {
                let b = credits.credit_of(*n, SimTime::from_millis(at_ms));
                format!("{{\"node\":\"{}\",{}}}", ref_hex(&n.0), breakdown(&b))
            })
            .collect();
        let body = ok(format!(
            "{{\"at_ms\":{at_ms},\"count\":{},\"nodes\":[{}]}}",
            rows.len(),
            rows.join(",")
        ));
        let target = if at_ms == health.now_ms {
            "/v1/credit".to_string()
        } else {
            format!("/v1/credit?at_ms={at_ms}")
        };
        cases.push((target, body));
        for n in devices.iter().take(4) {
            let b = credits.credit_of(*n, SimTime::from_millis(at_ms));
            let body = ok(format!(
                "{{\"node\":\"{}\",\"at_ms\":{at_ms},{}}}",
                ref_hex(&n.0),
                breakdown(&b)
            ));
            let target = if at_ms == health.now_ms {
                format!("/v1/credit/{}", ref_hex(&n.0))
            } else {
                format!("/v1/credit/{}?at_ms={at_ms}", ref_hex(&n.0))
            };
            cases.push((target, body));
        }
    }
    for id in tangle.attach_order() {
        let tx = tangle.get(id).expect("ordered ids are stored");
        let status = match tangle.status(id) {
            Some(TxStatus::Confirmed) => "confirmed",
            _ => "pending",
        };
        cases.push((
            format!("/v1/tx/{}", ref_hex(&id.0)),
            ok(format!(
                "{{\"id\":\"{}\",\"issuer\":\"{}\",\"trunk\":\"{}\",\"branch\":\"{}\",\"payload\":\"{}\",\"payload_len\":{},\"timestamp_ms\":{},\"attach_time_ms\":{},\"status\":\"{}\",\"cumulative_weight\":{},\"approvers\":{}}}",
                ref_hex(&id.0),
                ref_hex(&tx.issuer.0),
                ref_hex(&tx.trunk.0),
                ref_hex(&tx.branch.0),
                kind(&tx.payload),
                tx.payload.len(),
                tx.timestamp_ms,
                tangle.attach_time_ms(id).unwrap_or(0),
                status,
                tangle.cumulative_weight(id),
                tangle.approvers(id).len()
            )),
        ));
        cases.push((
            format!("/v1/weight/{}", ref_hex(&id.0)),
            ok(format!(
                "{{\"id\":\"{}\",\"cumulative_weight\":{},\"confirmed\":{}}}",
                ref_hex(&id.0),
                tangle.cumulative_weight(id),
                tangle.status(id) == Some(TxStatus::Confirmed)
            )),
        ));
    }
    let pruned = tangle.pruned_ids()[0];
    let unknown = ref_hex(&[0xab; 32]);
    cases.extend([
        (
            format!("/v1/tx/{}", ref_hex(&pruned.0)),
            error(
                404,
                "Not Found",
                "transaction pruned into snapshot baseline",
            ),
        ),
        (
            format!("/v1/tx/{unknown}"),
            error(404, "Not Found", "unknown transaction"),
        ),
        (
            format!("/v1/weight/{unknown}"),
            error(404, "Not Found", "unknown transaction"),
        ),
        (
            format!("/v1/credit/{unknown}"),
            error(404, "Not Found", "unknown device"),
        ),
        (
            "/v1/tx/abc".to_string(),
            error(400, "Bad Request", "id must be 64 hex chars"),
        ),
        (
            "/v1/nope".to_string(),
            error(404, "Not Found", "no such endpoint"),
        ),
    ]);
    cases
}

#[test]
fn every_endpoint_renders_the_golden_bytes() {
    let (tangle, credits, health, devices) = world();
    let state = ApiState {
        tangle: &tangle,
        credits: &credits,
        health: &health,
    };
    let cases = golden(&tangle, &credits, &health, &devices);
    assert!(cases.len() > 200, "{} cases", cases.len());
    for (target, (status, reason, body)) in cases {
        for keep_alive in [true, false] {
            assert_eq!(
                String::from_utf8(render_http(&state, &get(&target, keep_alive))).unwrap(),
                String::from_utf8(http(status, reason, &body, keep_alive)).unwrap(),
                "GET {target}"
            );
        }
    }
    let post = Request {
        method: "POST".into(),
        ..get("/v1/health", true)
    };
    assert_eq!(
        render_http(&state, &post),
        http(
            405,
            "Method Not Allowed",
            "{\"error\":\"method not allowed\"}",
            true
        )
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn to_hex_matches_the_reference_encoder(bytes in proptest::collection::vec(any::<u8>(), 0..65)) {
        let hex = to_hex(&bytes);
        prop_assert_eq!(&hex, &ref_hex(&bytes));
        prop_assert_eq!(from_hex(&hex), Some(bytes));
    }
}

#[test]
fn to_hex_covers_every_byte_value() {
    let all: Vec<u8> = (0..=255).collect();
    assert_eq!(to_hex(&all), ref_hex(&all));
    assert_eq!(to_hex(&[]), "");
    assert_eq!(from_hex(&to_hex(&all)).unwrap(), all);
    let id = TxId([0x5a; 32]);
    assert_eq!(id.to_string(), ref_hex(&id.0));
}
