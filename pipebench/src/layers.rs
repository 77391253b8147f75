//! Per-layer figures of a traced run.
//!
//! Leaf costs replay the run's own frames, transactions and credit
//! events through each layer's public function after the run, timing
//! every call. Handler costs come from the traced run's spans; live
//! counters come from the members' own stats.

use crate::driver::{Handler, Traced};
use crate::gen::Endpoint;
use crate::run::Outcome;
use crate::setup::{Identities, Stream};
use crate::stats::Metrics;
use biot_core::node::VerifyConfig;
use biot_core::pow::pow_hash;
use biot_credit::{CreditEvent, CreditLedger};
use biot_crypto::sha256::leading_zero_bits;
use biot_ingest::protocol::{decode_client, AckCode};
use biot_net::time::SimTime;
use biot_node::http::Request;
use biot_node::role::{ArchivalNode, ValidationNode};
use biot_store::LedgerStore;
use biot_tangle::graph::Tangle;
use biot_tangle::tx::{Transaction, TxId};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Transactions the store replay appends (each append syncs the WAL, so
/// the replay is capped; the figure is per transaction).
const STORE_REPLAY_TXS: usize = 2_000;
/// Credit-event batches the store replay appends.
const STORE_REPLAY_BATCHES: usize = 200;
/// Most weight reads timed on the end state.
const WEIGHT_READS: usize = 20_000;
/// Repetitions and time budget per endpoint render.
const RENDER_REPS: usize = 200;
const RENDER_BUDGET: Duration = Duration::from_millis(100);

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times `f` and returns its result with the elapsed time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed())
}

/// Sent frames with an ack, their transactions, and the loop instant of
/// the ack (the replay's `now`).
fn acked_batches(stream: &Stream, out: &Outcome) -> Vec<(Vec<Transaction>, SimTime)> {
    out.ingest
        .frames
        .iter()
        .enumerate()
        .filter_map(|(f, log)| {
            let at = log.ack_ns?;
            Some((
                Stream::decode(&stream.frames[f]),
                SimTime::from_millis(at / 1_000_000),
            ))
        })
        .collect()
}

/// Replays the batches through a fresh twin gateway; returns µs per
/// transaction and the number accepted.
fn replay_submit(
    ids: &Identities,
    batches: &[(Vec<Transaction>, SimTime)],
    threads: usize,
) -> (f64, usize) {
    let mut gateway = ids.gateway();
    gateway.set_verify_config(VerifyConfig { threads });
    let (mut total, mut txs, mut accepted) = (Duration::ZERO, 0usize, 0usize);
    for (batch, now) in batches {
        txs += batch.len();
        let batch = batch.clone();
        let (results, d) = timed(|| gateway.submit_batch(batch, *now));
        total += d;
        accepted += results.iter().filter(|r| r.is_ok()).count();
    }
    (us(total) / txs.max(1) as f64, accepted)
}

pub fn replay(
    ids: &Identities,
    stream: &Stream,
    out: &Outcome,
    traced: &Traced,
    work_dir: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let v: &ValidationNode = crate::driver::Driver::validation(traced);
    let a: &ArchivalNode = crate::driver::Driver::archival(traced);
    let accepted = out.accepted.len().max(1) as f64;

    // --- ingest --------------------------------------------------------
    let mut decode = Duration::ZERO;
    let mut readings = 0usize;
    for f in 0..out.ingest.frames.len() {
        let frame = &stream.frames[f];
        let (msg, d) = timed(|| decode_client(&frame.bytes[4..]));
        msg.map_err(|e| format!("replay decode: {e}"))?;
        decode += d;
        readings += frame.len;
    }
    let decode_us = us(decode) / readings.max(1) as f64;
    m.put("ingest.decode_us_per_tx", decode_us, "us");
    let count = |pred: &dyn Fn(AckCode) -> bool| -> f64 {
        out.ingest
            .frames
            .iter()
            .flat_map(|f| &f.codes)
            .filter(|&&c| pred(c))
            .count() as f64
    };
    m.put(
        "ingest.refused.busy",
        count(&|c| c == AckCode::Busy),
        "count",
    );
    m.put(
        "ingest.refused.rate_limited",
        count(&|c| c == AckCode::RateLimited),
        "count",
    );
    m.put(
        "ingest.refused.rejected",
        count(&|c| !matches!(c, AckCode::Accepted | AckCode::Busy | AckCode::RateLimited)),
        "count",
    );

    // --- gateway -------------------------------------------------------
    let batches = acked_batches(stream, out);
    let (submit_us, twin_accepted) = replay_submit(ids, &batches, 1);
    if twin_accepted != out.accepted.len() {
        return Err(format!(
            "twin gateway accepted {twin_accepted} of the {} readings the node accepted",
            out.accepted.len()
        ));
    }
    let (submit2_us, _) = replay_submit(ids, &batches, 2);
    m.put("gateway.submit_batch_us_per_tx", submit_us, "us");
    m.put("gateway.submit_batch_us_per_tx_threads2", submit2_us, "us");
    let keys: std::collections::HashMap<_, _> = ids
        .devices
        .iter()
        .map(|d| (d.id(), d.public_key().clone()))
        .collect();
    let twin = ids.gateway();
    let (mut sig, mut pow, mut diff, mut n) = (Duration::ZERO, Duration::ZERO, Duration::ZERO, 0);
    for (batch, now) in &batches {
        for tx in batch {
            let key = &keys[&tx.issuer];
            let (ok, d) = timed(|| key.verify(&tx.signing_bytes(), &tx.signature));
            if !ok {
                return Err("replayed signature does not verify".into());
            }
            sig += d;
            let (zeros, d) = timed(|| leading_zero_bits(&pow_hash(&tx.pow_preimage(), tx.nonce)));
            black_box(zeros);
            pow += d;
            let (_, d) = timed(|| twin.difficulty_for(tx.issuer, *now));
            diff += d;
            n += 1;
        }
    }
    let per = |d: Duration| us(d) / f64::from(n.max(1));
    m.put("gateway.sig_verify_us_per_tx", per(sig), "us");
    m.put("gateway.pow_check_us_per_tx", per(pow), "us");
    m.put("gateway.difficulty_us_per_tx", per(diff), "us");
    let gs = v.gateway().stats();
    m.put(
        "gateway.rejected",
        (gs.rejected_unauthorized
            + gs.rejected_rate_limited
            + gs.rejected_bad_signature
            + gs.rejected_insufficient_pow
            + gs.rejected_ledger) as f64,
        "count",
    );

    // --- tangle --------------------------------------------------------
    let (order, genesis_issuer): (Vec<(Transaction, u64)>, _) = {
        let t = a.gossip().tangle().lock().expect("archival tangle lock");
        let g = t.genesis().ok_or("archival tangle has no genesis")?;
        let order = t
            .attach_order()
            .iter()
            .filter(|id| **id != g)
            .map(|id| {
                (
                    t.get(id).expect("ordered id is stored").clone(),
                    t.attach_time_ms(id).unwrap_or(0),
                )
            })
            .collect();
        (order, t.get(&g).expect("genesis stored").issuer)
    };
    let mut replica = Tangle::new();
    if replica.attach_genesis(genesis_issuer, 0) != ids.genesis {
        return Err("replayed genesis differs".into());
    }
    let mut attach_us = Vec::with_capacity(order.len());
    for (tx, at) in &order {
        let tx = tx.clone();
        let (r, d) = timed(|| replica.attach(tx, *at));
        r.map_err(|e| format!("replay attach: {e}"))?;
        attach_us.push(us(d));
    }
    let decile = (attach_us.len() / 10).max(1);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len().max(1) as f64;
    let attach_mean = mean(&attach_us);
    m.put(
        "tangle.attach_us_first_decile",
        mean(&attach_us[..decile.min(attach_us.len())]),
        "us",
    );
    m.put(
        "tangle.attach_us_last_decile",
        mean(&attach_us[attach_us.len().saturating_sub(decile)..]),
        "us",
    );
    let copies = v.gateway().tangle().len()
        + v.gossip()
            .tangle()
            .lock()
            .expect("validation tangle lock")
            .len()
        + a.gossip()
            .tangle()
            .lock()
            .expect("archival tangle lock")
            .len();
    m.put("tangle.copies_per_tx", copies as f64 / accepted, "1/tx");
    {
        let t = a.gossip().tangle().lock().expect("archival tangle lock");
        m.put("tangle.tips_end", t.tip_count() as f64, "count");
        let stride = (order.len() / WEIGHT_READS).max(1);
        let ids_read: Vec<TxId> = order
            .iter()
            .step_by(stride)
            .map(|(tx, _)| tx.id())
            .collect();
        let (_, d) = timed(|| {
            ids_read
                .iter()
                .map(|id| t.cumulative_weight(id))
                .sum::<u64>()
        });
        m.put(
            "tangle.weight_read_us",
            us(d) / ids_read.len().max(1) as f64,
            "us",
        );
    }

    // --- gossip --------------------------------------------------------
    let (vs, as_) = (v.gossip().stats(), a.gossip().stats());
    m.put(
        "gossip.frames_out_per_tx",
        (vs.frames_out + as_.frames_out) as f64 / accepted,
        "1/tx",
    );
    m.put(
        "gossip.tx_sent_per_tx",
        (vs.tx_sent + as_.tx_sent) as f64 / accepted,
        "1/tx",
    );
    m.put(
        "gossip.digest_ids_per_tx",
        (vs.digest_ids_sent + as_.digest_ids_sent) as f64 / accepted,
        "1/tx",
    );
    m.put(
        "gossip.requests_per_tx",
        (vs.requests_sent + as_.requests_sent) as f64 / accepted,
        "1/tx",
    );
    m.put(
        "gossip.duplicates",
        (vs.duplicates + as_.duplicates) as f64,
        "count",
    );
    m.put(
        "gossip.dup_suppressed",
        (vs.dup_suppressed + as_.dup_suppressed) as f64,
        "count",
    );
    m.put("gossip.evicted", (vs.evicted + as_.evicted) as f64, "count");
    m.put(
        "gossip.credit_events_dropped",
        (vs.credit_events_dropped + as_.credit_events_dropped) as f64,
        "count",
    );
    m.put("gossip.pending_max", out.pending_max as f64, "count");

    // --- credit --------------------------------------------------------
    let log: &[CreditEvent] = v.credit_log();
    m.put("credit.events_per_tx", log.len() as f64 / accepted, "1/tx");
    let mut ledger = CreditLedger::new(*v.gateway().credits().params());
    let (_, d) = timed(|| log.iter().for_each(|ev| ledger.apply(ev)));
    m.put(
        "credit.apply_us_per_event",
        us(d) / log.len().max(1) as f64,
        "us",
    );
    let probe = SimTime::from_millis(out.drain_end_ns / 1_000_000);
    let (r, d) = timed(|| v.verify_replay(probe));
    r.map_err(|e| format!("verify_replay: {e}"))?;
    m.put("credit.verify_replay_ms", d.as_secs_f64() * 1e3, "ms");

    // --- store ---------------------------------------------------------
    let dir = work_dir.join(format!("store-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut store = LedgerStore::open(&dir).map_err(|e| format!("store open: {e}"))?;
        let n = order.len().min(STORE_REPLAY_TXS);
        let (r, d) = timed(|| {
            order[..n]
                .iter()
                .try_for_each(|(tx, at)| store.append(tx, *at))
        });
        r.map_err(|e| format!("store append: {e}"))?;
        let wal = store.wal_size().map_err(|e| format!("store size: {e}"))?;
        m.put("store.append_us_per_tx", us(d) / n.max(1) as f64, "us");
        m.put(
            "store.wal_bytes_per_tx",
            wal as f64 / n.max(1) as f64,
            "bytes",
        );
        // The archival node appends credit events as they arrive; the
        // log's same-instant runs stand in for those arrivals.
        let batches: Vec<&[CreditEvent]> = log
            .chunk_by(|x, y| x.at() == y.at())
            .take(STORE_REPLAY_BATCHES)
            .collect();
        let (r, d) = timed(|| {
            batches
                .iter()
                .try_for_each(|b| store.append_credit_events(b))
        });
        r.map_err(|e| format!("store credit append: {e}"))?;
        m.put(
            "store.credit_append_us_per_batch",
            us(d) / batches.len().max(1) as f64,
            "us",
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // --- node ----------------------------------------------------------
    // Handler time in the write phase: first send to drain end.
    let busy = |h: Handler| -> f64 {
        traced
            .spans
            .iter()
            .filter(|s| {
                s.handler == h && (out.first_send_ns..out.drain_end_ns).contains(&s.start_ns)
            })
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .sum()
    };
    let per_tx = [
        (
            "node.validation.on_ingest_us_per_tx",
            Handler::ValidationIngest,
        ),
        (
            "node.validation.on_gossip_us_per_tx",
            Handler::ValidationGossip,
        ),
        ("node.archival.on_gossip_us_per_tx", Handler::ArchivalGossip),
        (
            "node.archival.on_persist_us_per_tx",
            Handler::ArchivalPersist,
        ),
    ];
    let mut write_busy = busy(Handler::Accept);
    for (name, h) in per_tx {
        let b = busy(h);
        write_busy += b;
        m.put(name, b / accepted, "us");
    }
    let all_http: f64 = traced
        .spans
        .iter()
        .filter(|s| s.handler == Handler::ArchivalHttp)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .sum();
    m.put(
        "node.archival.on_http_us_per_query",
        all_http / traced.http_answered.max(1) as f64,
        "us",
    );
    let wall_us = (out.drain_end_ns - out.first_send_ns) as f64 / 1e3;
    m.put(
        "node.loop_busy_frac",
        (write_busy + busy(Handler::ArchivalHttp)) / wall_us,
        "frac",
    );
    // Each reading is attached three times: in the gateway (inside
    // submit_batch), the validation node's gossip tangle, and the
    // archival tangle.
    let leaves = decode_us + submit_us + 2.0 * attach_mean;
    m.put(
        "trace.leaf_gap_us_per_tx",
        write_busy / accepted - leaves,
        "us",
    );

    // --- query ---------------------------------------------------------
    let sample_id = out.accepted.first().map_or(ids.genesis, |&r| stream.ids[r]);
    for e in Endpoint::ALL {
        let path = e.path(sample_id, ids.devices[0].id(), out.drain_end_ns / 1_000_000);
        let (path, query) = match path.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (path, String::new()),
        };
        let req = Request {
            method: "GET".into(),
            path,
            query,
            keep_alive: true,
        };
        let t0 = Instant::now();
        let mut reps = 0;
        while reps < RENDER_REPS && (reps < 3 || t0.elapsed() < RENDER_BUDGET) {
            black_box(a.oracle_response(&req));
            reps += 1;
        }
        m.put(
            format!("query.render_us.{}", e.name()),
            us(t0.elapsed()) / reps as f64,
            "us",
        );
    }
    m.put("query.non_200", out.tally.non_200 as f64, "count");
    Ok(())
}
