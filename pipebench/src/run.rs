//! One measured run: the generator threads against a driver, the drain,
//! and the correctness gate.

use crate::driver::Driver;
use crate::gen::{
    self, Endpoint, HttpConn, IngestLog, Pace, QueryLog, ReadPace, ReadPlan, Visible,
};
use crate::host::{damped_factor, host_normalized_ns, Probe};
use crate::setup::{
    Identities, Stream, Workload, FAN_THINK, FAN_WINDOW, READS_WRITE_RATE, READ_RATE,
};
use crate::stats::{poisson_schedule, read_rss_kb, thread_cpu_ns, Samples, Tally};
use biot_ingest::protocol::AckCode;
use biot_net::time::SimTime;
use biot_node::http::Request;
use biot_node::role::{ArchivalNode, ValidationNode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest the drain may take after the last ack: every accepted reading
/// visible on the archival node, both solidification queues empty, and
/// archival credit equal to gateway credit.
const DRAIN_MS: u64 = 10_000;
/// Readings whose `/v1/tx` and `/v1/weight` answers are compared byte
/// for byte with `ArchivalNode::oracle_response`.
const ORACLE_SAMPLE: usize = 32;

/// Records when each reading first appears in the archival tangle. Runs
/// on the event-loop thread, between turns, by walking the tangle's
/// attach order from where it left off.
struct Watch<'a> {
    stream: &'a Stream,
    origin: Instant,
    cursor: usize,
    visible_ns: Vec<Option<u64>>,
    visible: usize,
    /// Readings published for the HTTP thread to query.
    share: Visible,
    /// Visible readings whose issuer's credit the archival node does not
    /// know yet (credit events travel apart from transactions); held back
    /// so that `/v1/credit/{issuer}` cannot answer 404.
    unpublished: Vec<usize>,
    pending_max: usize,
    probe: Probe,
}

impl Watch<'_> {
    fn observe(&mut self, v: &ValidationNode, a: &ArchivalNode) {
        let now = gen::ns_since(self.origin);
        self.probe.tick(now);
        {
            let tangle = a.gossip().tangle().lock().expect("archival tangle lock");
            let order = tangle.attach_order();
            for id in &order[self.cursor.min(order.len())..] {
                if let Some(&r) = self.stream.index.get(id) {
                    self.visible_ns[r] = Some(now);
                    self.visible += 1;
                    self.unpublished.push(r);
                }
            }
            self.cursor = order.len();
        }
        if !self.unpublished.is_empty() {
            let mut share = self.share.lock().expect("visible list lock");
            let stream = self.stream;
            self.unpublished.retain(|&r| {
                let issuer = stream.issuers[r];
                let known = a.credits().tx_record_count(issuer) > 0;
                if known {
                    share.push((stream.ids[r], issuer));
                }
                !known
            });
        }
        self.pending_max = self
            .pending_max
            .max(v.gossip().pending_len())
            .max(a.gossip().pending_len());
    }
}

/// Archival credit equals gateway credit, bit for bit, for every device
/// the gateway knows, at `probe`.
fn credit_agrees(v: &ValidationNode, a: &ArchivalNode, probe: SimTime) -> Result<(), String> {
    let live = v.gateway().credits();
    for &node in live.known_nodes() {
        let g = live.credit_of(node, probe);
        let r = a.credits().credit_of(node, probe);
        if (g.positive, g.negative, g.combined) != (r.positive, r.negative, r.combined) {
            return Err(format!(
                "credit of {} differs: archival ({}, {}, {}) vs gateway ({}, {}, {})",
                node.short_hex(),
                r.positive,
                r.negative,
                r.combined,
                g.positive,
                g.negative,
                g.combined
            ));
        }
    }
    Ok(())
}

/// Everything a run measured.
pub struct Outcome {
    pub ingest: IngestLog,
    pub queries: Vec<QueryLog>,
    pub visible_ns: Vec<Option<u64>>,
    /// Accepted reading indices, in ack order.
    pub accepted: Vec<usize>,
    pub first_send_ns: u64,
    pub drain_end_ns: u64,
    pub tally: Tally,
    pub ack: Samples,
    pub visible: Samples,
    pub query: Samples,
    /// Open-loop send lateness, ms (ingest and HTTP).
    pub late: Samples,
    pub admitted_tps: f64,
    /// First send to last accepted ack, ns.
    pub active_ns: u64,
    /// `active_ns` as it would have lasted on the reference host
    /// ([`host_normalized_ns`], with the probe's factor damped by how
    /// busy the loop was in the window: [`damped_factor`]).
    pub active_hostnorm_ns: f64,
    pub rss_growth_mb: f64,
    /// On-CPU time of the event-loop thread from first send to drain
    /// end, ns: every turn of both roles, the run's watch between turns
    /// included, the host probe not.
    pub loop_cpu_ns: u64,
    /// `loop_cpu_ns` scaled to the reference host by the same damped
    /// factor.
    pub loop_cpu_hostnorm_ns: f64,
    /// The host probe's kernel times, ns (none in traced runs).
    pub probe: Vec<u64>,
    pub pending_max: usize,
    /// Driver wakeups from first send to drain end.
    pub wakeups: u64,
    /// Gate failures; empty means correct.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Pools another burst of the same run into this one: counts, samples
    /// and failures add up, and `admitted_tps` becomes the pooled rate.
    pub fn absorb(&mut self, o: Outcome) {
        self.ingest.frames.extend(o.ingest.frames);
        self.ingest.exhausted |= o.ingest.exhausted;
        self.queries.extend(o.queries);
        self.accepted.extend(o.accepted);
        self.tally.add(&o.tally);
        self.ack.extend(o.ack);
        self.visible.extend(o.visible);
        self.query.extend(o.query);
        self.late.extend(o.late);
        self.active_ns += o.active_ns;
        self.active_hostnorm_ns += o.active_hostnorm_ns;
        self.admitted_tps = self.accepted.len() as f64 / (self.active_ns as f64 / 1e9);
        self.rss_growth_mb = self.rss_growth_mb.max(o.rss_growth_mb);
        self.loop_cpu_ns += o.loop_cpu_ns;
        self.loop_cpu_hostnorm_ns += o.loop_cpu_hostnorm_ns;
        self.probe.extend(o.probe);
        self.pending_max = self.pending_max.max(o.pending_max);
        self.wakeups += o.wakeups;
        self.errors.extend(o.errors);
    }
}

pub struct Params<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub ids: &'a Identities,
    pub stream: Arc<Stream>,
    pub ingest_addr: SocketAddr,
    pub http_addr: SocketAddr,
    pub origin: Instant,
    /// Whether the host probe samples during the run.
    pub probe: bool,
}

/// Runs the event loop until `handle` finishes (or 30 s past `slack_ms`).
fn serve_until_done<D: Driver, T>(
    d: &mut D,
    handle: &JoinHandle<T>,
    slack_ms: u64,
    watch: &mut Watch<'_>,
) -> Result<(), String> {
    let deadline = d.now_ms() + slack_ms + 30_000;
    let done = d.run_until(deadline, &mut |v, a| {
        watch.observe(v, a);
        handle.is_finished()
    })?;
    if done {
        Ok(())
    } else {
        Err("generator did not finish before its deadline".into())
    }
}

pub fn run<D: Driver>(d: &mut D, p: &Params<'_>) -> Result<Outcome, String> {
    let origin = p.origin;
    let mut errors = Vec::new();
    let manager = p.ids.manager_id();
    let visible_share: Visible = Arc::new(Mutex::new(vec![
        (p.ids.genesis, manager),
        (p.ids.auth_id(), manager),
    ]));
    let mut watch = Watch {
        stream: &p.stream,
        origin,
        cursor: 0,
        visible_ns: vec![None; p.stream.ids.len()],
        visible: 0,
        share: visible_share.clone(),
        unpublished: Vec::new(),
        pending_max: 0,
        probe: Probe::new(p.probe),
    };
    let http = HttpConn::connect(p.http_addr).map_err(|e| format!("http connect: {e}"))?;

    // --- Write phase ---------------------------------------------------
    let rss0 = read_rss_kb().unwrap_or(0);
    let cpu0 = thread_cpu_ns().ok_or("no /proc/thread-self/schedstat")?;
    let wake0 = d.wakeups();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(p.seconds);
    let first_send_ns = start.duration_since(origin).as_nanos() as u64;
    let pace = match p.workload {
        Workload::TangleReads => Pace::Open {
            due: poisson_schedule(p.seed ^ 0x7772_6974, READS_WRITE_RATE, p.seconds),
        },
        _ => Pace::Closed { window: FAN_WINDOW },
    };
    let ingest = {
        let (addr, stream) = (p.ingest_addr, p.stream.clone());
        std::thread::spawn(move || gen::run_ingest(addr, stream, pace, origin, start, end))
    };
    // Beside the fan bursts one query is in flight at a time: it waits
    // for the end of the loop's current turn (about 10 ms when
    // saturated), so a Poisson schedule on the single connection would
    // queue (it did at 100/s) or leave few samples.
    let pace = match p.workload {
        Workload::TangleReads => {
            ReadPace::Open(poisson_schedule(p.seed ^ 0x7265_6164, READ_RATE, p.seconds))
        }
        _ => ReadPace::Closed {
            end,
            think: FAN_THINK,
        },
    };
    let plan = ReadPlan {
        pace,
        seed: p.seed,
        // Every fan reading is a tip: one /v1/tips answer would render
        // the whole burst.
        tips: !p.workload.is_fan(),
        visible: visible_share.clone(),
    };
    let reader = std::thread::spawn(move || gen::run_reads(http, plan, origin, start));
    serve_until_done(d, &ingest, (p.seconds * 1000.0) as u64, &mut watch)?;
    // The turn after the last ack: the loop's on-CPU time inside the
    // admitted window, the host probe's included (it held the loop).
    let window_cpu_ns = thread_cpu_ns().ok_or("no /proc/thread-self/schedstat")? - cpu0;
    serve_until_done(d, &reader, 0, &mut watch)?;
    let ingest = ingest.join().map_err(|_| "ingest thread panicked")?;
    let mut reads = reader.join().map_err(|_| "http thread panicked")?;
    if let Some(e) = &ingest.error {
        errors.push(format!("ingest connection: {e}"));
    }

    let mut accepted = Vec::new();
    let mut last_ack_ns = first_send_ns;
    for (f, log) in ingest.frames.iter().enumerate() {
        let frame = &p.stream.frames[f];
        if log.ack_ns.is_some() && !log.ids_ok {
            errors.push(format!(
                "frame {f}: ack ids differ from the submitted readings"
            ));
        }
        for (slot, code) in log.codes.iter().enumerate() {
            if *code == AckCode::Accepted {
                accepted.push(frame.first + slot);
                last_ack_ns = last_ack_ns.max(log.ack_ns.unwrap_or(0));
            }
        }
    }

    // --- Drain ---------------------------------------------------------
    let want = accepted.len();
    let drained = d.run_until(d.now_ms() + DRAIN_MS, &mut |v, a| {
        watch.observe(v, a);
        watch.visible >= want
            && v.gossip().pending_len() == 0
            && a.gossip().pending_len() == 0
            && credit_agrees(v, a, probe_instant(origin)).is_ok()
    })?;
    let drain_end_ns = gen::ns_since(origin);
    let rss1 = read_rss_kb().unwrap_or(0);
    let loop_cpu_ns = (thread_cpu_ns().ok_or("no /proc/thread-self/schedstat")? - cpu0)
        .saturating_sub(watch.probe.spent_ns);
    let factor = watch.probe.factor();
    let wakeups = d.wakeups() - wake0;
    if !drained {
        errors.push(format!(
            "drain incomplete after {DRAIN_MS} ms: {} of {want} accepted readings visible",
            watch.visible
        ));
    }

    if let Some(e) = &reads.error {
        errors.push(format!("http connection: {e}"));
    }

    // --- Correctness gate ----------------------------------------------
    let probe = probe_instant(origin);
    {
        let tangle = d
            .archival()
            .gossip()
            .tangle()
            .lock()
            .expect("archival tangle lock");
        for id in [p.ids.genesis, p.ids.auth_id()] {
            if !tangle.contains(&id) {
                errors.push(format!("archival tangle lacks {}", id.short_hex()));
            }
        }
        let missing = accepted
            .iter()
            .filter(|&&r| !tangle.contains(&p.stream.ids[r]))
            .count();
        if missing > 0 {
            errors.push(format!("archival tangle lacks {missing} accepted readings"));
        }
    }
    if let Err(e) = d.validation().verify_replay(probe) {
        errors.push(format!("verify_replay: {e}"));
    }
    if let Err(e) = credit_agrees(d.validation(), d.archival(), probe) {
        errors.push(e);
    }
    match reads.conn.take() {
        None => errors.push("no http connection left for the oracle sample".into()),
        Some(mut conn) => {
            let mut rng = StdRng::seed_from_u64(p.seed ^ 0x6f72_6163);
            let paths: Vec<String> = (0..ORACLE_SAMPLE.min(accepted.len()))
                .flat_map(|_| {
                    let id = p.stream.ids[accepted[rng.gen_range(0..accepted.len())]];
                    [Endpoint::Tx, Endpoint::Weight].map(|e| e.path(id, p.ids.devices[0].id(), 0))
                })
                .collect();
            let fetch = std::thread::spawn(move || {
                paths
                    .into_iter()
                    .map(|path| conn.get(&path).map(|(_, bytes)| (path, bytes)))
                    .collect::<Result<Vec<_>, _>>()
            });
            serve_until_done(d, &fetch, 0, &mut watch)?;
            match fetch.join().map_err(|_| "oracle fetch thread panicked")? {
                Err(e) => errors.push(format!("oracle sample fetch: {e}")),
                Ok(answers) => {
                    for (path, bytes) in answers {
                        let req = Request {
                            method: "GET".into(),
                            path: path.clone(),
                            query: String::new(),
                            keep_alive: true,
                        };
                        if d.archival().oracle_response(&req) != bytes {
                            errors.push(format!("{path}: HTTP answer differs from the oracle"));
                        }
                    }
                }
            }
        }
    }

    // --- Tally and samples ---------------------------------------------
    let mut tally = Tally::default();
    let (mut ack, mut visible, mut query, mut late) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let open = p.workload == Workload::TangleReads;
    let ms = |ns: u64| ns as f64 / 1e6;
    for (f, log) in ingest.frames.iter().enumerate() {
        let frame = &p.stream.frames[f];
        if open {
            late.push(log.due_ns, ms(log.sent_ns - log.due_ns));
        }
        let Some(ack_ns) = log.ack_ns else {
            tally.lost(frame.len as u64);
            for _ in 0..frame.len {
                ack.push(log.due_ns, f64::INFINITY);
                visible.push(log.due_ns, f64::INFINITY);
            }
            continue;
        };
        for (slot, &code) in log.codes.iter().enumerate() {
            if !tally.ack(code) {
                ack.push(log.due_ns, f64::INFINITY);
                visible.push(log.due_ns, f64::INFINITY);
                continue;
            }
            ack.push(log.due_ns, ms(ack_ns - log.due_ns));
            match watch.visible_ns[frame.first + slot] {
                Some(at) => visible.push(log.due_ns, ms(at.saturating_sub(log.due_ns))),
                None => {
                    tally.invisible();
                    visible.push(log.due_ns, f64::INFINITY);
                }
            }
        }
    }
    for q in &reads.queries {
        late.push(q.due_ns, ms(q.sent_ns - q.due_ns));
        match q.done_ns {
            Some(done) if tally.http(q.status) => query.push(q.due_ns, ms(done - q.due_ns)),
            Some(_) => query.push(q.due_ns, f64::INFINITY),
            None => {
                tally.lost(1);
                query.push(q.due_ns, f64::INFINITY);
            }
        }
    }
    let active_ns = last_ack_ns - first_send_ns;
    let factor = damped_factor(factor, window_cpu_ns as f64 / active_ns.max(1) as f64);
    let active_hostnorm_ns = host_normalized_ns(active_ns, window_cpu_ns, factor);
    let admitted_tps = accepted.len() as f64 / (active_ns as f64 / 1e9);
    Ok(Outcome {
        ingest,
        queries: reads.queries,
        visible_ns: watch.visible_ns,
        accepted,
        first_send_ns,
        drain_end_ns,
        tally,
        ack,
        visible,
        query,
        late,
        admitted_tps,
        active_ns,
        active_hostnorm_ns,
        rss_growth_mb: (rss1 as f64 - rss0 as f64) / 1024.0,
        loop_cpu_ns,
        loop_cpu_hostnorm_ns: loop_cpu_ns as f64 * factor,
        probe: watch.probe.samples,
        pending_max: watch.pending_max,
        wakeups,
        errors,
    })
}

/// The credit probe instant: now on the run's clock (inside the ΔT
/// window of every reading of the run).
fn probe_instant(origin: Instant) -> SimTime {
    SimTime::from_millis(origin.elapsed().as_millis() as u64)
}
