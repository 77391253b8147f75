//! The in-process load generator: one ingest connection and one HTTP
//! keep-alive connection, each driven by its own thread.
//!
//! Every instant is nanoseconds since the run's origin. In open loop a
//! request is timed from when it was due, so a stall in the generator
//! or the node counts against every request it delayed; how late the
//! generator actually sent is logged beside it.

use crate::setup::Stream;
use biot_crypto::sha256::to_hex;
use biot_ingest::protocol::{AckCode, AckResult, ServerMsg};
use biot_node::role::LightClient;
use biot_reactor::{build_poller, Event, Interest, Poller, PollerKind};
use biot_tangle::tx::{NodeId, TxId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the generator waits for an outstanding answer past the end
/// of its schedule before it counts the rest as lost.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(15);
/// Sleep slice while waiting out the last millisecond before a deadline.
const FINE_WAIT: Duration = Duration::from_micros(100);
/// A sleeping thread wakes about 0.1 ms late at p90 on a virtual host,
/// so the generator wakes this much early for a due send and spins the
/// rest (under 10% of a core at the read mix's rate).
const SPIN_LEAD: Duration = Duration::from_micros(200);

/// Nanoseconds since `origin`.
pub fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// How frames are paced on the ingest connection.
pub enum Pace {
    /// Keep `window` frames outstanding until the end instant.
    Closed { window: usize },
    /// Send frame `i` at `start + due[i]` (ns), whatever the acks do.
    Open { due: Vec<u64> },
}

/// What happened to one frame.
#[derive(Clone, Debug)]
pub struct FrameLog {
    /// When it was due (open loop) or sent (closed loop).
    pub due_ns: u64,
    pub sent_ns: u64,
    /// `None` when the ack never came.
    pub ack_ns: Option<u64>,
    /// One code per reading, in frame order.
    pub codes: Vec<AckCode>,
    /// Every accepted result carried exactly the submitted reading's id
    /// and the ack had one result per reading.
    pub ids_ok: bool,
}

/// The ingest thread's record of a run.
#[derive(Debug, Default)]
pub struct IngestLog {
    /// Sent frames, in send order (frame `i` of the stream is entry `i`).
    pub frames: Vec<FrameLog>,
    /// The stream ran out before the end instant (closed loop only).
    pub exhausted: bool,
    pub error: Option<String>,
}

/// The receive side of a non-blocking socket. It waits in epoll, which
/// wakes on data at once and on its millisecond timeout within tens of
/// microseconds; the rest of the last millisecond before a deadline is
/// slept in short slices, and the final [`SPIN_LEAD`] spun, between
/// non-blocking reads. (A socket read timeout would not do: it expires on
/// the kernel's tick, milliseconds late, delaying the next send. Spinning
/// for 2 ms after every send to catch its answer was tried and is worse:
/// on two cores the spinning generator threads crowd out the event loop.)
struct Inbox {
    stream: TcpStream,
    poller: Box<dyn Poller>,
    events: Vec<Event>,
    buf: Vec<u8>,
}

impl Inbox {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        let mut poller = build_poller(PollerKind::Epoll)?;
        poller.register(stream.as_raw_fd(), 0, Interest::READ)?;
        Ok(Self {
            stream,
            poller,
            events: Vec::new(),
            buf: Vec::new(),
        })
    }

    /// Writes all of `bytes`, waiting out a full send buffer.
    fn send(&mut self, mut bytes: &[u8]) -> io::Result<()> {
        while !bytes.is_empty() {
            match self.stream.write(bytes) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => bytes = &bytes[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(FINE_WAIT),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads whatever the socket holds, without blocking. Returns whether
    /// any bytes came.
    fn fill(&mut self) -> io::Result<bool> {
        let mut chunk = [0u8; 64 * 1024];
        let mut got = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    got = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(got),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Waits until bytes arrive (true) or `until` passes (false),
    /// spinning over the last [`SPIN_LEAD`].
    fn wait(&mut self, until: Instant) -> io::Result<bool> {
        loop {
            if self.fill()? {
                return Ok(true);
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Ok(false);
            }
            let block = left.saturating_sub(SPIN_LEAD);
            match i32::try_from(block.as_millis()).unwrap_or(i32::MAX) {
                0 if block.is_zero() => std::thread::yield_now(),
                0 => std::thread::sleep(block.min(FINE_WAIT)),
                ms => self.poller.poll(&mut self.events, ms)?,
            }
        }
    }
}

/// Sleeps until [`SPIN_LEAD`] before `at`, then spins to it.
fn wait_until(at: Instant) {
    let left = at.saturating_duration_since(Instant::now());
    if left > SPIN_LEAD {
        std::thread::sleep(left - SPIN_LEAD);
    }
    while Instant::now() < at {
        std::thread::yield_now();
    }
}

/// Ack frames off the ingest connection.
struct AckReader(Inbox);

impl AckReader {
    /// One whole ack frame from the buffer, if there is one.
    fn take(&mut self) -> io::Result<Option<Vec<AckResult>>> {
        let buf = &mut self.0.buf;
        if buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
        if buf.len() < 4 + len {
            return Ok(None);
        }
        let msg = LightClient::decode_ack(&buf[4..4 + len])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e}")))?;
        buf.drain(..4 + len);
        let ServerMsg::Ack(results) = msg;
        Ok(Some(results))
    }

    /// Waits until `until` for one whole ack; `Ok(None)` on timeout.
    fn next(&mut self, until: Instant) -> io::Result<Option<Vec<AckResult>>> {
        loop {
            if let Some(ack) = self.take()? {
                return Ok(Some(ack));
            }
            if !self.0.wait(until)? {
                return Ok(None);
            }
        }
    }
}

/// Checks an ack against the frame's readings.
fn record_ack(log: &mut FrameLog, results: &[AckResult], ids: &[TxId], now: u64) {
    log.ack_ns = Some(now);
    log.ids_ok = results.len() == ids.len()
        && results.iter().zip(ids).all(|(r, id)| match r.code {
            AckCode::Accepted => r.id == Some(*id),
            _ => r.id.is_none(),
        });
    log.codes = results.iter().map(|r| r.code).collect();
}

/// Drives the ingest connection until `end` (closed loop) or through the
/// schedule (open loop), then collects outstanding acks.
pub fn run_ingest(
    addr: SocketAddr,
    stream: Arc<Stream>,
    pace: Pace,
    origin: Instant,
    start: Instant,
    end: Instant,
) -> IngestLog {
    let mut log = IngestLog::default();
    if let Err(e) = ingest_loop(addr, &stream, pace, origin, start, end, &mut log) {
        log.error = Some(e.to_string());
    }
    log
}

fn ingest_loop(
    addr: SocketAddr,
    stream: &Stream,
    pace: Pace,
    origin: Instant,
    start: Instant,
    end: Instant,
    log: &mut IngestLog,
) -> io::Result<()> {
    let tcp = TcpStream::connect(addr)?;
    tcp.set_nodelay(true)?;
    let mut reader = AckReader(Inbox::new(tcp)?);
    let mut outstanding: VecDeque<usize> = VecDeque::new();
    let send = |reader: &mut AckReader,
                f: usize,
                due_ns: Option<u64>,
                log: &mut IngestLog|
     -> io::Result<()> {
        let sent_ns = ns_since(origin);
        reader.0.send(&stream.frames[f].bytes)?;
        log.frames.push(FrameLog {
            due_ns: due_ns.unwrap_or(sent_ns),
            sent_ns,
            ack_ns: None,
            codes: Vec::new(),
            ids_ok: false,
        });
        Ok(())
    };
    let acked = |reader: &mut AckReader,
                 until: Instant,
                 outstanding: &mut VecDeque<usize>,
                 log: &mut IngestLog|
     -> io::Result<bool> {
        let Some(results) = reader.next(until)? else {
            return Ok(false);
        };
        let now = ns_since(origin);
        let f = outstanding
            .pop_front()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unsolicited ack"))?;
        let frame = &stream.frames[f];
        record_ack(
            &mut log.frames[f],
            &results,
            &stream.ids[frame.first..frame.first + frame.len],
            now,
        );
        Ok(true)
    };
    match pace {
        Pace::Closed { window } => {
            let mut next = 0;
            loop {
                while outstanding.len() < window && Instant::now() < end {
                    if next == stream.frames.len() {
                        log.exhausted = true;
                        break;
                    }
                    send(&mut reader, next, None, log)?;
                    outstanding.push_back(next);
                    next += 1;
                }
                if outstanding.is_empty() {
                    break;
                }
                let until = Instant::now().max(end) + ANSWER_TIMEOUT;
                if !acked(&mut reader, until, &mut outstanding, log)? {
                    break;
                }
            }
        }
        Pace::Open { due } => {
            let start_ns = start.duration_since(origin).as_nanos() as u64;
            for (f, &offset) in due.iter().enumerate().take(stream.frames.len()) {
                let at = start + Duration::from_nanos(offset);
                while Instant::now() < at {
                    acked(&mut reader, at, &mut outstanding, log)?;
                }
                send(&mut reader, f, Some(start_ns + offset), log)?;
                outstanding.push_back(f);
            }
            let until = Instant::now().max(end) + ANSWER_TIMEOUT;
            while !outstanding.is_empty() && acked(&mut reader, until, &mut outstanding, log)? {}
        }
    }
    Ok(())
}

/// One HTTP/1.1 keep-alive connection.
pub struct HttpConn(Inbox);

impl HttpConn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self(Inbox::new(stream)?))
    }

    /// `GET path`; returns the status and the whole response as sent.
    pub fn get(&mut self, path: &str) -> io::Result<(u16, Vec<u8>)> {
        let request = format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.0.send(request.as_bytes())?;
        let bad = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
        let deadline = Instant::now() + ANSWER_TIMEOUT;
        loop {
            let buf = &mut self.0.buf;
            if let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("head"))?;
                let status: u16 = head
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("status line"))?;
                let len: usize = head
                    .lines()
                    .find_map(|l| {
                        let (k, v) = l.split_once(':')?;
                        k.eq_ignore_ascii_case("content-length")
                            .then(|| v.trim().parse().ok())?
                    })
                    .ok_or_else(|| bad("content-length"))?;
                let total = head_end + 4 + len;
                if buf.len() >= total {
                    let rest = buf.split_off(total);
                    let response = std::mem::replace(buf, rest);
                    return Ok((status, response));
                }
            }
            if !self.0.wait(deadline)? {
                return Err(io::ErrorKind::TimedOut.into());
            }
        }
    }
}

/// The read endpoints, with their share of the mix in percent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Endpoint {
    Health,
    Stats,
    Tips,
    Credit,
    Tx,
    Weight,
    CreditDevice,
}

impl Endpoint {
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Health,
        Endpoint::Stats,
        Endpoint::Tips,
        Endpoint::Credit,
        Endpoint::Tx,
        Endpoint::Weight,
        Endpoint::CreditDevice,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Endpoint::Health => "health",
            Endpoint::Stats => "stats",
            Endpoint::Tips => "tips",
            Endpoint::Credit => "credit",
            Endpoint::Tx => "tx",
            Endpoint::Weight => "weight",
            Endpoint::CreditDevice => "credit_device",
        }
    }

    /// Percent of the read mix.
    fn share(self) -> u32 {
        match self {
            Endpoint::Health | Endpoint::Stats | Endpoint::Credit => 5,
            Endpoint::Tips => 10,
            Endpoint::Tx | Endpoint::Weight => 30,
            Endpoint::CreditDevice => 15,
        }
    }

    pub fn path(self, id: TxId, device: NodeId, at_ms: u64) -> String {
        match self {
            Endpoint::Health => "/v1/health".into(),
            Endpoint::Stats => "/v1/stats".into(),
            Endpoint::Tips => "/v1/tips".into(),
            Endpoint::Credit => "/v1/credit".into(),
            Endpoint::Tx => format!("/v1/tx/{}", to_hex(id.as_bytes())),
            Endpoint::Weight => format!("/v1/weight/{}", to_hex(id.as_bytes())),
            Endpoint::CreditDevice => {
                format!("/v1/credit/{}?at_ms={at_ms}", to_hex(device.as_bytes()))
            }
        }
    }
}

/// What happened to one query.
#[derive(Clone, Copy, Debug)]
pub struct QueryLog {
    pub endpoint: Endpoint,
    pub due_ns: u64,
    pub sent_ns: u64,
    /// `None` when the connection failed before the answer.
    pub done_ns: Option<u64>,
    pub status: u16,
}

/// The HTTP thread's record; hands the connection back for reuse.
pub struct HttpLog {
    pub queries: Vec<QueryLog>,
    pub error: Option<String>,
    pub conn: Option<HttpConn>,
}

/// Readings the archival node already serves, with their issuers
/// (appended by the event-loop thread).
pub type Visible = Arc<Mutex<Vec<(TxId, NodeId)>>>;

/// When queries go out.
pub enum ReadPace {
    /// Query `i` is due at `start + due[i]` (ns) and timed from then.
    Open(Vec<u64>),
    /// One query in flight until `end`, each timed from its send, with
    /// an exponential pause of mean `think` after each answer. Sent the
    /// moment the last answer lands, a query would arrive just as the
    /// loop starts a turn; the pause spreads arrivals over the turn, and
    /// keeps an idle loop from answering a run of back-to-back queries
    /// that outnumber the ones that met a busy loop.
    Closed { end: Instant, think: Duration },
}

/// A read mix: each query's endpoint is drawn from the seeded mix; the
/// reading (for `/v1/tx`, `/v1/weight`) and the device (its issuer, for
/// `/v1/credit/{device}`) from `visible`.
pub struct ReadPlan {
    pub pace: ReadPace,
    pub seed: u64,
    /// Whether `/v1/tips` is in the mix (its share goes to the others
    /// when not).
    pub tips: bool,
    pub visible: Visible,
}

pub fn run_reads(mut conn: HttpConn, plan: ReadPlan, origin: Instant, start: Instant) -> HttpLog {
    let mix: Vec<Endpoint> = Endpoint::ALL
        .into_iter()
        .filter(|&e| plan.tips || e != Endpoint::Tips)
        .collect();
    let total: u32 = mix.iter().map(|e| e.share()).sum();
    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0x7265_6164);
    let start_ns = start.duration_since(origin).as_nanos() as u64;
    let mut queries = Vec::new();
    let mut error = None;
    for i in 0.. {
        let due = match &plan.pace {
            ReadPace::Open(due) => match due.get(i) {
                Some(&offset) => Some(start_ns + offset),
                None => break,
            },
            ReadPace::Closed { end, .. } if Instant::now() < *end => None,
            ReadPace::Closed { .. } => break,
        };
        let mut pick = rng.gen_range(0..total);
        let endpoint = *mix
            .iter()
            .find(|e| {
                let hit = pick < e.share();
                pick = pick.saturating_sub(e.share());
                hit
            })
            .expect("pick is below the total share");
        let (id, device) = {
            let visible = plan.visible.lock().expect("visible list lock");
            visible[rng.gen_range(0..visible.len())]
        };
        if let Some(due_ns) = due {
            wait_until(origin + Duration::from_nanos(due_ns));
        }
        let sent_ns = ns_since(origin);
        let due_ns = due.unwrap_or(sent_ns);
        let path = endpoint.path(id, device, due_ns / 1_000_000);
        match conn.get(&path) {
            Ok((status, _)) => {
                queries.push(QueryLog {
                    endpoint,
                    due_ns,
                    sent_ns,
                    done_ns: Some(ns_since(origin)),
                    status,
                });
                if let ReadPace::Closed { think, .. } = plan.pace {
                    std::thread::sleep(think.mul_f64(-(1.0 - rng.gen::<f64>()).ln()));
                }
            }
            Err(e) => {
                queries.push(QueryLog {
                    endpoint,
                    due_ns,
                    sent_ns,
                    done_ns: None,
                    status: 0,
                });
                error = Some(format!("{path}: {e}"));
                return HttpLog {
                    queries,
                    error,
                    conn: None,
                };
            }
        }
    }
    HttpLog {
        queries,
        error,
        conn: Some(conn),
    }
}
