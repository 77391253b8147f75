//! The two ways a run drives the roles.
//!
//! [`Untraced`] is the production runtime, `EventLoop::run_until`; the
//! end-to-end metrics come from it. [`Traced`] drives the same members
//! through their public handlers in `EventLoop::dispatch` order,
//! blocking on the same descriptors through `biot_reactor`'s poller,
//! and records a span around each handler call. The per-layer handler
//! costs come from it; the difference between the two runs is the
//! tracing overhead, reported as `trace.overhead_frac`.

use crate::gen::ns_since;
use crate::setup::World;
use biot_gossip::tcp::TcpAcceptor;
use biot_node::role::{ArchivalNode, ValidationNode};
use biot_node::{EventLoop, MemberId};
use biot_reactor::{build_poller, Clock, Event, Interest, Poller, PollerKind};
use std::collections::HashMap;
use std::os::fd::RawFd;
use std::time::Instant;

/// Longest block with nothing due, as in `EventLoop`.
const MAX_WAIT_MS: u64 = 500;
/// Connections one acceptor drains per wake, as in `EventLoop`.
const ACCEPTS_PER_WAKE: usize = 64;

/// Wall milliseconds since the run's origin, so loop time and the
/// generator's instants share one zero.
struct OriginClock(Instant);

impl Clock for OriginClock {
    fn now_ms(&self) -> u64 {
        self.0.elapsed().as_millis() as u64
    }
}

/// The predicate the run checks between turns.
pub type Done<'a> = dyn FnMut(&ValidationNode, &ArchivalNode) -> bool + 'a;

pub trait Driver {
    /// Turns until `done` holds or the loop clock passes `deadline_ms`.
    /// Returns whether `done` was reached.
    fn run_until(&mut self, deadline_ms: u64, done: &mut Done<'_>) -> Result<bool, String>;
    fn now_ms(&self) -> u64;
    fn validation(&self) -> &ValidationNode;
    fn archival(&self) -> &ArchivalNode;
    /// Wakes (untraced) or turns (traced) so far.
    fn wakeups(&self) -> u64;
}

/// The production event loop.
pub struct Untraced {
    el: EventLoop,
    vid: MemberId,
    aid: MemberId,
}

impl Untraced {
    pub fn new(world: World) -> std::io::Result<Self> {
        let mut el = EventLoop::with_clock(Box::new(OriginClock(world.origin)))?;
        let vid = el.add_validation(world.validation);
        let aid = el.add_archival(world.archival);
        el.add_acceptor(world.acceptor, vid);
        Ok(Self { el, vid, aid })
    }
}

impl Driver for Untraced {
    fn run_until(&mut self, deadline_ms: u64, done: &mut Done<'_>) -> Result<bool, String> {
        let (vid, aid) = (self.vid, self.aid);
        self.el
            .run_until(deadline_ms, |el| {
                done(
                    el.validation(vid).expect("validation member"),
                    el.archival(aid).expect("archival member"),
                )
            })
            .map_err(|e| e.to_string())
    }

    fn now_ms(&self) -> u64 {
        self.el.now_ms()
    }

    fn validation(&self) -> &ValidationNode {
        self.el.validation(self.vid).expect("validation member")
    }

    fn archival(&self) -> &ArchivalNode {
        self.el.archival(self.aid).expect("archival member")
    }

    fn wakeups(&self) -> u64 {
        self.el.wakeups()
    }
}

/// The handlers a traced turn calls, in dispatch order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Handler {
    Accept,
    ValidationIngest,
    ValidationGossip,
    ArchivalGossip,
    ArchivalPersist,
    ArchivalHttp,
}

impl Handler {
    pub fn name(self) -> &'static str {
        match self {
            Handler::Accept => "accept",
            Handler::ValidationIngest => "validation.on_ingest",
            Handler::ValidationGossip => "validation.on_gossip",
            Handler::ArchivalGossip => "archival.on_gossip",
            Handler::ArchivalPersist => "archival.on_persist",
            Handler::ArchivalHttp => "archival.on_http",
        }
    }
}

/// One handler call: which, when (ns since origin), and the turn whose
/// wake caused it.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub handler: Handler,
    pub turn: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The same members, driven handler by handler with a span around each.
pub struct Traced {
    validation: ValidationNode,
    archival: ArchivalNode,
    acceptor: TcpAcceptor,
    poller: Box<dyn Poller>,
    registered: HashMap<RawFd, Interest>,
    events: Vec<Event>,
    origin: Instant,
    turns: u64,
    pub spans: Vec<Span>,
    /// Queries `on_http` reported answering.
    pub http_answered: u64,
}

impl Traced {
    pub fn new(world: World) -> std::io::Result<Self> {
        Ok(Self {
            validation: world.validation,
            archival: world.archival,
            acceptor: world.acceptor,
            poller: build_poller(PollerKind::default())?,
            registered: HashMap::new(),
            events: Vec::new(),
            origin: world.origin,
            turns: 0,
            spans: Vec::with_capacity(1 << 16),
            http_answered: 0,
        })
    }

    /// Mirrors `EventLoop::sync_registrations` for these two members.
    fn sync_registrations(&mut self) {
        let mut desired: HashMap<RawFd, Interest> = HashMap::new();
        desired.insert(self.acceptor.raw_fd(), Interest::READ);
        if let Some(fd) = self.archival.http_poller_fd() {
            desired.insert(fd, Interest::READ);
        }
        if let Some(fd) = self.validation.ingest_poller_fd() {
            desired.insert(fd, Interest::READ);
        }
        for gossip in [self.validation.gossip(), self.archival.gossip()] {
            for (fd, wants_write) in gossip.transport_fds() {
                desired.insert(
                    fd,
                    if wants_write {
                        Interest::READ_WRITE
                    } else {
                        Interest::READ
                    },
                );
            }
        }
        let gone: Vec<RawFd> = self
            .registered
            .keys()
            .filter(|fd| !desired.contains_key(fd))
            .copied()
            .collect();
        for fd in gone {
            let _ = self.poller.deregister(fd);
            self.registered.remove(&fd);
        }
        for (fd, want) in desired {
            let token = fd as usize;
            match self.registered.get(&fd) {
                Some(have) if *have == want => {}
                Some(_) => {
                    if self.poller.reregister(fd, token, want).is_err() {
                        let _ = self.poller.register(fd, token, want);
                    }
                    self.registered.insert(fd, want);
                }
                None => {
                    if self.poller.register(fd, token, want).is_err() {
                        let _ = self.poller.reregister(fd, token, want);
                    }
                    self.registered.insert(fd, want);
                }
            }
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    fn span<T>(&mut self, handler: Handler, call: impl FnOnce(&mut Self) -> T) -> T {
        let start_ns = ns_since(self.origin);
        let out = call(self);
        let end_ns = ns_since(self.origin);
        self.spans.push(Span {
            handler,
            turn: self.turns,
            start_ns,
            end_ns,
        });
        out
    }

    /// One wake, as `EventLoop::turn` and `dispatch` do it.
    fn turn(&mut self) -> Result<(), String> {
        self.sync_registrations();
        let now = self.now();
        let next = [
            self.validation.next_deadline(now),
            self.archival.next_deadline(),
        ]
        .into_iter()
        .flatten()
        .min();
        let timeout = match next {
            Some(d) if d <= now => 0,
            Some(d) => (d - now).min(MAX_WAIT_MS),
            None => MAX_WAIT_MS,
        };
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        let polled = self.poller.poll(&mut events, timeout as i32);
        self.events = events;
        polled.map_err(|e| e.to_string())?;
        let now = self.now();
        self.turns += 1;
        self.span(Handler::Accept, |t| -> Result<(), String> {
            for transport in t
                .acceptor
                .try_accept_all(ACCEPTS_PER_WAKE)
                .map_err(|e| e.to_string())?
            {
                t.validation
                    .gossip_mut()
                    .add_transport(Box::new(transport), now);
            }
            Ok(())
        })?;
        self.span(Handler::ValidationIngest, |t| t.validation.on_ingest(now))
            .map_err(|e| e.to_string())?;
        self.span(Handler::ValidationGossip, |t| t.validation.on_gossip(now));
        self.span(Handler::ArchivalGossip, |t| t.archival.on_gossip(now))
            .map_err(|e| e.to_string())?;
        self.span(Handler::ArchivalPersist, |t| t.archival.on_persist())
            .map_err(|e| e.to_string())?;
        let answered = self
            .span(Handler::ArchivalHttp, |t| t.archival.on_http(now))
            .map_err(|e| e.to_string())?;
        self.http_answered += answered as u64;
        Ok(())
    }
}

impl Driver for Traced {
    fn run_until(&mut self, deadline_ms: u64, done: &mut Done<'_>) -> Result<bool, String> {
        loop {
            if done(&self.validation, &self.archival) {
                return Ok(true);
            }
            if self.now() >= deadline_ms {
                return Ok(false);
            }
            self.turn()?;
        }
    }

    fn now_ms(&self) -> u64 {
        self.now()
    }

    fn validation(&self) -> &ValidationNode {
        &self.validation
    }

    fn archival(&self) -> &ArchivalNode {
        &self.archival
    }

    fn wakeups(&self) -> u64 {
        self.turns
    }
}
