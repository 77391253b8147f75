//! Workloads, identities, the pre-signed reading stream, and role boot.
//!
//! Everything here happens before the first send and is what `setup_s`
//! times: key generation, mining and signing every reading through
//! `LightClient::prepare`, booting the validation and archival roles on
//! loopback TCP, and the mesh handshake.

use biot_core::node::{Gateway, GatewayConfig, Manager};
use biot_core::{Account, Difficulty, FixedPolicy};
use biot_gossip::node::{GossipConfig, RelayMode};
use biot_gossip::tcp::{TcpAcceptor, TcpConnector};
use biot_net::time::SimTime;
use biot_node::role::{ArchivalNode, LightClient, Role, RoleConfig, ValidationNode};
use biot_tangle::conflict::LazyTipPolicy;
use biot_tangle::tx::{NodeId, Transaction, TxId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Authorized devices; readings go to them round-robin.
pub const DEVICES: usize = 8;

/// The two traffic mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, [`FAN_WINDOW`] frames of [`FAN_FRAME`] readings in
    /// flight, every reading approving genesis and the auth list.
    FanBurst,
    /// Open loop: Poisson writes with a real tangle shape beside a
    /// Poisson HTTP read mix.
    TangleReads,
}

/// Readings per frame in `fan_burst`.
pub const FAN_FRAME: usize = 16;
/// Frames outstanding on the ingest connection in `fan_burst`.
pub const FAN_WINDOW: usize = 8;
/// Mean write rate of `tangle_reads`, readings/s, and ...
pub const READS_WRITE_RATE: f64 = 100.0;
/// ... its mean HTTP read rate, queries/s. At twice these rates the event loop is about
/// a quarter busy, p90 falls inside the queueing delay, and run-to-run
/// CPU-speed noise on a shared 2-core host moves ack and query p90 by
/// 60-90% (IQR/median over seeds); at these rates by 10-20%.
pub const READ_RATE: f64 = 500.0;
/// Mean pause between an answer and the next query beside the fan
/// bursts (about half a saturated loop turn).
pub const FAN_THINK: Duration = Duration::from_millis(5);
/// Seed of the manager and device keys. The fleet's identities are fixed
/// across workload seeds: RSA key generation searches for primes, so
/// per-seed keys would make `setup_s` vary with the luck of that search
/// rather than with the code.
const KEY_SEED: u64 = 0x6b65_7973;
/// `tangle_reads` parents come from this many readings ...
const PARENT_POOL: usize = 64;
/// ... submitted at least this many readings earlier.
const PARENT_LAG: usize = 8;

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fan_burst" => Some(Self::FanBurst),
            "tangle_reads" => Some(Self::TangleReads),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::FanBurst => "fan_burst",
            Self::TangleReads => "tangle_reads",
        }
    }

    pub fn is_fan(self) -> bool {
        self == Self::FanBurst
    }

    /// Bursts a run's `--seconds` are split into, each on freshly set-up
    /// roles. The host's CPU speed swings ±30% in phases of a few to
    /// twenty seconds; five fan bursts spread over the run's set-ups
    /// sample more of them than one, and keep each burst's tangle (every
    /// reading a tip) smaller. `tangle_reads` stays one run: its tangle
    /// depth is part of what it measures.
    pub fn blocks(self) -> usize {
        if self.is_fan() {
            5
        } else {
            1
        }
    }

    /// Readings to pre-sign for a run of `seconds`. `fan_burst` is a
    /// closed loop: the stream holds what the node could admit at well
    /// above the measured capacity (12k–24k/s as the host's speed
    /// varies), and a run that exhausts it ends early and says so.
    fn readings(self, seconds: f64) -> usize {
        match self {
            Self::FanBurst => {
                ((30_000.0 * seconds).ceil() as usize).div_ceil(FAN_FRAME) * FAN_FRAME
            }
            Self::TangleReads => (READS_WRITE_RATE * seconds).ceil() as usize,
        }
    }
}

/// Gossip settings of the repository's own role deployments.
fn gossip_cfg(node_id: u64) -> GossipConfig {
    GossipConfig {
        node_id,
        relay_mode: RelayMode::Digest,
        digest_ms: 5,
        anti_entropy_ms: 200,
        ..GossipConfig::default()
    }
}

/// The manager, the devices, and the two transactions every replica
/// starts from.
pub struct Identities {
    manager: Manager,
    pub devices: Vec<LightClient>,
    pub genesis: TxId,
    pub auth_list: Transaction,
}

impl Identities {
    /// Generates the manager and [`DEVICES`] device keys, authorizes
    /// every device, and signs the authorization list.
    pub fn generate() -> Self {
        let mut rng = StdRng::seed_from_u64(KEY_SEED);
        let mut manager = Manager::new(Account::generate(&mut rng));
        let devices: Vec<LightClient> = (0..DEVICES)
            .map(|_| LightClient::new(Account::generate(&mut rng)))
            .collect();
        for d in &devices {
            let id = manager.register_device(d.public_key().clone());
            manager.authorize(id);
        }
        let mut gateway = bare_gateway(&manager);
        let genesis = gateway.init_genesis(SimTime::ZERO);
        let d0 = gateway.difficulty_for(manager.id(), SimTime::ZERO);
        let auth_list = manager
            .prepare_auth_list((genesis, genesis), SimTime::ZERO, d0)
            .tx;
        Self {
            manager,
            devices,
            genesis,
            auth_list,
        }
    }

    /// A gateway as the role deployments prepare one: genesis attached,
    /// device keys registered, the auth list applied.
    pub fn gateway(&self) -> Gateway {
        let mut gateway = bare_gateway(&self.manager);
        let genesis = gateway.init_genesis(SimTime::ZERO);
        assert_eq!(
            genesis, self.genesis,
            "genesis is a pure function of the manager key"
        );
        for d in &self.devices {
            gateway.register_pubkey(d.public_key().clone());
        }
        gateway
            .apply_auth_list(self.auth_list.clone(), SimTime::ZERO)
            .expect("the manager's own auth list applies");
        gateway
    }

    pub fn manager_id(&self) -> NodeId {
        self.manager.id()
    }

    pub fn auth_id(&self) -> TxId {
        self.auth_list.id()
    }
}

/// Gateway configuration of `examples/roles.rs`: fixed minimum PoW
/// difficulty, lazy-tip judgement off, broadcasts and credit events
/// recorded for the mesh.
fn bare_gateway(manager: &Manager) -> Gateway {
    Gateway::new(
        manager.public_key().clone(),
        Box::new(FixedPolicy(Difficulty::MIN)),
        GatewayConfig {
            lazy_policy: LazyTipPolicy {
                max_parent_age_ms: u64::MAX,
                max_parent_approvers: usize::MAX,
            },
            record_broadcasts: true,
            record_credit_events: true,
            ..GatewayConfig::default()
        },
    )
}

/// One ingest frame: length-prefixed `SubmitBatch` bytes and the ids of
/// the readings it carries, in order.
#[derive(Clone, Debug)]
pub struct Frame {
    pub bytes: Vec<u8>,
    /// Global index of the frame's first reading.
    pub first: usize,
    pub len: usize,
}

/// The whole pre-signed input of one run.
#[derive(Debug)]
pub struct Stream {
    pub frames: Vec<Frame>,
    /// Reading ids, in submission order.
    pub ids: Vec<TxId>,
    /// Issuing device of each reading.
    pub issuers: Vec<NodeId>,
    /// Reading id → its index in `ids`.
    pub index: HashMap<TxId, usize>,
}

/// A device reading's payload: 24 bytes derived from the seed and the
/// reading's index.
fn payload(seed: u64, reading: usize) -> Vec<u8> {
    let mut state = seed ^ (reading as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (0..3)
        .flat_map(|_| {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)).to_le_bytes()
        })
        .collect()
}

/// Mines and signs one reading of `device`.
fn prepare(
    ids: &Identities,
    seed: u64,
    reading: usize,
    device: usize,
    tips: (TxId, TxId),
) -> Transaction {
    ids.devices[device]
        .prepare(
            payload(seed, reading),
            tips,
            SimTime::from_millis(1 + reading as u64),
            Difficulty::MIN,
        )
        .tx
}

impl Stream {
    /// Pre-signs the run's readings. `fan_burst` puts [`FAN_FRAME`]
    /// readings of one device in each frame, devices round-robin by
    /// frame, all approving (genesis, auth list), and signs on two
    /// threads. `tangle_reads` sends one reading per frame, devices
    /// round-robin, each approving two readings drawn from the
    /// [`PARENT_POOL`] submitted at least [`PARENT_LAG`] earlier.
    pub fn prepare(ids: &mut Identities, workload: Workload, seed: u64, seconds: f64) -> Self {
        let n = workload.readings(seconds);
        let (genesis, auth) = (ids.genesis, ids.auth_id());
        let batches: Vec<Vec<Transaction>> = if workload.is_fan() {
            let frames = n / FAN_FRAME;
            let shared: &Identities = ids;
            let sign = |range: std::ops::Range<usize>| -> Vec<Vec<Transaction>> {
                range
                    .map(|f| {
                        (0..FAN_FRAME)
                            .map(|k| {
                                prepare(
                                    shared,
                                    seed,
                                    f * FAN_FRAME + k,
                                    f % DEVICES,
                                    (genesis, auth),
                                )
                            })
                            .collect()
                    })
                    .collect()
            };
            let half = frames / 2;
            let (mut head, tail) = std::thread::scope(|s| {
                let tail = s.spawn(|| sign(half..frames));
                (sign(0..half), tail.join().expect("signing thread"))
            });
            head.extend(tail);
            head
        } else {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7061_7265);
            let mut made: Vec<TxId> = Vec::with_capacity(n);
            let mut batches = Vec::with_capacity(n);
            for r in 0..n {
                let tips = if r < PARENT_LAG {
                    (genesis, auth)
                } else {
                    let hi = r - PARENT_LAG; // inclusive
                    let lo = (hi + 1).saturating_sub(PARENT_POOL);
                    (made[rng.gen_range(lo..=hi)], made[rng.gen_range(lo..=hi)])
                };
                let tx = prepare(ids, seed, r, r % DEVICES, tips);
                made.push(tx.id());
                batches.push(vec![tx]);
            }
            batches
        };
        let mut frames = Vec::with_capacity(batches.len());
        let mut all = Vec::with_capacity(n);
        let mut issuers = Vec::with_capacity(n);
        for (f, txs) in batches.into_iter().enumerate() {
            let first = all.len();
            let len = txs.len();
            all.extend(txs.iter().map(Transaction::id));
            issuers.extend(txs.iter().map(|tx| tx.issuer));
            let device = if workload.is_fan() {
                f % DEVICES
            } else {
                first % DEVICES
            };
            let bytes = ids.devices[device].encode_submit(txs);
            frames.push(Frame { bytes, first, len });
        }
        let index = all.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        Self {
            frames,
            ids: all,
            issuers,
            index,
        }
    }

    /// Decodes a frame back into its transactions.
    pub fn decode(frame: &Frame) -> Vec<Transaction> {
        match biot_ingest::protocol::decode_client(&frame.bytes[4..]).expect("own frame decodes") {
            biot_ingest::protocol::ClientMsg::SubmitBatch(txs) => txs,
            biot_ingest::protocol::ClientMsg::SubmitTx(tx) => vec![tx],
        }
    }
}

/// Booted roles, not yet handed to a driver.
pub struct World {
    pub validation: ValidationNode,
    pub archival: ArchivalNode,
    pub acceptor: TcpAcceptor,
    pub ingest_addr: SocketAddr,
    pub http_addr: SocketAddr,
    /// Zero of the run's clock: every instant the benchmark records is
    /// nanoseconds since this.
    pub origin: Instant,
}

/// Boots a validation node (ingest + gossip listener) and an archival
/// node (HTTP, dialing the validation node's gossip port), as
/// `examples/roles.rs` does.
pub fn boot(ids: &Identities) -> std::io::Result<World> {
    let origin = Instant::now();
    let validation = ValidationNode::new(
        ids.gateway(),
        RoleConfig {
            role: Role::Validation,
            gossip: gossip_cfg(1),
            ingest_addr: Some("127.0.0.1:0".into()),
            ..RoleConfig::default()
        },
    )?;
    let ingest_addr = validation.ingest_addr()?.expect("ingest enabled");
    let acceptor = TcpAcceptor::bind("127.0.0.1:0")?;
    let gossip_addr = acceptor.local_addr()?;
    let mut archival = ArchivalNode::new(RoleConfig {
        role: Role::Archival,
        gossip: gossip_cfg(2),
        http_addr: Some("127.0.0.1:0".into()),
        ..RoleConfig::default()
    })
    .map_err(|e| std::io::Error::other(e.to_string()))?;
    archival
        .gossip_mut()
        .connect(Box::new(TcpConnector { addr: gossip_addr }));
    let http_addr = archival.http_addr()?.expect("http enabled");
    Ok(World {
        validation,
        archival,
        acceptor,
        ingest_addr,
        http_addr,
        origin,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_shaped_per_workload() {
        let mut ids = Identities::generate();
        let a = Stream::prepare(&mut ids, Workload::TangleReads, 3, 0.2);
        let b = Stream::prepare(&mut ids, Workload::TangleReads, 3, 0.2);
        assert_eq!(a.ids, b.ids, "same seed, same readings");
        assert_eq!(a.ids.len(), (READS_WRITE_RATE * 0.2) as usize);
        assert!(a.frames.iter().all(|f| f.len == 1));
        // Parents: two of the 64 readings at least 8 earlier.
        let txs: Vec<Transaction> = a.frames.iter().flat_map(Stream::decode).collect();
        for (r, tx) in txs.iter().enumerate().skip(PARENT_LAG) {
            for p in tx.parents() {
                let at = a.index[&p];
                assert!(at + PARENT_LAG <= r && r - at < PARENT_LAG + PARENT_POOL);
            }
        }
        let c = Stream::prepare(&mut ids, Workload::TangleReads, 4, 0.2);
        assert_ne!(a.ids, c.ids, "another seed, other readings");

        let fan = Stream::prepare(&mut ids, Workload::FanBurst, 3, 0.01);
        assert!(fan.frames.iter().all(|f| f.len == FAN_FRAME));
        for (f, frame) in fan.frames.iter().enumerate() {
            for tx in Stream::decode(frame) {
                assert_eq!(tx.issuer, ids.devices[f % DEVICES].id());
                assert_eq!(tx.parents(), [ids.genesis, ids.auth_id()]);
            }
        }
    }
}
