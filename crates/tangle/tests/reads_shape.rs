//! The weight walk on the DAG shape of a steady sensor feed: every
//! transaction approves two of the 64 transactions attached at least 8
//! before it. Each attach then walks almost the whole ancestor cone, so
//! this is where the walk's keyed id hashing and reused buffers carry the
//! most load. Weights must still equal the breadth-first recount, with
//! and without sealing, and the id hasher must tell apart ids that differ
//! in a single byte.

use biot_tangle::graph::Tangle;
use biot_tangle::idhash::IdBuildHasher;
use biot_tangle::tx::{NodeId, Payload, TransactionBuilder, TxId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::hash::BuildHasher;

/// Parents come from this many transactions ...
const POOL: usize = 64;
/// ... attached at least this many transactions earlier.
const LAG: usize = 8;

/// Attaches `n` transactions in the feed shape, confirming and sealing
/// every `seal_every` attaches when that is set. Returns every id in
/// attach order, genesis first.
fn grow(t: &mut Tangle, n: usize, seed: u64, seal_every: Option<usize>) -> Vec<TxId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let genesis = t.attach_genesis(NodeId([0; 32]), 0);
    let mut ids = vec![genesis];
    for r in 0..n {
        let (trunk, branch) = if r < LAG {
            (genesis, genesis)
        } else {
            // Reading `r` is ids[r + 1]; parents are ids[lo..=hi].
            let hi = r + 1 - LAG;
            let lo = (hi + 1).saturating_sub(POOL);
            (ids[rng.gen_range(lo..=hi)], ids[rng.gen_range(lo..=hi)])
        };
        let at = r as u64 + 1;
        let tx = TransactionBuilder::new(NodeId([(r % 8) as u8 + 1; 32]))
            .parents(trunk, branch)
            .payload(Payload::Data(at.to_be_bytes().to_vec()))
            .timestamp_ms(at)
            .build();
        ids.push(t.attach(tx, at).expect("parents are stored"));
        if seal_every.is_some_and(|k| r % k == k - 1) {
            t.confirm_with_threshold(3);
            t.seal_frontier(LAG + POOL);
        }
    }
    ids
}

/// Compares the weight index with the recount on `samples` ids drawn
/// across the whole attach order, plus the first and last few.
fn assert_sampled_weights(t: &Tangle, ids: &[TxId], samples: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5a5a);
    let picks = (0..samples)
        .map(|_| rng.gen_range(0..ids.len()))
        .chain(0..4)
        .chain(ids.len() - 4..ids.len());
    for i in picks {
        let id = ids[i];
        assert_eq!(
            t.cumulative_weight(&id),
            t.cumulative_weight_recount(&id),
            "weight of the transaction attached {i}th (sealed: {})",
            t.is_sealed(&id)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn feed_shaped_weights_match_the_recount(n in 2_000usize..4_000, seed in any::<u64>()) {
        let mut plain = Tangle::new();
        let ids = grow(&mut plain, n, seed, None);
        assert_sampled_weights(&plain, &ids, 24, seed);

        let mut sealed = Tangle::new();
        prop_assert_eq!(&grow(&mut sealed, n, seed, Some(64)), &ids);
        let stats = sealed.seal_stats();
        prop_assert!(stats.seals > 0 && stats.sealed_len > 0, "{:?}", stats);
        assert_sampled_weights(&sealed, &ids, 24, seed);
        // Every sealed and unsealed weight equals the never-sealed index.
        for id in &ids {
            prop_assert_eq!(sealed.cumulative_weight(id), plain.cumulative_weight(id));
        }
        // A clone carries no walk state: it keeps attaching correctly.
        let mut copy = sealed.clone();
        let tip = copy.tips()[0];
        let extra = TransactionBuilder::new(NodeId([9; 32]))
            .parents(tip, ids[ids.len() / 2])
            .payload(Payload::Data(b"after clone".to_vec()))
            .timestamp_ms(u64::MAX / 2)
            .build();
        let extra = copy.attach(extra, u64::MAX / 2).expect("parents are stored");
        for id in [tip, ids[ids.len() / 2], ids[ids.len() / 4], ids[0], extra] {
            prop_assert_eq!(copy.cumulative_weight(&id), copy.cumulative_weight_recount(&id));
        }
    }
}

#[test]
fn ids_one_byte_apart_hash_apart() {
    let hasher = IdBuildHasher::default();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..16 {
        let mut base = [0u8; 32];
        rng.fill_bytes(&mut base);
        let h0 = hasher.hash_one(TxId(base));
        // Every byte position, the first and last word's included, and
        // several flips per position.
        for pos in 0..32 {
            for flip in [0x01u8, 0x80, 0xff, rng.gen_range(1..=255)] {
                let mut other = base;
                other[pos] ^= flip;
                assert_ne!(
                    hasher.hash_one(TxId(other)),
                    h0,
                    "byte {pos} flipped by {flip:#04x} collides"
                );
            }
        }
    }
}
