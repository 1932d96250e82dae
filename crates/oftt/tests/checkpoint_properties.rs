//! Property tests for the checkpoint machinery: however checkpoints are
//! generated, diffed, reordered, duplicated, or corrupted in flight, the
//! backup store converges to the primary's image and never regresses —
//! and the dirty-tracked fast path (pending delta, running checksums, the
//! backup's slot installs) is byte-identical to the brute-force reference.

use std::collections::BTreeSet;

use comsim::buf::Bytes;
use ds_sim::prelude::SimTime;
use oftt::checkpoint::{
    checksum, diff, fold_digests, merge, var_digest, AcceptOutcome, Checkpoint, CheckpointPayload,
    CheckpointStore, RejectReason, VarSet, VarStore,
};
use oftt::config::CheckpointMode;
use oftt::messages::FtimPeerMsg;
use oftt::ship::{reply, ShipAction, ShipEvent, ShipState};
use proptest::prelude::*;

fn varset_strategy() -> impl Strategy<Value = VarSet> {
    prop::collection::btree_map("[a-d]{1,3}", prop::collection::vec(any::<u8>(), 0..16), 0..8)
        .prop_map(|m| m.into_iter().map(|(k, v)| (k, Bytes::from(v))).collect())
}

/// A primary-side history: successive images of the application state.
fn history_strategy() -> impl Strategy<Value = Vec<VarSet>> {
    prop::collection::vec(varset_strategy(), 1..12)
}

/// One call into a [`VarStore`], as the FTIM and the application make them.
/// Each write passes its name either borrowed (`&str`, the flag set) or
/// owned (`String`).
#[derive(Debug, Clone)]
enum StoreOp {
    /// Write content the store has never held under each name, in the
    /// order given: new names arrive unsorted, in between the slots
    /// already held.
    Set(Vec<(String, Vec<u8>)>, bool),
    /// Write a held variable's current content again, from a fresh buffer.
    Rewrite(prop::sample::Index, bool),
    /// Write this many held names with new content, in name order from
    /// the one picked and wrapping past the last (in reverse order when
    /// the flag is set): the in-order traffic the store's next-slot hint
    /// serves, and its mirror, which misses it on every write.
    Sweep(prop::sample::Index, usize, bool, bool),
    /// Write one held name this many times in a row with new content: the
    /// hint has moved past it, so every repeat misses.
    Repeat(prop::sample::Index, usize, bool),
    /// Write a held name, which points the hint at the slot after it; then
    /// this name, an insert wherever it sorts when it is new (often before
    /// the hint); then the name that followed the first, whose slot the
    /// insert may have moved.
    InsertNear(prop::sample::Index, String, bool),
    TakeDirty,
    ClearDirty,
    Clear,
}

fn store_op_strategy() -> impl Strategy<Value = StoreOp> {
    let set = || {
        let write = ("[a-d]{1,2}", prop::collection::vec(any::<u8>(), 0..8));
        (prop::collection::vec(write, 1..4), any::<bool>())
            .prop_map(|(writes, borrowed)| StoreOp::Set(writes, borrowed))
    };
    prop_oneof![
        set(),
        set(),
        set(),
        (any::<prop::sample::Index>(), any::<bool>())
            .prop_map(|(at, borrowed)| StoreOp::Rewrite(at, borrowed)),
        (any::<prop::sample::Index>(), 1usize..24, any::<bool>(), any::<bool>()).prop_map(
            |(from, count, reverse, borrowed)| StoreOp::Sweep(from, count, reverse, borrowed)
        ),
        (any::<prop::sample::Index>(), 2usize..4, any::<bool>())
            .prop_map(|(at, times, borrowed)| StoreOp::Repeat(at, times, borrowed)),
        (any::<prop::sample::Index>(), "[a-d]{1,2}", any::<bool>())
            .prop_map(|(at, name, borrowed)| StoreOp::InsertNear(at, name, borrowed)),
        Just(StoreOp::TakeDirty),
        Just(StoreOp::ClearDirty),
        Just(StoreOp::Clear),
    ]
}

/// [`VarStore::set`] with the name passed borrowed or owned.
fn store_set(store: &mut VarStore, name: &str, bytes: Bytes, borrowed: bool) -> bool {
    if borrowed {
        store.set(name, bytes)
    } else {
        store.set(name.to_string(), bytes)
    }
}

/// What happens to one shipped checkpoint on its way to the backup.
#[derive(Debug, Clone, Copy)]
enum Hop {
    Deliver,
    /// Lost: the next delta arrives gapped.
    Drop,
    /// One bit of the crc flips.
    FlipCrc(u8),
    /// One payload byte changes (a crc bit, if the payload has no bytes).
    FlipByte(prop::sample::Index, u8),
    /// An earlier checkpoint of the stream arrives again first.
    ReplayFirst(prop::sample::Index),
}

fn hop_strategy() -> impl Strategy<Value = Hop> {
    prop_oneof![
        Just(Hop::Deliver),
        Just(Hop::Deliver),
        Just(Hop::Deliver),
        Just(Hop::Drop),
        (0u8..32).prop_map(Hop::FlipCrc),
        (any::<prop::sample::Index>(), 1u8..=255).prop_map(|(at, flip)| Hop::FlipByte(at, flip)),
        any::<prop::sample::Index>().prop_map(Hop::ReplayFirst),
    ]
}

/// What a faulty hop does to a delta while keeping it *valid* — the payload
/// crc is recomputed afterwards, so the store has no reason to refuse it.
#[derive(Debug, Clone, Copy)]
enum Tamper {
    Nothing,
    /// One variable never arrives.
    RemoveVar(prop::sample::Index),
    /// One variable arrives with a byte changed (or one byte longer).
    ChangeVar(prop::sample::Index, u8),
}

fn tamper_strategy() -> impl Strategy<Value = Tamper> {
    prop_oneof![
        Just(Tamper::Nothing),
        Just(Tamper::Nothing),
        any::<prop::sample::Index>().prop_map(Tamper::RemoveVar),
        (any::<prop::sample::Index>(), 1u8..=255)
            .prop_map(|(at, flip)| Tamper::ChangeVar(at, flip)),
    ]
}

impl Tamper {
    /// Applies the fault; `true` when the delta is no longer what was taken.
    fn apply(self, delta: &mut VarSet) -> bool {
        let names: Vec<String> = delta.keys().cloned().collect();
        match self {
            Tamper::RemoveVar(at) if !names.is_empty() => {
                delta.remove(at.get(&names));
                true
            }
            Tamper::ChangeVar(at, flip) if !names.is_empty() => {
                let bytes = delta.get_mut(at.get(&names)).expect("named by the delta");
                let mut changed = bytes.to_vec();
                match changed.first_mut() {
                    Some(byte) => *byte ^= flip,
                    None => changed.push(flip),
                }
                *bytes = Bytes::from(changed);
                true
            }
            _ => false,
        }
    }
}

/// One entry of a delta offered to a backup that holds an image.
#[derive(Debug, Clone)]
enum Pick {
    /// A held name, picked anywhere: consecutive picks skip held slots, so
    /// the install's cursor misses its hint.
    Held(prop::sample::Index),
    /// Any name of a wider alphabet than the held names': often new, and
    /// then sorting before, between or after them.
    Any(String),
}

/// One install into a backup that holds an image.
#[derive(Debug, Clone)]
enum Install {
    /// A delta of these picks, each with a new value.
    Delta(Vec<Pick>),
    /// A full image of exactly the held names, every value new: installed
    /// slot by slot.
    SameNames,
    /// A full image of its own name set: the slots are rebuilt.
    Rebuild(VarSet),
}

/// Held names are drawn from `[bdf]`, so names from `[a-g]` land before,
/// between and after them.
fn held_strategy() -> impl Strategy<Value = VarSet> {
    prop::collection::btree_map("[bdf]{1,2}", prop::collection::vec(any::<u8>(), 0..8), 1..10)
        .prop_map(|m| m.into_iter().map(|(k, v)| (k, Bytes::from(v))).collect())
}

fn install_strategy() -> impl Strategy<Value = Install> {
    let pick = || {
        prop_oneof![
            any::<prop::sample::Index>().prop_map(Pick::Held),
            "[a-g]{1,3}".prop_map(Pick::Any),
        ]
    };
    let image =
        prop::collection::btree_map("[a-g]{1,2}", prop::collection::vec(any::<u8>(), 0..8), 0..10)
            .prop_map(|m| {
                Install::Rebuild(m.into_iter().map(|(k, v)| (k, Bytes::from(v))).collect())
            });
    prop_oneof![
        prop::collection::vec(pick(), 1..8).prop_map(Install::Delta),
        prop::collection::vec(pick(), 1..8).prop_map(Install::Delta),
        Just(Install::SameNames),
        image,
    ]
}

/// Builds the checkpoint stream (full first, deltas after, periodic fulls)
/// a primary would ship for the given history. Variables never disappear in
/// OFTT (designation is fixed), so make each image cumulative.
fn stream_for(history: &[VarSet], refresh_every: usize) -> (Vec<Checkpoint>, VarSet) {
    let mut cumulative = VarSet::new();
    let mut shipped = VarSet::new();
    let mut out = Vec::new();
    let mut seq = 0;
    for (i, image) in history.iter().enumerate() {
        merge(&mut cumulative, image);
        seq += 1;
        let payload = if i == 0 || i % refresh_every == 0 {
            CheckpointPayload::Full(cumulative.clone())
        } else {
            let delta = diff(&shipped, &cumulative);
            CheckpointPayload::Delta(delta)
        };
        shipped = cumulative.clone();
        out.push(Checkpoint::new(1, seq, SimTime::from_millis(seq), payload));
    }
    (out, cumulative)
}

proptest! {
    /// In-order delivery of any generated stream converges the store to
    /// the primary's final image — and the store's running checksum
    /// matches a from-scratch checksum of that image.
    #[test]
    fn in_order_stream_converges(history in history_strategy(), refresh in 1usize..6) {
        let (stream, final_image) = stream_for(&history, refresh);
        let mut store = CheckpointStore::new();
        for checkpoint in &stream {
            prop_assert_eq!(store.offer(checkpoint), AcceptOutcome::Installed);
        }
        prop_assert_eq!(&store.to_restore_image(), &final_image);
        prop_assert_eq!(store.image_crc(), checksum(&final_image));
    }

    /// Duplicated checkpoints (retransmissions) are rejected as stale and
    /// never change the image.
    #[test]
    fn duplicates_never_change_the_image(history in history_strategy(), dup_at in any::<prop::sample::Index>()) {
        let (stream, final_image) = stream_for(&history, 4);
        let mut store = CheckpointStore::new();
        let dup = dup_at.get(&stream).clone();
        for checkpoint in &stream {
            store.offer(checkpoint);
            // Replay an arbitrary earlier-or-equal checkpoint after each
            // install; it must never be installed again.
            if checkpoint.seq >= dup.seq {
                prop_assert!(matches!(store.offer(&dup), AcceptOutcome::Rejected(_)));
            }
        }
        prop_assert_eq!(&store.to_restore_image(), &final_image);
    }

    /// Dropping any single delta forces an out-of-order rejection for the
    /// rest of the term (exactly the condition that triggers a NACK and a
    /// full resend) — the store never silently installs a gapped image.
    #[test]
    fn gapped_deltas_are_refused(history in history_strategy()) {
        prop_assume!(history.len() >= 4);
        let (stream, _) = stream_for(&history, 100); // one full, then deltas
        let mut store = CheckpointStore::new();
        store.offer(&stream[0]);
        // Skip stream[1]; every later delta must be refused.
        for checkpoint in &stream[2..] {
            prop_assert_eq!(
                store.offer(checkpoint),
                AcceptOutcome::Rejected(oftt::checkpoint::RejectReason::OutOfOrder)
            );
        }
        // A fresh full with a later seq recovers the stream.
        let recovery = Checkpoint::new(
            1,
            stream.last().unwrap().seq + 1,
            SimTime::from_secs(99),
            CheckpointPayload::Full(VarSet::new()),
        );
        prop_assert_eq!(store.offer(&recovery), AcceptOutcome::Installed);
    }

    /// Bit-flips anywhere in any payload are detected by the checksum.
    #[test]
    fn corruption_is_always_detected(
        image in varset_strategy(),
        byte in any::<prop::sample::Index>(),
        flip in 1u8..=255,
    ) {
        prop_assume!(!image.is_empty());
        let mut corrupted = image.clone();
        // Flip one byte of one value (or extend an empty value).
        let keys: Vec<String> = corrupted.keys().cloned().collect();
        let key = byte.get(&keys).clone();
        let bytes = corrupted.get_mut(&key).unwrap();
        let mut v = bytes.to_vec();
        if v.is_empty() {
            v.push(flip);
        } else {
            let i = byte.index(v.len());
            v[i] ^= flip;
        }
        *bytes = Bytes::from(v);
        prop_assert_ne!(checksum(&image), checksum(&corrupted));
        let mut checkpoint =
            Checkpoint::new(1, 1, SimTime::ZERO, CheckpointPayload::Full(image));
        checkpoint.payload = CheckpointPayload::Full(corrupted);
        prop_assert!(!checkpoint.verify());
        let mut store = CheckpointStore::new();
        prop_assert_eq!(
            store.offer(&checkpoint),
            AcceptOutcome::Rejected(oftt::checkpoint::RejectReason::Corrupt)
        );
    }

    /// `merge(a, diff(a, b)) == b` for cumulative images (keys never
    /// vanish in OFTT) — the delta algebra the whole replication path
    /// rests on.
    #[test]
    fn merge_of_diff_recovers_target(a in varset_strategy(), update in varset_strategy()) {
        let mut b = a.clone();
        merge(&mut b, &update);
        let delta = diff(&a, &b);
        let mut rebuilt = a.clone();
        merge(&mut rebuilt, &delta);
        prop_assert_eq!(rebuilt, b);
    }

    /// The dirty-tracked delta path ([`VarStore::take_dirty`] after a
    /// digest-gated walkthrough) byte-matches the brute-force `diff()` of
    /// successive cumulative images, for every step of every history.
    #[test]
    fn var_store_delta_matches_brute_force_diff(history in history_strategy()) {
        let mut store = VarStore::new();
        let mut cumulative = VarSet::new();
        let mut prev = VarSet::new();
        for image in &history {
            merge(&mut cumulative, image);
            // The fallback walkthrough: re-write every variable; the
            // store's digests decide what is actually dirty.
            for (k, v) in &cumulative {
                store.set(k.clone(), v.clone());
            }
            let delta = store.take_dirty(None);
            let brute = diff(&prev, &cumulative);
            prop_assert_eq!(&delta, &brute);
            // Cumulative-image checksums agree between the cached-digest
            // fold and a from-scratch walk.
            prop_assert_eq!(store.image_crc(None), checksum(&cumulative));
            prev = cumulative.clone();
        }
    }

    /// Under any interleaving of the calls the FTIM makes — writes
    /// (fresh, identical, or over a value still pending; new names in any
    /// order; held names swept in order, in reverse or repeated, so that
    /// writes both hit and miss the store's next-slot hint; inserts before
    /// and after it; names borrowed or owned), taking the delta, a full ship
    /// superseding it, a new incarnation — and with or without a
    /// designation, the running checksum equals a from-scratch checksum of
    /// the image, the delta taken byte-matches brute-force `diff` against
    /// what the last ship covered, and every read (`get`, `digest`, `len`,
    /// `dirty_len`) agrees with the brute-force map.
    #[test]
    fn var_store_bookkeeping_matches_brute_force_under_any_interleaving(
        ops in prop::collection::vec(store_op_strategy(), 1..48),
        designated in prop::option::of(prop::collection::vec("[a-d]{1,2}", 0..4)),
    ) {
        let designated: Option<BTreeSet<String>> = designated.map(|d| d.into_iter().collect());
        let designated = designated.as_ref();
        let mut store = VarStore::new();
        let mut image = VarSet::new();
        let mut covered = VarSet::new(); // the image as of the last ship
        let mut stamp = 0u64;
        // Writes new content under `name` to the store and the map alike.
        // The stamp makes every written value new, so "written since the
        // last ship" and "differs from what the last ship covered" are the
        // same set and `diff` is an exact oracle.
        let mut write_new = |store: &mut VarStore, image: &mut VarSet, name: &str, tail: &[u8], borrowed| {
            stamp += 1;
            let bytes = Bytes::from([&stamp.to_le_bytes()[..], tail].concat());
            prop_assert!(store_set(store, name, bytes.clone(), borrowed));
            image.insert(name.to_string(), bytes);
            Ok(())
        };
        for op in ops {
            let held: Vec<String> = image.keys().cloned().collect();
            match op {
                StoreOp::Set(writes, borrowed) => {
                    for (name, tail) in writes {
                        write_new(&mut store, &mut image, &name, &tail, borrowed)?;
                    }
                }
                StoreOp::Sweep(from, count, reverse, borrowed) => {
                    if held.is_empty() {
                        continue;
                    }
                    let from = from.index(held.len());
                    for step in 0..count {
                        let at = if reverse {
                            (from + held.len() - step % held.len()) % held.len()
                        } else {
                            (from + step) % held.len()
                        };
                        write_new(&mut store, &mut image, &held[at], &[], borrowed)?;
                    }
                }
                StoreOp::Repeat(at, times, borrowed) => {
                    if held.is_empty() {
                        continue;
                    }
                    let name = at.get(&held);
                    for _ in 0..times {
                        write_new(&mut store, &mut image, name, &[], borrowed)?;
                    }
                }
                StoreOp::InsertNear(at, name, borrowed) => {
                    if held.is_empty() {
                        continue;
                    }
                    let at = at.index(held.len());
                    write_new(&mut store, &mut image, &held[at], &[], borrowed)?;
                    write_new(&mut store, &mut image, &name, &[], borrowed)?;
                    if let Some(following) = held.get(at + 1) {
                        write_new(&mut store, &mut image, following, &[], borrowed)?;
                    }
                }
                StoreOp::Rewrite(at, borrowed) => {
                    let names: Vec<&String> = image.keys().collect();
                    if names.is_empty() {
                        continue;
                    }
                    let name = (*at.get(&names)).clone();
                    let same_content = Bytes::from(image[&name].to_vec());
                    prop_assert!(!store_set(&mut store, &name, same_content, borrowed));
                }
                StoreOp::TakeDirty => {
                    let delta = store.take_dirty(designated);
                    let mut brute = diff(&covered, &image);
                    if let Some(designated) = designated {
                        brute.retain(|name, _| designated.contains(name));
                    }
                    prop_assert_eq!(&delta, &brute);
                    prop_assert_eq!(store.crc_of(&delta), checksum(&delta));
                    covered = image.clone();
                }
                StoreOp::ClearDirty => {
                    store.clear_dirty();
                    covered = image.clone();
                }
                StoreOp::Clear => {
                    store.clear();
                    image.clear();
                    covered.clear();
                }
            }
            prop_assert_eq!(store.len(), image.len());
            prop_assert_eq!(store.is_empty(), image.is_empty());
            prop_assert_eq!(store.dirty_len(), diff(&covered, &image).len());
            for (name, bytes) in &image {
                prop_assert_eq!(store.get(name), Some(bytes));
                prop_assert_eq!(store.digest(name), Some(var_digest(name, bytes)));
            }
            // A name no write uses is absent, wherever it would sort.
            for absent in ["", "e", "aaa", "dd0"] {
                prop_assert_eq!(store.get(absent), None);
                prop_assert_eq!(store.digest(absent), None);
            }
            prop_assert_eq!(&store.image(None), &image);
            prop_assert_eq!(store.image_crc(None), checksum(&image));
            prop_assert_eq!(store.image_crc(designated), checksum(&store.image(designated)));
        }
    }

    /// A shipping store feeds a backup store through a faulty hop: losses,
    /// corrupted crcs and payloads, replays. Whatever arrives, the backup's
    /// running checksum equals a from-scratch checksum of what it holds; a
    /// refused offer changes nothing at all; an accepted one leaves exactly
    /// the image, and the image checksum, the shipping store had when it
    /// took that checkpoint. Full or delta, and the stamps, come from the
    /// FTIM's own shipping rule, fed the backup's own replies; no ack ever
    /// reports an image other than the one shipped at its position.
    #[test]
    fn backup_checksum_tracks_the_shipping_store_through_a_faulty_hop(
        steps in prop::collection::vec((varset_strategy(), hop_strategy()), 1..16),
    ) {
        let mut ship = VarStore::new();
        let mut backup = CheckpointStore::new();
        // Every checkpoint taken, with the shipping store's image and image
        // checksum at that moment.
        let mut taken: Vec<(Checkpoint, VarSet, u32)> = Vec::new();
        let mut rule = ShipState::new(CheckpointMode::Selective { refresh_every: 2 });
        rule.step(ShipEvent::Activate { resume: false });

        // Offers one checkpoint and checks everything an offer promises.
        let offer = |backup: &mut CheckpointStore,
                     arriving: &Checkpoint,
                     image_then: &VarSet,
                     crc_then: u32| {
            let before = backup.clone();
            let outcome = backup.offer(arriving);
            prop_assert_eq!(backup.image_crc(), checksum(&backup.to_restore_image()));
            match outcome {
                AcceptOutcome::Installed => {
                    prop_assert_eq!(&backup.to_restore_image(), image_then);
                    prop_assert_eq!(backup.image_crc(), crc_then);
                    prop_assert_eq!(backup.position(), (arriving.term, arriving.seq));
                }
                AcceptOutcome::Rejected(_) => prop_assert_eq!(&*backup, &before),
            }
            Ok(outcome)
        };
        // Hands the backup's reply to an offer back to the primary's rule.
        let answer = |rule: &mut ShipState, outcome, backup: &CheckpointStore| {
            let event = match reply(outcome, backup) {
                FtimPeerMsg::CkptAck { term, seq, crc } => {
                    ShipEvent::Ack { own_term: Some(1), position: (term, seq), crc }
                }
                FtimPeerMsg::CkptNack => ShipEvent::Nack,
                other => unreachable!("a backup answers with an ack or a NACK, not {:?}", other),
            };
            let action = rule.step(event);
            prop_assert!(!matches!(action, ShipAction::Mismatch { .. }), "{:?}", action);
            Ok(())
        };

        let final_step = (VarSet::new(), Hop::Deliver);
        let last = steps.len();
        for (i, (writes, hop)) in steps.into_iter().chain([final_step]).enumerate() {
            for (name, bytes) in &writes {
                ship.set(name.clone(), bytes.clone());
            }
            // The closing checkpoint is a full image, as after any NACK.
            if i == last {
                rule.step(ShipEvent::Nack);
            }
            let ShipAction::Ship { term, seq, full, .. } =
                rule.step(ShipEvent::Opportunity { term: 1 })
            else {
                unreachable!("an opportunity always decides");
            };
            let image_crc = ship.image_crc(None);
            let (payload, crc) = if full {
                let image = ship.image(None);
                ship.clear_dirty();
                (CheckpointPayload::Full(image), image_crc)
            } else {
                let delta = ship.take_dirty(None);
                if delta.is_empty() {
                    continue; // as in the FTIM: an empty delta ships nothing
                }
                let crc = ship.crc_of(&delta);
                (CheckpointPayload::Delta(delta), crc)
            };
            rule.step(ShipEvent::Shipped { image_crc });
            let checkpoint =
                Checkpoint::with_crc(term, seq, SimTime::from_millis(seq), payload, crc);
            let image_now = ship.image(None);

            let arriving = match hop {
                Hop::Deliver => Some(checkpoint.clone()),
                Hop::Drop => None,
                Hop::FlipCrc(bit) => {
                    let mut bad = checkpoint.clone();
                    bad.crc ^= 1 << bit;
                    Some(bad)
                }
                Hop::FlipByte(at, flip) => {
                    let mut bad = checkpoint.clone();
                    let (CheckpointPayload::Full(vars) | CheckpointPayload::Delta(vars)) =
                        &mut bad.payload;
                    match vars.values_mut().filter(|bytes| !bytes.is_empty()).last() {
                        Some(bytes) => {
                            let mut changed = bytes.to_vec();
                            changed[at.index(bytes.len())] ^= flip;
                            *bytes = Bytes::from(changed);
                        }
                        None => bad.crc ^= u32::from(flip),
                    }
                    Some(bad)
                }
                Hop::ReplayFirst(at) => {
                    if !taken.is_empty() {
                        let (old, image_then, crc_then) = at.get(&taken);
                        let outcome = offer(&mut backup, old, image_then, *crc_then)?;
                        answer(&mut rule, outcome, &backup)?;
                    }
                    Some(checkpoint.clone())
                }
            };
            if let Some(arriving) = arriving {
                let outcome = offer(&mut backup, &arriving, &image_now, image_crc)?;
                if matches!(hop, Hop::FlipCrc(_) | Hop::FlipByte(..)) {
                    prop_assert_eq!(outcome, AcceptOutcome::Rejected(RejectReason::Corrupt));
                }
                answer(&mut rule, outcome, &backup)?;
            }
            taken.push((checkpoint, image_now, image_crc));
        }
        // The closing full image was delivered intact: the pair agrees.
        prop_assert_eq!(backup.image_crc(), ship.image_crc(None));
        prop_assert_eq!(backup.to_restore_image(), ship.image(None));
    }

    /// What lets an ack confirm an image: a shipping store feeds a backup
    /// store in order, and any subset of the deltas is tampered *validly* on
    /// the way, so every one of them installs. After each install the
    /// backup's image checksum — what its ack carries — equals the shipping
    /// store's exactly when the two images are equal: a tampered delta
    /// always shows, and keeps showing until that variable is rewritten.
    #[test]
    fn acked_checksum_matches_the_shipped_one_exactly_when_the_images_agree(
        steps in prop::collection::vec((varset_strategy(), tamper_strategy()), 1..16),
    ) {
        let mut ship = VarStore::new();
        let mut backup = CheckpointStore::new();
        for (i, (writes, tamper)) in steps.into_iter().enumerate() {
            for (name, bytes) in &writes {
                ship.set(name.clone(), bytes.clone());
            }
            let (payload, tampered) = if i == 0 {
                let image = ship.image(None);
                ship.clear_dirty();
                (CheckpointPayload::Full(image), false)
            } else {
                let mut delta = ship.take_dirty(None);
                let tampered = tamper.apply(&mut delta);
                (CheckpointPayload::Delta(delta), tampered)
            };
            let seq = i as u64 + 1;
            let arriving = Checkpoint::new(1, seq, SimTime::from_millis(seq), payload);
            prop_assert_eq!(backup.offer(&arriving), AcceptOutcome::Installed);
            let same_image = backup.to_restore_image() == ship.image(None);
            prop_assert_eq!(backup.image_crc() == ship.image_crc(None), same_image);
            prop_assert!(!(tampered && same_image), "a tampered delta diverges the images");
        }
    }

    /// The cross-variable combine reads nothing from order, and loses
    /// nothing of a single digest: any permutation combines to the same
    /// value, and changing any one digest always changes it.
    #[test]
    fn fold_digests_ignores_order_and_keeps_every_single_change(
        keyed in prop::collection::vec(any::<(u64, u32)>(), 1..32),
        at in any::<prop::sample::Index>(),
        other in any::<u32>(),
    ) {
        let digests: Vec<u32> = keyed.iter().map(|&(_, digest)| digest).collect();
        let mut permuted = keyed.clone();
        permuted.sort_unstable(); // by the random key
        let folded = fold_digests(digests.iter().copied());
        prop_assert_eq!(folded, fold_digests(permuted.into_iter().map(|(_, digest)| digest)));

        let at = at.index(digests.len());
        prop_assume!(other != digests[at]);
        let mut changed = digests.clone();
        changed[at] = other;
        prop_assert_ne!(folded, fold_digests(changed));
    }

    /// Every way an install reaches the backup's slots — a delta that
    /// overwrites held names (skipping ahead of the cursor, so its hint
    /// misses) and inserts new ones before, between and after them; a full
    /// image of the held names, written slot by slot; a full image of
    /// another name set, which rebuilds the slots — leaves exactly the
    /// brute-force `merge` (or the full image), and the running checksum
    /// equals a from-scratch checksum of the restore image. The explicit
    /// checksum check is what covers a release build, which compiles the
    /// store's own `debug_assert`s out.
    #[test]
    fn every_install_path_matches_brute_force_merge(
        held in held_strategy(),
        installs in prop::collection::vec(install_strategy(), 1..12),
    ) {
        let mut backup = CheckpointStore::new();
        let mut brute = held;
        let mut stamp = 0u64;
        let mut fresh = || {
            stamp += 1;
            Bytes::from(stamp.to_le_bytes().to_vec())
        };
        let first = Checkpoint::new(1, 1, SimTime::ZERO, CheckpointPayload::Full(brute.clone()));
        prop_assert_eq!(backup.offer(&first), AcceptOutcome::Installed);
        for (seq, install) in (2u64..).zip(installs) {
            let payload = match install {
                Install::Delta(picks) => {
                    let names: Vec<String> = brute.keys().cloned().collect();
                    let delta: VarSet = picks
                        .into_iter()
                        .filter_map(|pick| match pick {
                            Pick::Held(_) if names.is_empty() => None,
                            Pick::Held(at) => Some((at.get(&names).clone(), fresh())),
                            Pick::Any(name) => Some((name, fresh())),
                        })
                        .collect();
                    merge(&mut brute, &delta);
                    CheckpointPayload::Delta(delta)
                }
                Install::SameNames => {
                    brute = brute.keys().map(|name| (name.clone(), fresh())).collect();
                    CheckpointPayload::Full(brute.clone())
                }
                Install::Rebuild(image) => {
                    brute = image;
                    CheckpointPayload::Full(brute.clone())
                }
            };
            let checkpoint = Checkpoint::new(1, seq, SimTime::from_millis(seq), payload);
            prop_assert_eq!(backup.offer(&checkpoint), AcceptOutcome::Installed);
            let image = backup.to_restore_image();
            prop_assert_eq!(&image, &brute);
            prop_assert_eq!(backup.image_crc(), checksum(&image));
        }
    }

    /// A full image carrying exactly the names already held is installed by
    /// overwriting values where they sit; any other by rebuilding the slots.
    /// The two installs must be indistinguishable.
    #[test]
    fn in_place_and_rebuilt_full_installs_agree(
        first in varset_strategy(),
        tails in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        // `second`: `first`'s names, every value new. `other`: a different
        // name set (the pattern behind `first` cannot produce "z").
        let second: VarSet = first
            .keys()
            .enumerate()
            .map(|(i, name)| (name.clone(), Bytes::from([&[i as u8][..], &tails[..]].concat())))
            .collect();
        let mut other = first.clone();
        other.insert("z".into(), Bytes::from(tails.clone()));
        let full = |seq: u64, vars: &VarSet| {
            Checkpoint::new(1, seq, SimTime::from_millis(seq), CheckpointPayload::Full(vars.clone()))
        };

        let mut in_place = CheckpointStore::new();
        let mut rebuilt = CheckpointStore::new();
        prop_assert_eq!(in_place.offer(&full(1, &first)), AcceptOutcome::Installed);
        prop_assert_eq!(rebuilt.offer(&full(1, &other)), AcceptOutcome::Installed);
        prop_assert_eq!(in_place.offer(&full(2, &second)), AcceptOutcome::Installed);
        prop_assert_eq!(rebuilt.offer(&full(2, &second)), AcceptOutcome::Installed);

        prop_assert_eq!(&in_place.to_restore_image(), &second);
        prop_assert_eq!(in_place.image_crc(), checksum(&second));
        // The seeded-defect build also keeps the displaced image, which
        // differs here by construction.
        #[cfg(not(feature = "inject_bugs"))]
        prop_assert_eq!(&in_place, &rebuilt);
        prop_assert_eq!(in_place.to_restore_image(), rebuilt.to_restore_image());
        prop_assert_eq!(in_place.image_crc(), rebuilt.image_crc());
        prop_assert_eq!(in_place.position(), rebuilt.position());
    }
}

/// The backup's install paths on one fixed image, case by case: a delta
/// inserting before, between and after the held names, one whose held
/// names skip ahead of the cursor, and a full image of another name set.
#[test]
fn a_delta_lands_before_between_and_after_held_names() {
    let image = |pairs: &[(&str, u8)]| -> VarSet {
        pairs.iter().map(|&(name, value)| (name.to_string(), Bytes::from(vec![value]))).collect()
    };
    let held = image(&[("b", 0), ("d", 0), ("f", 0), ("h", 0), ("j", 0), ("l", 0)]);
    let deltas = [
        image(&[("a", 1), ("c", 1), ("e", 1), ("m", 1)]),
        image(&[("b", 2), ("h", 2), ("l", 2)]),
        image(&[("a", 3), ("bb", 3), ("l", 3), ("z", 3)]),
    ];
    let mut backup = CheckpointStore::new();
    let mut brute = held.clone();
    let full = Checkpoint::new(1, 1, SimTime::ZERO, CheckpointPayload::Full(held));
    assert_eq!(backup.offer(&full), AcceptOutcome::Installed);
    for (seq, delta) in (2u64..).zip(deltas) {
        merge(&mut brute, &delta);
        let checkpoint = Checkpoint::new(1, seq, SimTime::ZERO, CheckpointPayload::Delta(delta));
        assert_eq!(backup.offer(&checkpoint), AcceptOutcome::Installed);
        assert_eq!(backup.to_restore_image(), brute, "after seq {seq}");
        assert_eq!(backup.image_crc(), checksum(&backup.to_restore_image()));
    }
    let other = image(&[("c", 4), ("d", 4), ("y", 4)]);
    let rebuild = Checkpoint::new(1, 5, SimTime::ZERO, CheckpointPayload::Full(other.clone()));
    assert_eq!(backup.offer(&rebuild), AcceptOutcome::Installed);
    assert_eq!(backup.to_restore_image(), other);
    assert_eq!(backup.image_crc(), checksum(&other));
}

/// The acceptance workload's wire cost: with 10,000 × 64 B variables and
/// 1 % of them rewritten in a period, the delta the dirty-tracked store
/// ships must be at least 20× lighter than the full image.
#[test]
fn delta_is_twenty_times_lighter_than_full_at_one_percent_dirty() {
    let mut store = VarStore::new();
    for i in 0..10_000 {
        store.set(format!("var{i:05}"), vec![(i & 0xFF) as u8; 64]);
    }
    store.clear_dirty();
    for i in 0..100 {
        store.set(format!("var{i:05}"), vec![0xA5u8; 64]);
    }
    let ship = |payload| Checkpoint::new(1, 2, SimTime::from_millis(2), payload).wire_size();
    let full = ship(CheckpointPayload::Full(store.image(None)));
    let delta = ship(CheckpointPayload::Delta(store.take_dirty(None)));
    assert!(full >= 20 * delta, "full {full} B is under 20x the delta's {delta} B");
}
