//! Checkpoint representation, the variable store, delta computation, and
//! the backup-side store — the heart of paper §2.2.2.
//!
//! Application state is a set of named, marshaled variables (the analog of
//! the Win32 "memory walkthrough", at `OFTTSelSave` granularity). A full
//! checkpoint carries every designated variable; a delta carries only those
//! whose content changed since the last shipped checkpoint. The backup
//! merges checkpoints into a [`CheckpointStore`], accepting only
//! monotonically newer `(term, seq)` and demanding a full resend when a
//! delta arrives out of order.
//!
//! ## The data path is O(dirty set)
//!
//! Variable payloads are [`Bytes`] — shared immutable buffers — so every
//! hop after the application marshals a variable (delta assembly, store
//! install, restore image, retransmission) is a reference bump, not a copy.
//! The primary keeps its shipping state in a [`VarStore`]: one name-ordered
//! vector of slots, each holding a variable's name (the only copy), bytes
//! and cached Fletcher-32 digest. A write finds its slot by binary search
//! on a borrowed name and changes anything only when the content changed;
//! a changed write marks its slot dirty and appends the slot's index to
//! the pending list, so taking a period's delta reads the dirty slots
//! alone, and a write to a name the store already holds allocates nothing.
//!
//! ## The checksum is a sum, so it can be kept instead of recomputed
//!
//! Within a variable, order matters, and [`var_digest`] is Fletcher-32 over
//! name, separator, value, terminator. Across variables it does not: an
//! image is a map keyed by name and every name is already inside its own
//! digest, so position in the iteration carries no information a checksum
//! could protect. [`fold_digests`] therefore combines digests with a
//! wrapping sum of a fixed bijective scramble of each one. A sum is
//! commutative and every term has an inverse, which is what lets both
//! stores *carry* the image checksum: [`VarStore::set`] and an accepted
//! [`CheckpointStore::offer`] subtract the term of the digest they displace
//! and add the term of the one they install, and reading the image checksum
//! is a field read however many variables are clean. The scramble is a
//! bijection of `u32` and the sum is taken mod 2³², so a change confined to
//! one variable moves the checksum exactly when it moves that variable's
//! digest — nothing is lost in the combine. (A wider sum folded down to the
//! `u32` that travels in [`Checkpoint::crc`] could not promise that.)
//!
//! One function serves images and payloads alike: a full checkpoint's
//! payload checksum *is* the image checksum. The value is wire-visible
//! twice — in every checkpoint, and since wire version 3 in every ack,
//! where the backup reports [`CheckpointStore::image_crc`] and the primary
//! compares it with the [`VarStore::image_crc`] it shipped — so
//! `oftt_wire::frame::VERSION` names both: version 1 peers folded digests
//! through Fletcher in name order, version 2 peers acknowledge without a
//! checksum, and either is refused at the first frame header.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

use comsim::buf::Bytes;
use ds_sim::prelude::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A named, marshaled application variable set.
pub type VarSet = BTreeMap<String, Bytes>;

/// Fletcher-32 accumulator (mod-65535 halves, `(b << 16) | a`).
#[derive(Debug, Clone, Copy, Default)]
struct Fletcher {
    a: u32,
    b: u32,
}

impl Fletcher {
    fn feed(&mut self, byte: u8) {
        self.a = (self.a + byte as u32) % 65_535;
        self.b = (self.b + self.a) % 65_535;
    }

    fn feed_all(&mut self, bytes: &[u8]) {
        // Deferred-modulo Fletcher. `% 65_535` preserves addition, so the
        // per-byte reductions collapse to two per block as long as the
        // running sums cannot wrap: starting from a, b < 65_535, after n
        // bytes a ≤ 65_534 + 255·n and b ≤ 65_534 + 65_534·n + 255·n(n+1)/2,
        // which stays under 2³² for n = 4096 (≈ 2.41e9). The per-dirty-var
        // ship path calls this for every variable every checkpoint period;
        // dropping the two divisions per byte is a multiple-x win there
        // (its cost is inside the benchmark's `ckpt_dense/op_ms`).
        const BLOCK: usize = 4096;
        let mut a = self.a;
        let mut b = self.b;
        for block in bytes.chunks(BLOCK) {
            let mut quads = block.chunks_exact(4);
            for quad in &mut quads {
                if let &[x0, x1, x2, x3] = quad {
                    a += u32::from(x0);
                    b += a;
                    a += u32::from(x1);
                    b += a;
                    a += u32::from(x2);
                    b += a;
                    a += u32::from(x3);
                    b += a;
                }
            }
            for &byte in quads.remainder() {
                a += u32::from(byte);
                b += a;
            }
            a %= 65_535;
            b %= 65_535;
        }
        self.a = a;
        self.b = b;
    }

    fn value(self) -> u32 {
        (self.b << 16) | self.a
    }
}

/// Fletcher-32 digest of a single named variable: name bytes, a `0xFF`
/// separator, value bytes, a `0xFE` terminator. The [`VarStore`] caches
/// this per variable so checkpoint checksums never re-walk clean payloads.
pub fn var_digest(name: &str, bytes: &[u8]) -> u32 {
    let mut f = Fletcher::default();
    f.feed_all(name.as_bytes());
    f.feed(0xFF);
    f.feed_all(bytes);
    f.feed(0xFE);
    f.value()
}

/// Byte-at-a-time reference [`var_digest`]: the definitional Fletcher-32
/// loop with a reduction after every byte. The oracle the equivalence
/// test pins the optimized block path against, bit for bit.
#[cfg(test)]
fn var_digest_reference(name: &str, bytes: &[u8]) -> u32 {
    let mut f = Fletcher::default();
    for byte in name.as_bytes() {
        f.feed(*byte);
    }
    f.feed(0xFF);
    for byte in bytes {
        f.feed(*byte);
    }
    f.feed(0xFE);
    f.value()
}

/// One digest's term in the cross-variable sum: murmur3's 32-bit finalizer
/// over the complemented digest. Every step is invertible, so distinct
/// digests have distinct terms and a one-variable change can never cancel
/// inside the combine; the multiplies keep related digests (one flipped
/// byte at the same offset of two variables) from cancelling across
/// variables the way a plain sum of digests would. The finalizer's only
/// zero is at zero, and `!0` is not a Fletcher-32 value (both halves are
/// reduced mod 65 535), so no variable contributes a zero term: adding or
/// dropping one always shows.
fn digest_term(digest: u32) -> u32 {
    let mut h = !digest;
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^ (h >> 16)
}

/// A checksum kept current across digest changes: the wrapping sum of each
/// digest's [`digest_term`]. Both stores hold one, so reading an image
/// checksum never walks the image.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RunningSum(u32);

impl RunningSum {
    fn add(&mut self, digest: u32) {
        self.0 = self.0.wrapping_add(digest_term(digest));
    }

    fn remove(&mut self, digest: u32) {
        self.0 = self.0.wrapping_sub(digest_term(digest));
    }
}

/// Combines per-variable digests into one checksum: the wrapping sum of
/// each digest's scrambled term. Order does not matter, and a digest's
/// term can be subtracted back out — the stores keep the sum current in
/// O(1) per changed variable instead of calling this over the whole image.
pub fn fold_digests(digests: impl IntoIterator<Item = u32>) -> u32 {
    let mut sum = RunningSum::default();
    for digest in digests {
        sum.add(digest);
    }
    sum.0
}

/// Checkpoint integrity checksum: [`fold_digests`] over every entry's
/// [`var_digest`]. Computing it from scratch is O(payload bytes); the
/// stores produce the same value for their images from a running sum.
pub fn checksum(vars: &VarSet) -> u32 {
    fold_digests(vars.iter().map(|(name, bytes)| var_digest(name, bytes)))
}

/// The payload of one checkpoint message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CheckpointPayload {
    /// Every designated variable.
    Full(VarSet),
    /// Only changed variables (requires an in-order predecessor).
    Delta(VarSet),
}

impl CheckpointPayload {
    /// The variables carried.
    pub fn vars(&self) -> &VarSet {
        match self {
            CheckpointPayload::Full(v) | CheckpointPayload::Delta(v) => v,
        }
    }

    /// `true` for full images.
    pub fn is_full(&self) -> bool {
        matches!(self, CheckpointPayload::Full(_))
    }
}

/// One checkpoint in flight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The primary's promotion epoch when taken.
    pub term: u64,
    /// Sequence within the term (0, 1, 2, …).
    pub seq: u64,
    /// When it was taken.
    pub taken_at: SimTime,
    /// The variables.
    pub payload: CheckpointPayload,
    /// [`checksum`] of the payload variables.
    pub crc: u32,
}

impl Checkpoint {
    /// Builds a checkpoint, computing the checksum from the payload bytes.
    pub fn new(term: u64, seq: u64, taken_at: SimTime, payload: CheckpointPayload) -> Self {
        let crc = checksum(payload.vars());
        Checkpoint { term, seq, taken_at, payload, crc }
    }

    /// Builds a checkpoint with a caller-supplied checksum — the primary's
    /// incremental path, where `crc` came from [`VarStore`]'s running sum
    /// or cached digests without touching payload bytes. Debug builds
    /// verify the claim.
    pub fn with_crc(
        term: u64,
        seq: u64,
        taken_at: SimTime,
        payload: CheckpointPayload,
        crc: u32,
    ) -> Self {
        debug_assert_eq!(crc, checksum(payload.vars()), "cached digests diverged from payload");
        Checkpoint { term, seq, taken_at, payload, crc }
    }

    /// Verifies payload integrity.
    pub fn verify(&self) -> bool {
        checksum(self.payload.vars()) == self.crc
    }

    /// Recomputes every entry's digest, checks them against `crc`, and
    /// returns the digests in payload order on success — the receive path
    /// verifies the payload and learns each entry's term in one walk.
    fn verified_digests(&self) -> Option<Vec<u32>> {
        let vars = self.payload.vars();
        let mut sum = RunningSum::default();
        let mut digests = Vec::with_capacity(vars.len());
        for (name, bytes) in vars {
            let digest = var_digest(name, bytes);
            sum.add(digest);
            digests.push(digest);
        }
        (sum.0 == self.crc).then_some(digests)
    }

    /// Exact wire size in bytes — matches `comsim::marshal::to_bytes` on
    /// this value byte for byte (struct fields concatenated; `u32` variant
    /// index and map length; `u32` length prefix per string/buffer).
    pub fn wire_size(&self) -> u64 {
        // term u64 + seq u64 + taken_at u64 + payload variant u32 +
        // map length u32 + crc u32.
        let fixed = 8 + 8 + 8 + 4 + 4 + 4;
        let vars: u64 = self
            .payload
            .vars()
            .iter()
            .map(|(name, bytes)| 4 + name.len() as u64 + 4 + bytes.len() as u64)
            .sum();
        fixed + vars
    }
}

/// Exact wire size of a [`VarSet`] encoded on its own (`u32` map length,
/// then length-prefixed name and value per entry).
pub fn varset_wire_size(vars: &VarSet) -> u64 {
    4 + vars.iter().map(|(name, bytes)| 4 + name.len() as u64 + 4 + bytes.len() as u64).sum::<u64>()
}

/// Computes the delta between the last-shipped image and the current one:
/// variables whose bytes changed or that are new. (Deleted variables are
/// not modeled — OFTT variables are designated once at initialization.)
/// This is the brute-force reference; the hot path takes [`VarStore`]'s
/// pending delta instead.
pub fn diff(last: &VarSet, current: &VarSet) -> VarSet {
    current
        .iter()
        .filter(|(name, bytes)| last.get(*name) != Some(*bytes))
        .map(|(name, bytes)| (name.clone(), bytes.clone()))
        .collect()
}

/// Applies `delta` on top of `base` (insert-or-overwrite per entry) — the
/// brute-force reference for what the backup store's delta install does.
pub fn merge(base: &mut VarSet, delta: &VarSet) {
    for (name, bytes) in delta {
        base.insert(name.clone(), bytes.clone());
    }
}

/// One variable on the primary side. The name is held here and nowhere
/// else in the store.
#[derive(Debug, Clone)]
struct Slot {
    name: String,
    bytes: Bytes,
    digest: u32,
    /// Whether the slot's index is in the pending delta.
    dirty: bool,
}

/// The primary-side shipping store: the current image with per-variable
/// content digests, the delta pending since the last ship, and the image's
/// running checksum.
///
/// The image is one vector of slots in name order, each name held once.
/// Writes go through [`VarStore::set`], which finds the slot by binary
/// search on a borrowed name and changes anything only when the content
/// changed (digest gate first, byte comparison on digest equality — the
/// content hash is a fast filter, not the source of truth). A changed write
/// swaps the variable's term in the running sum and, the first time in a
/// period, appends the slot's index to the pending delta, so a period's
/// delta is [`VarStore::take_dirty`] reading the dirty slots — clean entries
/// are never visited, cloned, or re-hashed, by the delta or by the
/// checksum. A write to a held name allocates nothing: the pending list
/// always has room for every slot, and [`VarStore::clear_dirty`] empties it
/// without freeing it.
#[derive(Debug, Clone, Default)]
pub struct VarStore {
    /// The image, sorted by name.
    slots: Vec<Slot>,
    /// Index of every slot changed since the last ship, each once (the
    /// slot's `dirty` flag guards the push); its capacity never falls
    /// below `slots.len()`.
    pending: Vec<u32>,
    /// [`checksum`] of the whole image.
    sum: RunningSum,
}

impl VarStore {
    /// An empty store.
    pub fn new() -> Self {
        VarStore::default()
    }

    /// Number of variables held.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// `true` when no variables are held.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of variables changed since the last ship.
    pub fn dirty_len(&self) -> usize {
        self.pending.len()
    }

    /// Drops all variables and the pending delta (a fresh incarnation).
    pub fn clear(&mut self) {
        *self = VarStore::default();
    }

    /// Drops the pending delta without touching contents — called after a
    /// full checkpoint, which supersedes it. Frees nothing.
    pub fn clear_dirty(&mut self) {
        for &at in &self.pending {
            self.slots[at as usize].dirty = false;
        }
        self.pending.clear();
    }

    /// Writes one variable. Returns `true` (and adds it to the pending
    /// delta) only when the content changed; writing identical bytes is a
    /// no-op beyond the digest check. A name the store already holds is
    /// only borrowed: it is neither converted nor copied.
    pub fn set(&mut self, name: impl AsRef<str> + Into<String>, bytes: impl Into<Bytes>) -> bool {
        let bytes = bytes.into();
        let digest = var_digest(name.as_ref(), &bytes);
        match self.find(name.as_ref()) {
            Ok(at) => {
                let slot = &mut self.slots[at];
                if slot.digest == digest && slot.bytes == bytes {
                    return false;
                }
                self.sum.remove(slot.digest);
                slot.bytes = bytes;
                slot.digest = digest;
                if !slot.dirty {
                    slot.dirty = true;
                    self.pending.push(slot_index(at));
                }
            }
            Err(at) => {
                // Every pending index at or past the insertion point now
                // names the slot one further on. A store primed in name
                // order only appends, and has nothing to renumber.
                let index = slot_index(at);
                if at < self.slots.len() {
                    for pending in &mut self.pending {
                        if *pending >= index {
                            *pending += 1;
                        }
                    }
                }
                self.slots.insert(at, Slot { name: name.into(), bytes, digest, dirty: true });
                self.pending.push(index);
                self.pending.reserve(self.slots.len() - self.pending.len());
            }
        }
        self.sum.add(digest);
        true
    }

    /// The slot holding `name`, or where it would be inserted.
    fn find(&self, name: &str) -> Result<usize, usize> {
        self.slots.binary_search_by(|slot| slot.name.as_str().cmp(name))
    }

    fn slot(&self, name: &str) -> Option<&Slot> {
        self.find(name).ok().and_then(|at| self.slots.get(at))
    }

    /// The current bytes of a variable.
    pub fn get(&self, name: &str) -> Option<&Bytes> {
        self.slot(name).map(|slot| &slot.bytes)
    }

    /// The cached digest of a variable.
    pub fn digest(&self, name: &str) -> Option<u32> {
        self.slot(name).map(|slot| slot.digest)
    }

    /// Takes the pending delta, built from the dirty slots alone. When
    /// `designated` is given, only those names are emitted (pending changes
    /// to undesignated variables are consumed too — they do not travel by
    /// designation).
    pub fn take_dirty(&mut self, designated: Option<&BTreeSet<String>>) -> VarSet {
        let mut delta = VarSet::new();
        for &at in &self.pending {
            let slot = &mut self.slots[at as usize];
            slot.dirty = false;
            if designated.is_none_or(|d| d.contains(&slot.name)) {
                delta.insert(slot.name.clone(), slot.bytes.clone());
            }
        }
        self.pending.clear();
        delta
    }

    /// The full (optionally designation-filtered) image — cheap buffer
    /// clones, no byte copies.
    pub fn image(&self, designated: Option<&BTreeSet<String>>) -> VarSet {
        self.slots
            .iter()
            .filter(|slot| designated.is_none_or(|d| d.contains(&slot.name)))
            .map(|slot| (slot.name.clone(), slot.bytes.clone()))
            .collect()
    }

    /// Checksum of the (optionally designation-filtered) image. The whole
    /// image's is the running sum, a field read; a designated subset is
    /// combined from its cached digests in O(entries). No payload bytes
    /// are touched either way.
    pub fn image_crc(&self, designated: Option<&BTreeSet<String>>) -> u32 {
        match designated {
            None => {
                debug_assert_eq!(
                    self.sum.0,
                    fold_digests(self.slots.iter().map(|s| var_digest(&s.name, &s.bytes))),
                    "running sum diverged from the image"
                );
                self.sum.0
            }
            Some(designated) => fold_digests(
                self.slots.iter().filter(|s| designated.contains(&s.name)).map(|s| s.digest),
            ),
        }
    }

    /// Checksum of a [`VarSet`] drawn from this store, combined from cached
    /// digests where available (falling back to hashing for foreign
    /// entries).
    pub fn crc_of(&self, vars: &VarSet) -> u32 {
        fold_digests(vars.iter().map(|(name, bytes)| match self.slot(name) {
            Some(slot) if slot.bytes == *bytes => slot.digest,
            _ => var_digest(name, bytes),
        }))
    }
}

/// A slot position as the pending list stores it. A store of 2³² variables
/// would need hundreds of gigabytes of slots alone, so the index always fits.
fn slot_index(at: usize) -> u32 {
    u32::try_from(at).expect("a VarStore holds fewer than 2^32 variables")
}

/// Why a checkpoint was rejected by the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// `(term, seq)` not newer than what the store holds.
    Stale,
    /// A delta arrived without its in-order predecessor.
    OutOfOrder,
    /// The checksum did not match.
    Corrupt,
}

/// Outcome of offering a checkpoint to the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptOutcome {
    /// Installed.
    Installed,
    /// Rejected; deltas rejected `OutOfOrder` should trigger a NACK asking
    /// for a full resend.
    Rejected(RejectReason),
}

/// The backup-side checkpoint store: the merged image the application will
/// be restored from at switchover, and that image's running checksum.
///
/// The store caches no digests. A full image's checksum is the verified
/// checkpoint's own; a delta's entries were just hashed to verify it, and
/// the term of each value a delta displaces is recomputed from the bytes
/// being displaced — the same order of work as verifying the bytes that
/// replace them, and no second name-keyed tree to keep in step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckpointStore {
    vars: VarSet,
    /// [`checksum`] of `vars`.
    sum: RunningSum,
    term: u64,
    seq: u64,
    taken_at: SimTime,
    have_full: bool,
    /// Seeded-defect support: the image superseded by the newest install,
    /// kept one level deep so the stale-promotion bug has something older
    /// to (incorrectly) restore.
    #[cfg(feature = "inject_bugs")]
    prev_vars: VarSet,
    #[cfg(feature = "inject_bugs")]
    prev_term: u64,
    #[cfg(feature = "inject_bugs")]
    prev_seq: u64,
    #[cfg(feature = "inject_bugs")]
    prev_full: bool,
}

impl CheckpointStore {
    /// An empty store (nothing to restore from).
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// `true` once a full image has been installed.
    pub fn is_restorable(&self) -> bool {
        self.have_full
    }

    /// The `(term, seq)` of the newest installed checkpoint.
    pub fn position(&self) -> (u64, u64) {
        (self.term, self.seq)
    }

    /// When the newest installed checkpoint was taken (staleness metric).
    pub fn taken_at(&self) -> SimTime {
        self.taken_at
    }

    /// The merged image.
    pub fn vars(&self) -> &VarSet {
        &self.vars
    }

    /// Takes the merged image for an application restore — shared-buffer
    /// clones only.
    pub fn to_restore_image(&self) -> VarSet {
        self.vars.clone()
    }

    /// Checksum of the merged image: the running sum, kept current by
    /// every install.
    pub fn image_crc(&self) -> u32 {
        self.sum.0
    }

    /// Offers a checkpoint. Every check runs before the first write, so a
    /// rejected offer leaves the image and its checksum untouched.
    pub fn offer(&mut self, checkpoint: &Checkpoint) -> AcceptOutcome {
        // One walk verifies integrity and yields each entry's digest.
        let Some(digests) = checkpoint.verified_digests() else {
            return AcceptOutcome::Rejected(RejectReason::Corrupt);
        };
        let newer = (checkpoint.term, checkpoint.seq) > (self.term, self.seq) || !self.have_full;
        if !newer {
            return AcceptOutcome::Rejected(RejectReason::Stale);
        }
        match &checkpoint.payload {
            CheckpointPayload::Full(vars) => {
                #[cfg(feature = "inject_bugs")]
                self.remember_previous();
                // A refresh (and every `CheckpointMode::Full` period)
                // carries exactly the names already held: overwrite the
                // values where they sit and keep the tree.
                if self.vars.len() == vars.len() && self.vars.keys().eq(vars.keys()) {
                    for (held, bytes) in self.vars.values_mut().zip(vars.values()) {
                        *held = bytes.clone();
                    }
                } else {
                    self.vars = vars.clone();
                }
                self.sum = RunningSum(checkpoint.crc);
                self.have_full = true;
            }
            CheckpointPayload::Delta(vars) => {
                let in_order = self.have_full
                    && checkpoint.term == self.term
                    && checkpoint.seq == self.seq + 1;
                if !in_order {
                    return AcceptOutcome::Rejected(RejectReason::OutOfOrder);
                }
                #[cfg(feature = "inject_bugs")]
                self.remember_previous();
                for ((name, bytes), digest) in vars.iter().zip(digests) {
                    match self.vars.get_mut(name) {
                        Some(held) => {
                            self.sum.remove(var_digest(name, held));
                            *held = bytes.clone();
                        }
                        None => {
                            self.vars.insert(name.clone(), bytes.clone());
                        }
                    }
                    self.sum.add(digest);
                }
            }
        }
        debug_assert_eq!(self.sum.0, checksum(&self.vars), "running sum diverged from the image");
        self.adopt_position(checkpoint);
        AcceptOutcome::Installed
    }

    /// Adopts an installed checkpoint's position stamp. This `term` is
    /// the checkpoint stream's position, not a node's live role state
    /// (that is [`crate::role::RoleTerm`]).
    fn adopt_position(&mut self, checkpoint: &Checkpoint) {
        self.term = checkpoint.term;
        self.seq = checkpoint.seq;
        self.taken_at = checkpoint.taken_at;
    }

    /// Snapshots the about-to-be-superseded image into the one-deep
    /// history (seeded-defect support).
    #[cfg(feature = "inject_bugs")]
    fn remember_previous(&mut self) {
        if self.have_full {
            self.prev_vars = self.vars.clone();
            self.prev_term = self.term;
            self.prev_seq = self.seq;
            self.prev_full = true;
        }
    }

    /// The superseded image and its `(term, seq)`, if one install has
    /// already been displaced — what the stale-promotion defect restores.
    #[cfg(feature = "inject_bugs")]
    pub fn stale_restore_image(&self) -> Option<(VarSet, (u64, u64))> {
        if self.prev_full {
            Some((self.prev_vars.clone(), (self.prev_term, self.prev_seq)))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars(pairs: &[(&str, &[u8])]) -> VarSet {
        pairs.iter().map(|(n, b)| (n.to_string(), Bytes::copy_from_slice(b))).collect()
    }

    #[test]
    fn checksum_is_content_sensitive() {
        let a = vars(&[("x", &[1, 2, 3])]);
        let b = vars(&[("x", &[1, 2, 4])]);
        let c = vars(&[("y", &[1, 2, 3])]);
        assert_ne!(checksum(&a), checksum(&b));
        assert_ne!(checksum(&a), checksum(&c));
        assert_eq!(checksum(&a), checksum(&vars(&[("x", &[1, 2, 3])])));
    }

    #[test]
    fn checksum_is_the_fold_of_var_digests() {
        let image = vars(&[("a", &[1, 2]), ("b", &[3])]);
        let folded = fold_digests([var_digest("a", &[1, 2]), var_digest("b", &[3])]);
        assert_eq!(checksum(&image), folded);
    }

    /// Why the terms are scrambled: equal and opposite edits at the same
    /// offset of two variables move their Fletcher digests by equal and
    /// opposite amounts, which a plain sum of digests cannot see.
    #[test]
    fn opposite_edits_in_two_variables_do_not_cancel() {
        let before = vars(&[("a", &[10, 20, 30]), ("b", &[10, 20, 30])]);
        let after = vars(&[("a", &[11, 20, 30]), ("b", &[9, 20, 30])]);
        let plain_sum = |image: &VarSet| {
            image.iter().fold(0u32, |sum, (name, bytes)| sum.wrapping_add(var_digest(name, bytes)))
        };
        assert_eq!(plain_sum(&before), plain_sum(&after));
        assert_ne!(checksum(&before), checksum(&after));
    }

    /// No variable's term is zero, so an image never checksums like the
    /// same image with one variable more or fewer.
    #[test]
    fn every_variable_shows_in_the_checksum() {
        assert_eq!(checksum(&VarSet::new()), 0);
        assert_eq!(digest_term(u32::MAX), 0, "the only zero term");
        // Fletcher-32 halves are reduced mod 65 535: `0xFFFF` never appears.
        for (name, bytes) in [("", &[][..]), ("a", &[0xFF; 300][..]), ("zz", &[0; 5][..])] {
            let digest = var_digest(name, bytes);
            assert!(digest & 0xFFFF != 0xFFFF && digest >> 16 != 0xFFFF);
            assert_ne!(digest_term(digest), 0);
        }
    }

    #[test]
    fn diff_finds_changed_and_new() {
        let last = vars(&[("a", &[1]), ("b", &[2])]);
        let current = vars(&[("a", &[1]), ("b", &[9]), ("c", &[3])]);
        let d = diff(&last, &current);
        assert_eq!(d, vars(&[("b", &[9]), ("c", &[3])]));
        assert!(diff(&current, &current).is_empty());
    }

    #[test]
    fn merge_applies_a_delta() {
        let mut base = vars(&[("a", &[1]), ("b", &[2])]);
        merge(&mut base, &vars(&[("b", &[9]), ("c", &[3])]));
        assert_eq!(base, vars(&[("a", &[1]), ("b", &[9]), ("c", &[3])]));
    }

    #[test]
    fn var_store_tracks_dirty_content() {
        let mut store = VarStore::new();
        assert!(store.set("a", vec![1u8]));
        assert!(store.set("b", vec![2u8]));
        assert_eq!(store.dirty_len(), 2);
        let delta = store.take_dirty(None);
        assert_eq!(delta, vars(&[("a", &[1]), ("b", &[2])]));
        assert_eq!(store.dirty_len(), 0);
        // Re-writing identical content does not dirty the variable.
        assert!(!store.set("a", vec![1u8]));
        assert_eq!(store.dirty_len(), 0);
        // Changed content does.
        assert!(store.set("a", vec![9u8]));
        assert_eq!(store.take_dirty(None), vars(&[("a", &[9])]));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn var_store_designation_filters_delta_and_image() {
        let mut store = VarStore::new();
        store.set("big", vec![0u8; 64]);
        store.set("small", vec![1u8]);
        let only_small: BTreeSet<String> = ["small".to_string()].into();
        assert_eq!(store.take_dirty(Some(&only_small)), vars(&[("small", &[1])]));
        // The undesignated dirty mark was consumed, not left to leak later.
        assert_eq!(store.dirty_len(), 0);
        assert_eq!(store.image(Some(&only_small)), vars(&[("small", &[1])]));
        assert_eq!(store.image_crc(Some(&only_small)), checksum(&vars(&[("small", &[1])])),);
    }

    #[test]
    fn var_store_crc_matches_bulk_checksum() {
        let mut store = VarStore::new();
        for i in 0..20u8 {
            store.set(format!("v{i}"), vec![i; 8]);
        }
        let image = store.image(None);
        assert_eq!(store.image_crc(None), checksum(&image));
        let delta = vars(&[("v3", &[3; 8]), ("v7", &[7; 8])]);
        assert_eq!(store.crc_of(&delta), checksum(&delta));
    }

    #[test]
    fn store_installs_full_then_deltas() {
        let mut store = CheckpointStore::new();
        assert!(!store.is_restorable());
        let full = Checkpoint::new(
            1,
            0,
            SimTime::from_secs(1),
            CheckpointPayload::Full(vars(&[("a", &[1]), ("b", &[2])])),
        );
        assert_eq!(store.offer(&full), AcceptOutcome::Installed);
        assert!(store.is_restorable());
        let delta = Checkpoint::new(
            1,
            1,
            SimTime::from_secs(2),
            CheckpointPayload::Delta(vars(&[("b", &[9])])),
        );
        assert_eq!(store.offer(&delta), AcceptOutcome::Installed);
        assert_eq!(store.vars(), &vars(&[("a", &[1]), ("b", &[9])]));
        assert_eq!(store.position(), (1, 1));
        assert_eq!(store.taken_at(), SimTime::from_secs(2));
        // The merged image's running checksum equals a scratch checksum.
        assert_eq!(store.image_crc(), checksum(store.vars()));
    }

    /// The one-deep history must hold the image as it was *before* a full
    /// install overwrote the held values where they sit.
    #[cfg(feature = "inject_bugs")]
    #[test]
    fn in_place_full_install_remembers_the_image_it_displaced() {
        let mut store = CheckpointStore::new();
        let older = vars(&[("a", &[1]), ("b", &[2])]);
        let newer = vars(&[("a", &[7]), ("b", &[8])]);
        for (seq, image) in [(1, &older), (2, &newer)] {
            let full =
                Checkpoint::new(1, seq, SimTime::ZERO, CheckpointPayload::Full(image.clone()));
            assert_eq!(store.offer(&full), AcceptOutcome::Installed);
        }
        assert_eq!(store.vars(), &newer);
        assert_eq!(store.stale_restore_image(), Some((older, (1, 1))));
    }

    #[test]
    fn out_of_order_delta_is_rejected() {
        let mut store = CheckpointStore::new();
        let full =
            Checkpoint::new(1, 0, SimTime::ZERO, CheckpointPayload::Full(vars(&[("a", &[1])])));
        store.offer(&full);
        // seq 2 skips seq 1.
        let gap =
            Checkpoint::new(1, 2, SimTime::ZERO, CheckpointPayload::Delta(vars(&[("a", &[2])])));
        assert_eq!(store.offer(&gap), AcceptOutcome::Rejected(RejectReason::OutOfOrder));
        // A delta before any full image is also out of order.
        let mut empty = CheckpointStore::new();
        let delta =
            Checkpoint::new(1, 1, SimTime::ZERO, CheckpointPayload::Delta(vars(&[("a", &[2])])));
        assert_eq!(empty.offer(&delta), AcceptOutcome::Rejected(RejectReason::OutOfOrder));
    }

    #[test]
    fn stale_and_replayed_checkpoints_are_rejected() {
        let mut store = CheckpointStore::new();
        let full =
            Checkpoint::new(2, 5, SimTime::ZERO, CheckpointPayload::Full(vars(&[("a", &[1])])));
        store.offer(&full);
        assert_eq!(store.offer(&full), AcceptOutcome::Rejected(RejectReason::Stale));
        let older =
            Checkpoint::new(1, 9, SimTime::ZERO, CheckpointPayload::Full(vars(&[("a", &[0])])));
        assert_eq!(store.offer(&older), AcceptOutcome::Rejected(RejectReason::Stale));
    }

    #[test]
    fn new_term_full_supersedes() {
        let mut store = CheckpointStore::new();
        store.offer(&Checkpoint::new(
            1,
            7,
            SimTime::ZERO,
            CheckpointPayload::Full(vars(&[("a", &[1])])),
        ));
        let next_term = Checkpoint::new(
            2,
            0,
            SimTime::from_secs(1),
            CheckpointPayload::Full(vars(&[("a", &[9])])),
        );
        assert_eq!(store.offer(&next_term), AcceptOutcome::Installed);
        assert_eq!(store.position(), (2, 0));
    }

    #[test]
    fn corruption_is_detected() {
        let mut checkpoint =
            Checkpoint::new(1, 0, SimTime::ZERO, CheckpointPayload::Full(vars(&[("a", &[1])])));
        checkpoint.crc ^= 0xDEAD;
        assert!(!checkpoint.verify());
        let mut store = CheckpointStore::new();
        assert_eq!(store.offer(&checkpoint), AcceptOutcome::Rejected(RejectReason::Corrupt));
    }

    #[test]
    fn with_crc_matches_new() {
        let payload = CheckpointPayload::Delta(vars(&[("a", &[1]), ("b", &[2])]));
        let crc = checksum(payload.vars());
        let incremental = Checkpoint::with_crc(1, 3, SimTime::ZERO, payload.clone(), crc);
        let scratch = Checkpoint::new(1, 3, SimTime::ZERO, payload);
        assert_eq!(incremental, scratch);
        assert!(incremental.verify());
    }

    #[test]
    fn wire_size_is_exact() {
        for checkpoint in [
            Checkpoint::new(1, 0, SimTime::ZERO, CheckpointPayload::Full(vars(&[]))),
            Checkpoint::new(1, 0, SimTime::ZERO, CheckpointPayload::Full(vars(&[("a", &[1])]))),
            Checkpoint::new(
                7,
                9,
                SimTime::from_secs(3),
                CheckpointPayload::Delta(vars(&[("longer-name", &[1, 2, 3]), ("x", &[])])),
            ),
            Checkpoint::new(
                1,
                0,
                SimTime::ZERO,
                CheckpointPayload::Full(vars(&[("a", &vec![0u8; 100_000])])),
            ),
        ] {
            let encoded = comsim::marshal::to_bytes(&checkpoint).expect("marshals");
            assert_eq!(
                checkpoint.wire_size(),
                encoded.len() as u64,
                "wire_size must match the marshaled length exactly"
            );
        }
    }

    #[test]
    fn varset_wire_size_is_exact() {
        let image = vars(&[("a", &[1, 2, 3]), ("bb", &[])]);
        let encoded = comsim::marshal::to_bytes(&image).expect("marshals");
        assert_eq!(varset_wire_size(&image), encoded.len() as u64);
        assert_eq!(varset_wire_size(&VarSet::new()), 4);
    }

    /// The deferred-modulo block path must be bit-identical to the
    /// definitional byte-at-a-time loop — including around the 4096-byte
    /// block boundary, at worst-case (all-0xFF) content, and for empty
    /// input. A digest change would break crc agreement between peers
    /// running different builds.
    #[test]
    fn block_digest_matches_reference_across_block_boundaries() {
        let sizes = [0usize, 1, 3, 4, 5, 63, 64, 1000, 4095, 4096, 4097, 8191, 8192, 8193, 20_000];
        for &size in &sizes {
            let mixed: Vec<u8> =
                (0..size).map(|i| (i.wrapping_mul(131).wrapping_add(7)) as u8).collect();
            let saturating = vec![0xFFu8; size];
            for bytes in [&mixed, &saturating] {
                assert_eq!(
                    var_digest("var", bytes),
                    var_digest_reference("var", bytes),
                    "digest diverged at {size} bytes"
                );
            }
        }
    }

    /// Split feeds (name, separators, value arriving in pieces) must
    /// agree with one-shot feeds: the accumulator's state survives a
    /// partial block.
    #[test]
    fn split_feeds_match_one_shot() {
        let bytes: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let mut split = Fletcher::default();
        for chunk in bytes.chunks(777) {
            split.feed_all(chunk);
        }
        let mut whole = Fletcher::default();
        whole.feed_all(&bytes);
        assert_eq!(split.value(), whole.value());
    }
}
