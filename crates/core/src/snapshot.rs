//! Frozen, queryable cluster snapshots — the paper's "cluster once, then
//! interrogate" artifact.
//!
//! Every table and figure of the paper is a *query* against a finished
//! clustering: "which cluster holds this address, what is it called, how
//! much has it received?" A [`ClusterSnapshot`] freezes the answer — the
//! canonically renumbered partition from a [`Clustering`], the
//! [`NamingReport`] labels, and per-cluster aggregates — into one immutable
//! structure with O(1) address → [`ClusterInfo`] lookup. It holds no locks
//! and no interior mutability, so wrapping it in an
//! [`Arc`](std::sync::Arc) shares it across any number of reader threads
//! with zero synchronization (see `bench_snapshot` for measured
//! multi-thread lookup throughput).
//!
//! # Wire format (version 1)
//!
//! [`ClusterSnapshot::to_bytes`] / [`ClusterSnapshot::from_bytes`] give the
//! snapshot a versioned binary serialization built on the consensus-style
//! primitives of [`fistful_chain::encode`] (little-endian fixed-width
//! integers, canonical Bitcoin `CompactSize` counts, `CompactSize`-length-
//! prefixed UTF-8 strings). The frame is:
//!
//! | field      | bytes | contents                                        |
//! |------------|-------|-------------------------------------------------|
//! | magic      | 4     | `"FSNP"` ([`SNAPSHOT_MAGIC`])                   |
//! | version    | 1     | [`SNAPSHOT_VERSION`] (currently `1`)            |
//! | length     | 8     | payload byte length, u64 little-endian          |
//! | payload    | *n*   | the body, exactly `length` bytes (below)        |
//! | checksum   | 32    | double-SHA-256 of the payload bytes             |
//!
//! and the payload body, in field order:
//!
//! 1. `tip_height` — u64, height of the last block the clustering saw;
//! 2. `tx_count` — u64, number of transactions aggregated;
//! 3. `clusters` — `CompactSize` count, then one [`ClusterInfo`] record per
//!    cluster, in canonical cluster-id order (`0..count`). Each record is:
//!    `size` (u32), `received` (u64 satoshis), `spent` (u64 satoshis),
//!    `name` (optional string), `category` (optional string). Optional
//!    strings are a `0`/`1` presence byte followed, when present, by a
//!    `CompactSize`-length-prefixed UTF-8 string;
//! 4. `assignment` — `CompactSize` address count, then one u32 cluster id
//!    per address, indexed by [`AddressId`].
//!
//! Decoders must enforce: canonical `CompactSize` forms, UTF-8 validity,
//! every assignment entry `< cluster count`, and that each cluster's
//! `size` equals the number of addresses assigned to it. A frame whose
//! magic, version, length, or checksum does not match is rejected with the
//! corresponding typed [`SnapshotError`] before any payload is parsed.
//!
//! The double-SHA-256 checksum is computed with the workspace's own
//! [`sha256d`] — no external crates are
//! involved anywhere in the format, so the offline vendored-dependency
//! caveats in `vendor/README.md` (stand-in `rand`/`proptest`/`criterion`)
//! do not affect snapshot bytes: files written here decode identically
//! under the real registry crates.

use crate::cluster::Clustering;
use crate::naming::NamingReport;
use fistful_chain::amount::Amount;
use fistful_chain::encode::{Decodable, DecodeError, Encodable, Reader, Writer};
use fistful_chain::resolve::{AddressId, ResolvedChain};
use fistful_crypto::sha256::sha256d;

/// The four magic bytes opening every snapshot frame.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"FSNP";

/// The current wire-format version.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Byte length of the frame header (magic + version + payload length).
const HEADER_LEN: usize = 4 + 1 + 8;

/// Byte length of the trailing double-SHA-256 checksum.
const CHECKSUM_LEN: usize = 32;

/// Errors from parsing a snapshot frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The first four bytes were not [`SNAPSHOT_MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte named a format this build cannot read.
    UnsupportedVersion(u8),
    /// The input ended before the declared frame was complete.
    Truncated,
    /// Bytes remained after the declared frame.
    TrailingBytes,
    /// The double-SHA-256 of the payload did not match the stored checksum.
    ChecksumMismatch,
    /// The payload failed structural decoding.
    Decode(DecodeError),
    /// The payload decoded but violated a semantic invariant.
    Inconsistent(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:02x?}"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (supported: {SNAPSHOT_VERSION})")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::TrailingBytes => write!(f, "trailing bytes after snapshot frame"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::Decode(e) => write!(f, "snapshot payload decode: {e}"),
            SnapshotError::Inconsistent(what) => write!(f, "inconsistent snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> SnapshotError {
        SnapshotError::Decode(e)
    }
}

/// Per-cluster aggregates: everything an address lookup should answer
/// without touching the chain.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterInfo {
    /// Number of addresses in the cluster.
    pub size: u32,
    /// Total value ever received by the cluster's addresses.
    pub received: Amount,
    /// Total value ever spent by the cluster's addresses.
    pub spent: Amount,
    /// The cluster's service name from tag-vote naming, if it was named.
    pub name: Option<String>,
    /// The category of the winning name, if the cluster was named.
    pub category: Option<String>,
}

impl Encodable for ClusterInfo {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.size);
        w.u64(self.received.to_sat());
        w.u64(self.spent.to_sat());
        w.opt_string(self.name.as_deref());
        w.opt_string(self.category.as_deref());
    }
}

impl Decodable for ClusterInfo {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ClusterInfo {
            size: r.u32()?,
            received: Amount::from_sat(r.u64()?),
            spent: Amount::from_sat(r.u64()?),
            name: r.opt_string()?,
            category: r.opt_string()?,
        })
    }
}

/// A frozen, immutable clustering artifact with O(1) address lookups.
///
/// Built once by [`ClusterSnapshot::build`] from a finished [`Clustering`]
/// (whose `assignments()` renumbering is already canonical: dense ids in
/// order of first address appearance), the chain the clustering ran over,
/// and the [`NamingReport`] for its tags. After that the snapshot never
/// changes — it is plain owned data, `Send + Sync`, safe to share across
/// threads via [`Arc`](std::sync::Arc) with zero locks.
///
/// # Round-trip example
///
/// ```
/// use fistful_core::cluster::Clusterer;
/// use fistful_core::naming::name_clusters;
/// use fistful_core::snapshot::ClusterSnapshot;
/// use fistful_core::tagdb::TagDb;
/// use fistful_core::testutil::TestChain;
///
/// // A two-user economy: addresses 1 and 2 co-spend, so Heuristic 1
/// // links them; address 3 stays separate.
/// let mut t = TestChain::new();
/// let cb1 = t.coinbase(1, 50);
/// let cb2 = t.coinbase(2, 50);
/// t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 100)]);
///
/// let clustering = Clusterer::h1_only().run(&t.chain);
/// let names = name_clusters(&clustering, &TagDb::new());
/// let snapshot = ClusterSnapshot::build(&t.chain, &clustering, &names);
///
/// // Encode to the versioned wire format and decode it back.
/// let bytes = snapshot.to_bytes();
/// let restored = ClusterSnapshot::from_bytes(&bytes).unwrap();
/// assert_eq!(restored, snapshot);
///
/// // O(1) queries against the frozen artifact.
/// assert_eq!(restored.cluster_of(t.id(1)), restored.cluster_of(t.id(2)));
/// let info = restored.info_of_address(t.id(3)).unwrap();
/// assert_eq!(info.size, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterSnapshot {
    /// Cluster id per address (indexed by [`AddressId`]); dense canonical
    /// ids in `0..clusters.len()`.
    assignment: Vec<u32>,
    /// Aggregates per cluster (indexed by cluster id).
    clusters: Vec<ClusterInfo>,
    /// Height of the last block the clustering saw.
    tip_height: u64,
    /// Number of transactions aggregated into `received`/`spent`.
    tx_count: u64,
}

impl ClusterSnapshot {
    /// Fuses a clustering, its naming, and chain aggregates into a frozen
    /// snapshot.
    ///
    /// Panics if `clustering` does not cover exactly the addresses of
    /// `chain` (they must come from the same run).
    pub fn build(
        chain: &ResolvedChain,
        clustering: &Clustering,
        names: &NamingReport,
    ) -> ClusterSnapshot {
        assert_eq!(
            clustering.assignment.len(),
            chain.address_count(),
            "clustering and chain disagree on address count"
        );
        let mut clusters: Vec<ClusterInfo> = clustering
            .sizes
            .iter()
            .map(|&size| ClusterInfo { size, ..Default::default() })
            .collect();
        for (cluster, name) in &names.names {
            let slot = &mut clusters[*cluster as usize];
            slot.name = Some(name.clone());
            slot.category = names.categories.get(cluster).cloned();
        }
        // Received/spent totals in one chain pass.
        let mut received = vec![0u64; clusters.len()];
        let mut spent = vec![0u64; clusters.len()];
        for tx in &chain.txs {
            for input in &tx.inputs {
                let c = clustering.assignment[input.address as usize] as usize;
                spent[c] += input.value.to_sat();
            }
            for out in &tx.outputs {
                let c = clustering.assignment[out.address as usize] as usize;
                received[c] += out.value.to_sat();
            }
        }
        for (i, slot) in clusters.iter_mut().enumerate() {
            slot.received = Amount::from_sat(received[i]);
            slot.spent = Amount::from_sat(spent[i]);
        }
        let tip_height = chain.txs.last().map(|t| t.height).unwrap_or(0);
        ClusterSnapshot {
            assignment: clustering.assignment.clone(),
            clusters,
            tip_height,
            tx_count: chain.tx_count() as u64,
        }
    }

    /// [`ClusterSnapshot::build`] for a clustering that has only seen the
    /// first `tx_end` transactions of `chain` — the mid-ingest export used
    /// by `ShardedIngest` at epoch boundaries.
    ///
    /// Addresses are interned in order of first appearance, so the
    /// transactions of the prefix reference exactly the address ids
    /// `0..clustering.assignment.len()`; aggregation stops at `tx_end`
    /// instead of walking the whole chain. With
    /// `tx_end == chain.tx_count()` this is identical to `build`.
    ///
    /// Panics if `tx_end` exceeds the chain or the prefix references an
    /// address the clustering does not cover (the clustering came from a
    /// different run).
    pub fn build_at(
        chain: &ResolvedChain,
        tx_end: usize,
        clustering: &Clustering,
        names: &NamingReport,
    ) -> ClusterSnapshot {
        assert!(tx_end <= chain.tx_count(), "tx_end exceeds the chain");
        let n_addr = clustering.assignment.len();
        let mut clusters: Vec<ClusterInfo> = clustering
            .sizes
            .iter()
            .map(|&size| ClusterInfo { size, ..Default::default() })
            .collect();
        for (cluster, name) in &names.names {
            let slot = &mut clusters[*cluster as usize];
            slot.name = Some(name.clone());
            slot.category = names.categories.get(cluster).cloned();
        }
        let mut received = vec![0u64; clusters.len()];
        let mut spent = vec![0u64; clusters.len()];
        for tx in &chain.txs[..tx_end] {
            for input in &tx.inputs {
                assert!(
                    (input.address as usize) < n_addr,
                    "clustering does not cover the transaction prefix"
                );
                let c = clustering.assignment[input.address as usize] as usize;
                spent[c] += input.value.to_sat();
            }
            for out in &tx.outputs {
                assert!(
                    (out.address as usize) < n_addr,
                    "clustering does not cover the transaction prefix"
                );
                let c = clustering.assignment[out.address as usize] as usize;
                received[c] += out.value.to_sat();
            }
        }
        for (i, slot) in clusters.iter_mut().enumerate() {
            slot.received = Amount::from_sat(received[i]);
            slot.spent = Amount::from_sat(spent[i]);
        }
        let tip_height = tx_end.checked_sub(1).map(|i| chain.txs[i].height).unwrap_or(0);
        ClusterSnapshot {
            assignment: clustering.assignment.clone(),
            clusters,
            tip_height,
            tx_count: tx_end as u64,
        }
    }

    // ----- O(1) queries -----

    /// Number of addresses covered.
    pub fn address_count(&self) -> usize {
        self.assignment.len()
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Height of the last block the clustering saw.
    pub fn tip_height(&self) -> u64 {
        self.tip_height
    }

    /// Number of transactions aggregated into the received/spent totals.
    pub fn tx_count(&self) -> u64 {
        self.tx_count
    }

    /// The cluster containing `addr`, if the address is covered.
    pub fn cluster_of(&self, addr: AddressId) -> Option<u32> {
        self.assignment.get(addr as usize).copied()
    }

    /// True if this snapshot's dimensions match an index with the given
    /// address and transaction counts — the cheap sanity check run before
    /// pairing the frozen resolver with a transaction-graph index built
    /// from the same [`ResolvedChain`] (`fistful_flow::graph::TxGraph`
    /// exposes matching `address_count()` / `tx_count()` accessors).
    ///
    /// This is a dimension check, not a content fingerprint: two
    /// different chains can coincidentally agree on both counts, so it
    /// reliably *rejects* mismatched artifacts but cannot *prove*
    /// provenance. Pair artifacts you derived from the same chain; use
    /// this to catch wiring mistakes early.
    pub fn pairs_with_chain(&self, address_count: usize, tx_count: u64) -> bool {
        self.address_count() == address_count && self.tx_count() == tx_count
    }

    /// Aggregates of cluster `cluster`, if it exists.
    pub fn info(&self, cluster: u32) -> Option<&ClusterInfo> {
        self.clusters.get(cluster as usize)
    }

    /// Aggregates of the cluster containing `addr` — the serving-path
    /// lookup: two array reads, no hashing, no locks.
    pub fn info_of_address(&self, addr: AddressId) -> Option<&ClusterInfo> {
        let c = self.cluster_of(addr)?;
        Some(&self.clusters[c as usize])
    }

    /// The service name `addr` resolves to (its cluster's name), if any.
    pub fn service_of(&self, addr: AddressId) -> Option<&str> {
        self.info_of_address(addr)?.name.as_deref()
    }

    /// The category `addr` resolves to (its cluster's category), if any.
    pub fn category_of(&self, addr: AddressId) -> Option<&str> {
        self.info_of_address(addr)?.category.as_deref()
    }

    /// Clusters that carry a name.
    pub fn named_cluster_count(&self) -> usize {
        self.clusters.iter().filter(|c| c.name.is_some()).count()
    }

    /// Addresses covered by named clusters.
    pub fn named_address_count(&self) -> u64 {
        self.clusters
            .iter()
            .filter(|c| c.name.is_some())
            .map(|c| c.size as u64)
            .sum()
    }

    /// The largest cluster as `(cluster id, info)`, if any.
    pub fn largest_cluster(&self) -> Option<(u32, &ClusterInfo)> {
        self.clusters
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.size)
            .map(|(i, c)| (i as u32, c))
    }

    /// Cluster ids sorted by size descending (ties by id ascending) —
    /// the "top clusters" view served by `repro snapshot query`.
    pub fn clusters_by_size(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = (0..self.clusters.len() as u32).collect();
        ids.sort_by_key(|&i| (std::cmp::Reverse(self.clusters[i as usize].size), i));
        ids
    }

    // ----- wire format -----

    /// Serializes the snapshot as a complete frame: magic, version,
    /// payload length, payload, double-SHA-256 checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload = self.encode_to_vec();
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.push(SNAPSHOT_VERSION);
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let checksum = sha256d(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&checksum.0);
        out
    }

    /// Parses a complete frame, verifying magic, version, length, checksum,
    /// structure, and semantic invariants — in that order, so the typed
    /// [`SnapshotError`] pinpoints what is wrong with a bad file.
    pub fn from_bytes(data: &[u8]) -> Result<ClusterSnapshot, SnapshotError> {
        if data.len() < HEADER_LEN {
            return Err(SnapshotError::Truncated);
        }
        let magic: [u8; 4] = data[..4].try_into().expect("4 bytes");
        if magic != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic(magic));
        }
        let version = data[4];
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let len = u64::from_le_bytes(data[5..HEADER_LEN].try_into().expect("8 bytes")) as usize;
        let framed = HEADER_LEN
            .checked_add(len)
            .and_then(|n| n.checked_add(CHECKSUM_LEN))
            .ok_or(SnapshotError::Truncated)?;
        if data.len() < framed {
            return Err(SnapshotError::Truncated);
        }
        if data.len() > framed {
            return Err(SnapshotError::TrailingBytes);
        }
        let payload = &data[HEADER_LEN..HEADER_LEN + len];
        let checksum = &data[HEADER_LEN + len..];
        if sha256d(payload).0 != checksum {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let snapshot = ClusterSnapshot::decode_all(payload)?;
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Semantic invariants a structurally valid payload must still satisfy.
    fn validate(&self) -> Result<(), SnapshotError> {
        let k = self.clusters.len() as u32;
        let mut counts = vec![0u32; self.clusters.len()];
        for &c in &self.assignment {
            if c >= k {
                return Err(SnapshotError::Inconsistent(
                    "assignment references a cluster id out of range",
                ));
            }
            counts[c as usize] += 1;
        }
        for (count, info) in counts.iter().zip(&self.clusters) {
            if *count != info.size {
                return Err(SnapshotError::Inconsistent(
                    "cluster size disagrees with assignment",
                ));
            }
        }
        Ok(())
    }

    // ----- columnar store format -----

    /// Adds the snapshot to a columnar container: the assignment column as
    /// one bulk-readable u32 segment (`snap/assignment`), the cluster
    /// table as one encoded segment (`snap/clusters`), and a `snap/meta`
    /// segment carrying the scalars and cross-check counts.
    pub fn write_store(&self, out: &mut fistful_store::StoreWriter) {
        let mut meta = Writer::new();
        meta.u64(self.tip_height);
        meta.u64(self.tx_count);
        meta.u64(self.clusters.len() as u64);
        meta.u64(self.assignment.len() as u64);
        out.segment("snap/meta", meta.into_bytes());
        let mut assign = Writer::new();
        assign.u32_slice(&self.assignment);
        out.segment("snap/assignment", assign.into_bytes());
        let mut clusters = Writer::new();
        fistful_chain::encode::encode_vec(&mut clusters, &self.clusters);
        out.segment("snap/clusters", clusters.into_bytes());
    }

    /// Reads a snapshot back from a columnar container, enforcing the
    /// same semantic invariants as [`ClusterSnapshot::from_bytes`].
    pub fn read_store(
        store: &mut fistful_store::Store,
    ) -> Result<ClusterSnapshot, fistful_store::StoreError> {
        use fistful_store::StoreError;
        let meta = store.bytes("snap/meta")?;
        let mut r = Reader::new(&meta);
        let tip_height = r.u64()?;
        let tx_count = r.u64()?;
        let cluster_count = r.u64()? as usize;
        let address_count = r.u64()? as usize;
        r.finish()?;
        let assignment = store.u32s("snap/assignment")?;
        let cluster_bytes = store.bytes("snap/clusters")?;
        let mut r = Reader::new(&cluster_bytes);
        let clusters: Vec<ClusterInfo> = fistful_chain::encode::decode_vec(&mut r)?;
        r.finish()?;
        if assignment.len() != address_count || clusters.len() != cluster_count {
            return Err(StoreError::Inconsistent("snapshot meta counts disagree with columns"));
        }
        let snapshot = ClusterSnapshot { assignment, clusters, tip_height, tx_count };
        snapshot.validate().map_err(|e| match e {
            SnapshotError::Inconsistent(what) => StoreError::Inconsistent(what),
            _ => StoreError::Inconsistent("snapshot validation failed"),
        })?;
        Ok(snapshot)
    }

    // ----- delta snapshots -----

    /// The root of every cluster, indexed by cluster id: the lowest
    /// address id assigned to it (`u32::MAX` for a cluster no address is
    /// assigned to). Roots name clusters independently of the dense
    /// numbering, so they survive the renumbering a merge causes.
    fn cluster_roots(&self) -> Vec<u32> {
        let mut roots = vec![u32::MAX; self.clusters.len()];
        for (addr, &c) in self.assignment.iter().enumerate() {
            let root = &mut roots[c as usize];
            if *root == u32::MAX {
                *root = addr as u32;
            }
        }
        roots
    }

    /// The row of the cluster whose root is `root`, given this snapshot's
    /// [`cluster_roots`](Self::cluster_roots); `None` if `root` is not a
    /// root here.
    fn row_of_root(&self, roots: &[u32], root: u32) -> Option<&ClusterInfo> {
        let c = *self.assignment.get(root as usize)? as usize;
        (roots[c] == root).then(|| &self.clusters[c])
    }

    /// Applies one epoch's [`SnapshotDelta`] to this base, producing the
    /// snapshot the delta was diffed against.
    ///
    /// The fold works on roots: each base address starts at its cluster's
    /// root, the delta's `assign` entries overwrite roots, and one
    /// ascending pass renumbers the roots densely in first-appearance
    /// order — the numbering [`ClusterSnapshot::build`] uses — while
    /// checking that every root is the lowest address of its cluster.
    /// Rows come from the delta where it carries one and from the base
    /// cluster with the same root otherwise.
    ///
    /// Fails with [`SnapshotError::Inconsistent`] if the delta's entries
    /// are not strictly ascending, name an address past the declared
    /// count, leave a new address uncovered, name a root that is not the
    /// lowest address of its cluster, key a row by an address that is not
    /// a root, leave a new cluster without a row, or declare a cluster
    /// count other than the number of roots — and if the result violates
    /// the snapshot invariants.
    pub fn apply_delta(&self, delta: &SnapshotDelta) -> Result<ClusterSnapshot, SnapshotError> {
        let n = delta.address_count as usize;
        let base_len = self.assignment.len();
        if n < base_len {
            return Err(SnapshotError::Inconsistent("delta shrinks the address space"));
        }
        let base_roots = self.cluster_roots();
        let mut root: Vec<u32> = Vec::with_capacity(n);
        root.extend(self.assignment.iter().map(|&c| base_roots[c as usize]));
        // New slots start as a sentinel the delta must overwrite: a gap
        // means the delta and base disagree about what "new" means.
        root.resize(n, u32::MAX);
        let mut last = None;
        for &(addr, r) in &delta.assign {
            if last.is_some_and(|p| p >= addr) {
                return Err(SnapshotError::Inconsistent(
                    "delta assignment entries are not strictly ascending",
                ));
            }
            last = Some(addr);
            let slot = root.get_mut(addr as usize).ok_or(SnapshotError::Inconsistent(
                "delta assigns an address past its declared count",
            ))?;
            *slot = r;
        }
        if root[base_len..].contains(&u32::MAX) {
            return Err(SnapshotError::Inconsistent("delta does not cover every new address"));
        }

        // Dense renumbering: a root gets the next id when the ascending
        // pass reaches it, and every other address copies its root's id.
        let mut assignment = vec![0u32; n];
        let mut roots: Vec<u32> = Vec::new();
        for a in 0..n {
            let r = root[a] as usize;
            if r > a || root[r] as usize != r {
                return Err(SnapshotError::Inconsistent(
                    "delta names a root that is not the lowest address of its cluster",
                ));
            }
            assignment[a] = if r == a {
                roots.push(a as u32);
                roots.len() as u32 - 1
            } else {
                assignment[r]
            };
        }
        if roots.len() != delta.cluster_count as usize {
            return Err(SnapshotError::Inconsistent(
                "delta cluster count disagrees with its roots",
            ));
        }

        if delta.clusters.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(SnapshotError::Inconsistent(
                "delta cluster entries are not strictly ascending",
            ));
        }
        let mut rows = delta.clusters.iter().peekable();
        let mut clusters = Vec::with_capacity(roots.len());
        for &r in &roots {
            if rows.peek().is_some_and(|(key, _)| *key < r) {
                return Err(SnapshotError::Inconsistent(
                    "delta keys a cluster row by an address that is not a root",
                ));
            }
            let row = match rows.next_if(|(key, _)| *key == r) {
                Some((_, info)) => info,
                // No row in the delta: the cluster is unchanged, so the
                // base must hold a cluster with the same root.
                None => self
                    .row_of_root(&base_roots, r)
                    .ok_or(SnapshotError::Inconsistent("delta leaves a new cluster without a row"))?,
            };
            clusters.push(row.clone());
        }
        if rows.next().is_some() {
            return Err(SnapshotError::Inconsistent(
                "delta keys a cluster row by an address that is not a root",
            ));
        }
        let snapshot = ClusterSnapshot {
            assignment,
            clusters,
            tip_height: delta.tip_height,
            tx_count: delta.tx_count,
        };
        snapshot.validate()?;
        Ok(snapshot)
    }

    /// Folds a base snapshot and its per-epoch deltas back into the full
    /// snapshot — the fast-restart path. The result is **byte-identical**
    /// (same `to_bytes`, same store segments) to rebuilding the snapshot
    /// from scratch at the final epoch, which the differential tests
    /// assert.
    pub fn from_base_and_deltas(
        base: &ClusterSnapshot,
        deltas: &[SnapshotDelta],
    ) -> Result<ClusterSnapshot, SnapshotError> {
        let mut snap = base.clone();
        for delta in deltas {
            snap = snap.apply_delta(delta)?;
        }
        Ok(snap)
    }
}

/// One epoch's worth of snapshot change: everything that differs between
/// a base [`ClusterSnapshot`] and its successor, keyed by cluster *root*.
///
/// A cluster's root is its lowest address id — the representative
/// `union_min` already keeps, and the member that names a cluster in
/// Reid & Harrigan's user-network contraction. Dense cluster ids are
/// numbered in first-appearance order, so one merge shifts the id of
/// every later cluster; roots do not move when that happens. A delta
/// therefore lists only the addresses whose root changed (new addresses,
/// and the members of a cluster absorbed by a lower-rooted one) and the
/// rows of new or changed clusters.
/// [`ClusterSnapshot::apply_delta`] rebuilds the dense numbering as it
/// folds, so the result is byte-identical to a full export.
///
/// **Measured size** (default economy, `repro serve --live` settings:
/// 4 shards, 16-block epochs, 38 deltas over the whole chain): keyed by
/// dense id the deltas held 936,285 assignment entries and ~695k cluster
/// rows, 26.7 MB, because ~23,000 of ~61,000 addresses were renumbered
/// every epoch. Keyed by root they hold 91,620 entries and 69,255 rows,
/// 3.2 MB: about 800 existing addresses change root per epoch.
/// `tests/store.rs` pins the total below twice the address count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotDelta {
    /// Tip height of the successor snapshot.
    pub tip_height: u64,
    /// Transaction count of the successor snapshot.
    pub tx_count: u64,
    /// Address count of the successor snapshot (the assignment array
    /// grows to this length).
    pub address_count: u64,
    /// Cluster count of the successor snapshot.
    pub cluster_count: u32,
    /// `(address id, root)` pairs, strictly ascending by address: every
    /// new address plus every existing address whose cluster's root
    /// changed.
    pub assign: Vec<(u32, u32)>,
    /// `(root, full new row)` pairs, strictly ascending by root: every
    /// new cluster plus every existing cluster whose aggregates, size, or
    /// naming changed.
    pub clusters: Vec<(u32, ClusterInfo)>,
}

impl SnapshotDelta {
    /// Diffs two snapshots of the same growing chain (`new` must cover at
    /// least the addresses of `base`).
    ///
    /// Panics if `new` has fewer addresses than `base` — deltas only move
    /// forward — or if `new` is not numbered the way
    /// [`ClusterSnapshot::build`] numbers clusters (dense, in order of
    /// each cluster's lowest address, no empty cluster), since the fold
    /// could not reproduce it.
    pub fn between(base: &ClusterSnapshot, new: &ClusterSnapshot) -> SnapshotDelta {
        assert!(
            new.assignment.len() >= base.assignment.len(),
            "delta target has fewer addresses than its base"
        );
        let base_roots = base.cluster_roots();
        let new_roots = new.cluster_roots();
        assert!(
            new_roots.windows(2).all(|w| w[0] < w[1]) && new_roots.last() != Some(&u32::MAX),
            "delta target is not numbered in first-appearance order"
        );
        let base_root_of = |addr: usize| base.assignment.get(addr).map(|&c| base_roots[c as usize]);
        let mut assign = Vec::new();
        for (addr, &c) in new.assignment.iter().enumerate() {
            let root = new_roots[c as usize];
            if base_root_of(addr) != Some(root) {
                assign.push((addr as u32, root));
            }
        }
        let mut clusters = Vec::new();
        for (info, &root) in new.clusters.iter().zip(&new_roots) {
            if base.row_of_root(&base_roots, root) != Some(info) {
                clusters.push((root, info.clone()));
            }
        }
        SnapshotDelta {
            tip_height: new.tip_height,
            tx_count: new.tx_count,
            address_count: new.assignment.len() as u64,
            cluster_count: new.clusters.len() as u32,
            assign,
            clusters,
        }
    }

    /// True if the delta changes nothing but the scalars.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty() && self.clusters.is_empty()
    }

    /// True if the delta only adds: every `assign` address and every row
    /// root is at or above `base_addresses`, the base's address count. No
    /// existing address then changes cluster, no existing cluster's row
    /// changes, and — since every new root sorts after every old one —
    /// no existing cluster's dense id moves.
    pub fn is_additive(&self, base_addresses: usize) -> bool {
        self.assign.iter().all(|&(a, _)| a as usize >= base_addresses)
            && self.clusters.iter().all(|&(r, _)| r as usize >= base_addresses)
    }

    /// Adds the delta to a columnar container: the `assign` pairs as two
    /// parallel u32 columns (`delta/assign_addr`, `delta/assign_root`),
    /// the row roots (`delta/cluster_roots`), and the encoded rows
    /// (`delta/cluster_infos`).
    pub fn write_store(&self, out: &mut fistful_store::StoreWriter) {
        let mut meta = Writer::new();
        meta.u64(self.tip_height);
        meta.u64(self.tx_count);
        meta.u64(self.address_count);
        meta.u32(self.cluster_count);
        out.segment("delta/meta", meta.into_bytes());
        let column = |values: Vec<u32>| {
            let mut w = Writer::new();
            w.u32_slice(&values);
            w.into_bytes()
        };
        out.segment("delta/assign_addr", column(self.assign.iter().map(|&(a, _)| a).collect()));
        out.segment("delta/assign_root", column(self.assign.iter().map(|&(_, r)| r).collect()));
        out.segment("delta/cluster_roots", column(self.clusters.iter().map(|&(r, _)| r).collect()));
        let mut w = Writer::new();
        for (_, info) in &self.clusters {
            info.encode(&mut w);
        }
        out.segment("delta/cluster_infos", w.into_bytes());
    }

    /// Reads a delta back from a columnar container. Ordering and range
    /// invariants are enforced later by [`ClusterSnapshot::apply_delta`],
    /// which sees base and delta together. A delta written keyed by dense
    /// cluster id (`delta/assign_cluster`, `delta/cluster_ids`) is refused
    /// here: its ids would fold to a different partition.
    pub fn read_store(
        store: &mut fistful_store::Store,
    ) -> Result<SnapshotDelta, fistful_store::StoreError> {
        use fistful_store::StoreError;
        if store.has("delta/assign_cluster") || store.has("delta/cluster_ids") {
            return Err(StoreError::Inconsistent(
                "delta is keyed by dense cluster id (older format); rebuild the store",
            ));
        }
        let meta = store.bytes("delta/meta")?;
        let mut r = Reader::new(&meta);
        let tip_height = r.u64()?;
        let tx_count = r.u64()?;
        let address_count = r.u64()?;
        let cluster_count = r.u32()?;
        r.finish()?;
        let addrs = store.u32s("delta/assign_addr")?;
        let roots = store.u32s("delta/assign_root")?;
        if addrs.len() != roots.len() {
            return Err(StoreError::Inconsistent("delta assignment columns disagree on length"));
        }
        let assign = addrs.into_iter().zip(roots).collect();
        let row_roots = store.u32s("delta/cluster_roots")?;
        let info_bytes = store.bytes("delta/cluster_infos")?;
        let mut r = Reader::new(&info_bytes);
        let mut clusters = Vec::with_capacity(row_roots.len());
        for root in row_roots {
            clusters.push((root, ClusterInfo::decode(&mut r)?));
        }
        r.finish()?;
        Ok(SnapshotDelta { tip_height, tx_count, address_count, cluster_count, assign, clusters })
    }
}

impl Encodable for ClusterSnapshot {
    /// Writes the *payload* body only — [`ClusterSnapshot::to_bytes`] adds
    /// the magic/version/length/checksum frame around it.
    fn encode(&self, w: &mut Writer) {
        w.u64(self.tip_height);
        w.u64(self.tx_count);
        fistful_chain::encode::encode_vec(w, &self.clusters);
        w.compact_size(self.assignment.len() as u64);
        // Flat copy: the assignment column is plain little-endian u32s, so
        // the staged bulk writer replaces the old per-element loop.
        w.u32_slice(&self.assignment);
    }
}

impl Decodable for ClusterSnapshot {
    /// Reads the payload body; semantic validation happens separately in
    /// [`ClusterSnapshot::from_bytes`].
    ///
    /// Both counts can legitimately exceed the generic `MAX_VEC_LEN` cap
    /// (12M+ addresses at paper scale, and cluster count can equal address
    /// count when nothing co-spends), so instead each count is bounded by
    /// what the remaining input could possibly hold — tight, and it keeps
    /// pre-allocation proportional to the actual input size.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let tip_height = r.u64()?;
        let tx_count = r.u64()?;
        // A ClusterInfo is at least 22 bytes (u32 + 2×u64 + 2 flag bytes).
        let k = r.compact_size()?;
        if k > r.remaining() as u64 / 22 {
            return Err(DecodeError::OversizedCount(k));
        }
        let mut clusters = Vec::with_capacity(k as usize);
        for _ in 0..k {
            clusters.push(ClusterInfo::decode(r)?);
        }
        // Each assignment entry is exactly 4 bytes.
        let n = r.compact_size()?;
        if n > r.remaining() as u64 / 4 {
            return Err(DecodeError::OversizedCount(n));
        }
        let assignment = r.u32_vec(n as usize)?;
        Ok(ClusterSnapshot { assignment, clusters, tip_height, tx_count })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::ChangeConfig;
    use crate::cluster::Clusterer;
    use crate::naming::name_clusters;
    use crate::tagdb::{Tag, TagDb, TagSource};
    use crate::testutil::TestChain;

    /// Two users: {1,2,4} via co-spend + change, {3} alone; 1 is tagged.
    fn snapshot_fixture() -> (TestChain, ClusterSnapshot) {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let _cb3 = t.coinbase(3, 50);
        t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 70), (4, 30)]);
        let clustering = Clusterer::with_h2(ChangeConfig::naive()).run(&t.chain);
        let mut db = TagDb::new();
        db.add(Tag {
            address: t.id(1),
            service: "Mt. Gox".into(),
            category: "exchange".into(),
            source: TagSource::OwnTransaction,
        });
        let names = name_clusters(&clustering, &db);
        let snap = ClusterSnapshot::build(&t.chain, &clustering, &names);
        (t, snap)
    }

    #[test]
    fn pairs_with_chain_checks_both_dimensions() {
        let (t, snap) = snapshot_fixture();
        let addrs = t.chain.address_count();
        let txs = t.chain.tx_count() as u64;
        assert!(snap.pairs_with_chain(addrs, txs));
        // An index over a different chain (more addresses or more
        // transactions) must be rejected in either dimension.
        assert!(!snap.pairs_with_chain(addrs + 1, txs));
        assert!(!snap.pairs_with_chain(addrs, txs + 1));
        assert!(!snap.pairs_with_chain(0, 0));
    }

    #[test]
    fn build_fuses_partition_names_and_aggregates() {
        let (t, snap) = snapshot_fixture();
        assert_eq!(snap.address_count(), t.chain.address_count());
        assert_eq!(snap.cluster_count(), 2); // {1,2,4}, {3}
        assert_eq!(snap.cluster_of(t.id(1)), snap.cluster_of(t.id(4)));
        assert_ne!(snap.cluster_of(t.id(1)), snap.cluster_of(t.id(3)));
        assert_eq!(snap.service_of(t.id(4)), Some("Mt. Gox"));
        assert_eq!(snap.category_of(t.id(2)), Some("exchange"));
        assert_eq!(snap.service_of(t.id(3)), None);
        assert_eq!(snap.named_cluster_count(), 1);
        assert_eq!(snap.named_address_count(), 3);

        // Aggregates: cluster {1,2,4} received 50+50 (coinbases) + 30
        // (change), spent 100 (the co-spend inputs).
        let gox = snap.info_of_address(t.id(1)).unwrap();
        assert_eq!(gox.size, 3);
        assert_eq!(gox.received, Amount::from_btc(130));
        assert_eq!(gox.spent, Amount::from_btc(100));
        // Cluster {3}: coinbase 50 + payment 70, never spent.
        let three = snap.info_of_address(t.id(3)).unwrap();
        assert_eq!(three.received, Amount::from_btc(120));
        assert_eq!(three.spent, Amount::ZERO);

        let (largest, info) = snap.largest_cluster().unwrap();
        assert_eq!(info.size, 3);
        assert_eq!(snap.clusters_by_size()[0], largest);
        assert_eq!(snap.tip_height(), 3);
        assert_eq!(snap.tx_count(), 4);
    }

    #[test]
    fn out_of_range_address_is_none_not_panic() {
        let (_, snap) = snapshot_fixture();
        assert_eq!(snap.cluster_of(10_000), None);
        assert!(snap.info_of_address(10_000).is_none());
        assert_eq!(snap.service_of(10_000), None);
        assert!(snap.info(10_000).is_none());
    }

    #[test]
    fn frame_round_trips_losslessly() {
        let (_, snap) = snapshot_fixture();
        let bytes = snap.to_bytes();
        assert_eq!(&bytes[..4], &SNAPSHOT_MAGIC);
        assert_eq!(bytes[4], SNAPSHOT_VERSION);
        let restored = ClusterSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(restored, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = ClusterSnapshot::default();
        let restored = ClusterSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert_eq!(restored, snap);
        assert_eq!(restored.cluster_count(), 0);
        assert!(restored.largest_cluster().is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let (_, snap) = snapshot_fixture();
        let mut bytes = snap.to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            ClusterSnapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic(_))
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let (_, snap) = snapshot_fixture();
        let mut bytes = snap.to_bytes();
        bytes[4] = SNAPSHOT_VERSION + 1;
        assert_eq!(
            ClusterSnapshot::from_bytes(&bytes),
            Err(SnapshotError::UnsupportedVersion(SNAPSHOT_VERSION + 1))
        );
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let (_, snap) = snapshot_fixture();
        let bytes = snap.to_bytes();
        for cut in 0..bytes.len() {
            let err = ClusterSnapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated | SnapshotError::BadMagic(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (_, snap) = snapshot_fixture();
        let mut bytes = snap.to_bytes();
        bytes.push(0);
        assert_eq!(
            ClusterSnapshot::from_bytes(&bytes),
            Err(SnapshotError::TrailingBytes)
        );
    }

    #[test]
    fn payload_corruption_fails_checksum() {
        let (_, snap) = snapshot_fixture();
        let bytes = snap.to_bytes();
        // Flip one bit in every payload byte position; all must be caught
        // by the checksum (header and checksum corruption are caught by the
        // earlier checks, tested above).
        for i in HEADER_LEN..bytes.len() - CHECKSUM_LEN {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                ClusterSnapshot::from_bytes(&bad),
                Err(SnapshotError::ChecksumMismatch),
                "byte {i}"
            );
        }
        // Corrupting the checksum itself is also a mismatch.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert_eq!(
            ClusterSnapshot::from_bytes(&bad),
            Err(SnapshotError::ChecksumMismatch)
        );
    }

    #[test]
    fn declared_counts_are_bounded_by_actual_input() {
        // A tiny, correctly-checksummed frame declaring a huge cluster
        // count (and, in a second frame, a huge assignment count) must be
        // rejected before any large allocation happens.
        for huge_second_count in [false, true] {
            let mut w = Writer::new();
            w.u64(0); // tip_height
            w.u64(0); // tx_count
            if huge_second_count {
                w.compact_size(0); // clusters: none
                w.compact_size(1 << 40); // assignment: absurd
            } else {
                w.compact_size(1 << 40); // clusters: absurd
            }
            let payload = w.into_bytes();
            let mut frame = Vec::new();
            frame.extend_from_slice(&SNAPSHOT_MAGIC);
            frame.push(SNAPSHOT_VERSION);
            frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            frame.extend_from_slice(&payload);
            frame.extend_from_slice(&sha256d(&payload).0);
            assert!(
                matches!(
                    ClusterSnapshot::from_bytes(&frame),
                    Err(SnapshotError::Decode(DecodeError::OversizedCount(_)))
                ),
                "huge_second_count={huge_second_count}"
            );
        }
    }

    #[test]
    fn semantic_validation_catches_reencoded_lies() {
        let (_, snap) = snapshot_fixture();
        // A well-formed frame whose assignment points past the cluster
        // table: rebuild the frame honestly around a dishonest payload.
        let mut lying = snap.clone();
        lying.assignment[0] = 99;
        let bytes = lying.to_bytes();
        assert!(matches!(
            ClusterSnapshot::from_bytes(&bytes),
            Err(SnapshotError::Inconsistent(_))
        ));
        // Sizes that disagree with the assignment.
        let mut lying = snap.clone();
        lying.clusters[0].size += 1;
        assert!(matches!(
            ClusterSnapshot::from_bytes(&lying.to_bytes()),
            Err(SnapshotError::Inconsistent(_))
        ));
    }

    #[test]
    fn shared_across_threads_without_locks() {
        use std::sync::Arc;
        let (_, snap) = snapshot_fixture();
        let snap = Arc::new(snap);
        let n = snap.address_count() as u32;
        let expected: Vec<Option<u32>> = (0..n).map(|a| snap.cluster_of(a)).collect();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let snap = Arc::clone(&snap);
                let expected = expected.clone();
                std::thread::spawn(move || {
                    for round in 0..100 {
                        for a in 0..n {
                            assert_eq!(snap.cluster_of(a), expected[a as usize], "round {round}");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn store_round_trips_losslessly() {
        let (_, snap) = snapshot_fixture();
        let mut w = fistful_store::StoreWriter::new();
        snap.write_store(&mut w);
        let mut store = fistful_store::Store::open_bytes(w.to_bytes()).unwrap();
        let restored = ClusterSnapshot::read_store(&mut store).unwrap();
        assert_eq!(restored, snap);
        // And the empty snapshot.
        let mut w = fistful_store::StoreWriter::new();
        ClusterSnapshot::default().write_store(&mut w);
        let mut store = fistful_store::Store::open_bytes(w.to_bytes()).unwrap();
        assert_eq!(
            ClusterSnapshot::read_store(&mut store).unwrap(),
            ClusterSnapshot::default()
        );
    }

    #[test]
    fn store_read_rejects_semantic_lies() {
        let (_, snap) = snapshot_fixture();
        let mut lying = snap.clone();
        lying.assignment[0] = 99;
        let mut w = fistful_store::StoreWriter::new();
        lying.write_store(&mut w);
        let mut store = fistful_store::Store::open_bytes(w.to_bytes()).unwrap();
        assert!(matches!(
            ClusterSnapshot::read_store(&mut store),
            Err(fistful_store::StoreError::Inconsistent(_))
        ));
    }

    /// Grows the fixture chain by one more user and re-snapshots, giving a
    /// (base, successor) pair whose delta has both new addresses and a
    /// changed existing cluster.
    fn delta_fixture() -> (ClusterSnapshot, ClusterSnapshot) {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        t.tx(&[(cb1, 0), (cb2, 0)], &[(3, 100)]);
        let clustering = Clusterer::h1_only().run(&t.chain);
        let names = name_clusters(&clustering, &TagDb::new());
        let base = ClusterSnapshot::build(&t.chain, &clustering, &names);

        let cb4 = t.coinbase(4, 25);
        t.tx(&[(cb4, 0)], &[(3, 25)]); // address 3's cluster aggregates change
        let clustering = Clusterer::h1_only().run(&t.chain);
        let names = name_clusters(&clustering, &TagDb::new());
        let new = ClusterSnapshot::build(&t.chain, &clustering, &names);
        (base, new)
    }

    #[test]
    fn delta_round_trips_to_the_successor() {
        let (base, new) = delta_fixture();
        let delta = SnapshotDelta::between(&base, &new);
        assert!(!delta.is_empty());
        // New addresses (4 and its coinbase interning) appear; unchanged
        // assignments do not.
        assert!(delta.assign.len() < new.address_count());
        let applied = base.apply_delta(&delta).unwrap();
        assert_eq!(applied, new);
        // Byte-identical, not merely equal.
        assert_eq!(applied.to_bytes(), new.to_bytes());
        // Identity delta.
        let id = SnapshotDelta::between(&new, &new);
        assert!(id.is_empty());
        assert_eq!(new.apply_delta(&id).unwrap(), new);
        // Folding from the base over both steps.
        let folded = ClusterSnapshot::from_base_and_deltas(&base, &[delta, id]).unwrap();
        assert_eq!(folded.to_bytes(), new.to_bytes());
    }

    #[test]
    fn delta_store_round_trips() {
        let (base, new) = delta_fixture();
        let delta = SnapshotDelta::between(&base, &new);
        let mut w = fistful_store::StoreWriter::new();
        delta.write_store(&mut w);
        let mut store = fistful_store::Store::open_bytes(w.to_bytes()).unwrap();
        let restored = SnapshotDelta::read_store(&mut store).unwrap();
        assert_eq!(restored, delta);
        assert_eq!(base.apply_delta(&restored).unwrap().to_bytes(), new.to_bytes());
    }

    #[test]
    fn apply_delta_rejects_malformed_deltas() {
        let (base, new) = delta_fixture();
        let good = SnapshotDelta::between(&base, &new);

        // A gap: a new address the delta does not cover.
        let mut bad = good.clone();
        bad.assign.retain(|&(a, _)| (a as usize) < base.address_count());
        assert!(matches!(
            base.apply_delta(&bad),
            Err(SnapshotError::Inconsistent("delta does not cover every new address"))
        ));

        // Shrinking the address space.
        let mut bad = good.clone();
        bad.address_count = base.address_count() as u64 - 1;
        assert!(matches!(base.apply_delta(&bad), Err(SnapshotError::Inconsistent(_))));

        // Out-of-order (here: duplicate) assignment entries.
        let mut bad = good.clone();
        bad.assign.push(*bad.assign.last().unwrap());
        assert!(matches!(
            base.apply_delta(&bad),
            Err(SnapshotError::Inconsistent(
                "delta assignment entries are not strictly ascending"
            ))
        ));

        // An assignment past the declared address count.
        let mut bad = good.clone();
        bad.assign.push((bad.address_count as u32 + 7, 0));
        assert!(matches!(base.apply_delta(&bad), Err(SnapshotError::Inconsistent(_))));

        // A cluster row past the declared cluster count.
        let mut bad = good.clone();
        bad.clusters.push((bad.cluster_count + 7, ClusterInfo::default()));
        assert!(matches!(base.apply_delta(&bad), Err(SnapshotError::Inconsistent(_))));

        // Sizes that stop matching the assignment after application.
        let mut bad = good.clone();
        for (_, info) in &mut bad.clusters {
            info.size += 1;
        }
        assert!(matches!(base.apply_delta(&bad), Err(SnapshotError::Inconsistent(_))));
    }

    /// An older one-address cluster absorbing a newer, larger one: `{1}`
    /// is the first cluster, `{2,3,4}` the second (one co-spend), `{5}`,
    /// `{6}`, `{7}` follow. The successor co-spends from 1 and 2 — so
    /// `{1}` absorbs `{2,3,4}` and every later dense id shifts down by
    /// one — and pays a fresh address 8.
    fn merge_fixture() -> (TestChain, ClusterSnapshot, ClusterSnapshot) {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cbs: Vec<usize> = (2..=4).map(|u| t.coinbase(u, 50)).collect();
        t.tx(&[(cbs[0], 0), (cbs[1], 0), (cbs[2], 0)], &[(5, 150)]);
        t.coinbase(6, 50);
        t.coinbase(7, 50);
        let snap = |t: &TestChain| {
            let clustering = Clusterer::h1_only().run(&t.chain);
            let names = name_clusters(&clustering, &TagDb::new());
            ClusterSnapshot::build(&t.chain, &clustering, &names)
        };
        let base = snap(&t);
        let cb2 = t.coinbase(2, 10);
        t.tx(&[(cb1, 0), (cb2, 0)], &[(8, 60)]);
        let new = snap(&t);
        (t, base, new)
    }

    #[test]
    fn delta_of_a_merge_holds_only_new_and_absorbed_addresses() {
        let (t, base, new) = merge_fixture();
        let [one, two, three, four, eight] = [1, 2, 3, 4, 8].map(|u| t.id(u));
        assert_eq!(base.cluster_count(), 5);
        assert_eq!(new.cluster_count(), 5);
        // Dense ids moved for every cluster after the merged one...
        let moved = (0..base.address_count() as u32)
            .filter(|&a| base.cluster_of(a) != new.cluster_of(a))
            .count();
        assert_eq!(moved, base.address_count() - 1, "all but address 1 renumbered");
        // ...yet the root-keyed delta names exactly the absorbed cluster's
        // members and the new address, and the rows of the grown cluster
        // and the new one.
        let delta = SnapshotDelta::between(&base, &new);
        assert_eq!(delta.assign, vec![(two, one), (three, one), (four, one), (eight, eight)]);
        let roots: Vec<u32> = delta.clusters.iter().map(|&(r, _)| r).collect();
        assert_eq!(roots, vec![one, eight]);
        assert_eq!(delta.clusters[0].1.size, 4);
        assert!(!delta.is_additive(base.address_count()));
        // The fold rebuilds the dense numbering byte for byte.
        assert_eq!(base.apply_delta(&delta).unwrap().to_bytes(), new.to_bytes());
        let mut w = fistful_store::StoreWriter::new();
        delta.write_store(&mut w);
        let mut store = fistful_store::Store::open_bytes(w.to_bytes()).unwrap();
        let reread = SnapshotDelta::read_store(&mut store).unwrap();
        assert_eq!(reread, delta);
    }

    #[test]
    fn apply_delta_corruption_matrix() {
        let (t, base, new) = merge_fixture();
        let good = SnapshotDelta::between(&base, &new);
        let [one, two, three, eight] = [1, 2, 3, 8].map(|u| t.id(u));
        type Corrupt = Box<dyn Fn(&mut SnapshotDelta)>;
        let cases: Vec<(&str, Corrupt)> = vec![
            (
                "delta assignment entries are not strictly ascending",
                Box::new(|d| d.assign.swap(0, 1)),
            ),
            (
                "delta cluster entries are not strictly ascending",
                Box::new(|d| d.clusters.swap(0, 1)),
            ),
            (
                "delta names a root that is not the lowest address of its cluster",
                Box::new(move |d| d.assign[0] = (two, three)),
            ),
            (
                // Address 3 is the lowest of no cluster: it belongs to 1's.
                "delta names a root that is not the lowest address of its cluster",
                Box::new(move |d| *d.assign.last_mut().unwrap() = (eight, three)),
            ),
            (
                "delta keys a cluster row by an address that is not a root",
                Box::new(move |d| d.clusters[1].0 = two),
            ),
            (
                "delta keys a cluster row by an address that is not a root",
                Box::new(|d| d.clusters.push((d.address_count as u32 + 3, ClusterInfo::default()))),
            ),
            ("delta leaves a new cluster without a row", Box::new(|d| {
                d.clusters.pop();
            })),
            ("delta cluster count disagrees with its roots", Box::new(|d| d.cluster_count += 1)),
            (
                "delta assigns an address past its declared count",
                Box::new(|d| {
                    let past = d.address_count as u32;
                    d.assign.push((past, past));
                }),
            ),
        ];
        assert_eq!(good.clusters[0].0, one);
        for (expected, corrupt) in cases {
            let mut bad = good.clone();
            corrupt(&mut bad);
            assert_eq!(
                base.apply_delta(&bad),
                Err(SnapshotError::Inconsistent(expected)),
                "case {expected:?}"
            );
        }
    }

    #[test]
    fn build_at_full_prefix_equals_build() {
        let (t, snap) = snapshot_fixture();
        let clustering = Clusterer::with_h2(ChangeConfig::naive()).run(&t.chain);
        let mut db = TagDb::new();
        db.add(Tag {
            address: t.id(1),
            service: "Mt. Gox".into(),
            category: "exchange".into(),
            source: TagSource::OwnTransaction,
        });
        let names = name_clusters(&clustering, &db);
        let at = ClusterSnapshot::build_at(&t.chain, t.chain.tx_count(), &clustering, &names);
        assert_eq!(at.to_bytes(), snap.to_bytes());
    }

    #[test]
    fn display_messages_are_distinct() {
        let errors = [
            SnapshotError::BadMagic(*b"XXXX"),
            SnapshotError::UnsupportedVersion(9),
            SnapshotError::Truncated,
            SnapshotError::TrailingBytes,
            SnapshotError::ChecksumMismatch,
            SnapshotError::Decode(DecodeError::UnexpectedEnd),
            SnapshotError::Inconsistent("x"),
        ];
        let mut seen = std::collections::HashSet::new();
        for e in errors {
            assert!(seen.insert(e.to_string()), "duplicate message for {e:?}");
        }
    }
}
