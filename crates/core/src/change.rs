//! Heuristic 2: one-time change address identification.
//!
//! The paper's definition (§4.1): an address is a *one-time change address*
//! for a transaction if
//!
//! 1. the address has not appeared in any previous transaction;
//! 2. the transaction is not a coin generation;
//! 3. there is no self-change address (no output address also appears among
//!    the inputs);
//! 4. all the other output addresses have appeared in previous transactions.
//!
//! and the §4.2 refinements, each individually switchable so the
//! experiments can walk the paper's false-positive ladder:
//!
//! * **Satoshi-Dice exception** — receives that come *solely from* tagged
//!   gambling addresses do not invalidate one-timeness (dice sites pay
//!   winnings back to the betting address);
//! * **wait-to-label** — a provisional label is discarded if the address
//!   receives again within a waiting window (one day / one week);
//! * **change-reuse exclusion** — if any output address of the transaction
//!   has already received exactly one input, nothing is tagged;
//! * **prior-self-change exclusion** — if any output address was previously
//!   used as a self-change address, nothing is tagged.

use fistful_chain::resolve::{AddressId, ResolvedChain, ResolvedInput, ResolvedTx, TxId};
use std::collections::HashSet;

/// Blocks per day at the 10-minute target.
pub const BLOCKS_PER_DAY: u64 = 144;
/// Blocks per week.
pub const BLOCKS_PER_WEEK: u64 = 1008;

/// Configuration of Heuristic 2. `Default` is the *naive* heuristic
/// (conditions 1–4 only); [`ChangeConfig::refined`] enables everything the
/// paper settled on.
#[derive(Debug, Clone, Default)]
pub struct ChangeConfig {
    /// Addresses known (via tags) to belong to dice-style gambling services.
    pub dice_addresses: HashSet<AddressId>,
    /// Enable the Satoshi-Dice exception.
    pub dice_exception: bool,
    /// Discard labels whose address receives again within this many blocks
    /// (see [`receives_again_within`] for the exact boundary semantics:
    /// inclusive, so `Some(0)` is *not* a no-op — it still discards labels
    /// whose address receives again later in the same block).
    pub wait_blocks: Option<u64>,
    /// Skip transactions where an output address already received exactly
    /// one input ("same change address used twice" mitigation).
    pub skip_reused_change: bool,
    /// Skip transactions where an output address was previously used as a
    /// self-change address.
    pub skip_prior_self_change: bool,
    /// Minimum number of outputs for a transaction to be considered.
    /// The paper's definition has no output-count requirement (condition 4
    /// is vacuous for single-output sweeps), so the default is 1; set to 2
    /// to ablate the effect of labelling sweeps.
    pub min_outputs: usize,
}

impl ChangeConfig {
    /// The naive heuristic: conditions 1–4 only.
    pub fn naive() -> ChangeConfig {
        ChangeConfig { min_outputs: 1, ..Default::default() }
    }

    /// The fully refined heuristic the paper uses for its analysis
    /// (§4.2): dice exception, one-week wait, reuse and self-change
    /// exclusions.
    pub fn refined(dice_addresses: HashSet<AddressId>) -> ChangeConfig {
        ChangeConfig {
            dice_addresses,
            dice_exception: true,
            wait_blocks: Some(BLOCKS_PER_WEEK),
            skip_reused_change: true,
            skip_prior_self_change: true,
            min_outputs: 1,
        }
    }
}

/// Why a transaction received no change label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// Coin generations have no change (condition 2).
    Coinbase,
    /// Fewer outputs than `min_outputs`.
    TooFewOutputs,
    /// An output address also appears among the inputs (condition 3).
    SelfChange,
    /// No output is fresh (condition 1 never met).
    NoCandidate,
    /// More than one fresh output (condition 4 violated).
    Ambiguous,
    /// Refinement: an output address had already received exactly one input.
    ReusedChange,
    /// Refinement: an output address was previously a self-change address.
    PriorSelfChange,
    /// Refinement: the candidate received again within the wait window.
    FailedWait,
}

/// Per-transaction change labels plus bookkeeping statistics.
#[derive(Debug, Clone, Default)]
pub struct ChangeLabels {
    /// For each transaction (by [`TxId`]): the labelled change output index.
    pub vout_of: Vec<Option<u32>>,
    /// Count of transactions skipped per reason (indexed by discriminant
    /// order of [`SkipReason`]).
    pub skip_counts: [usize; 8],
    /// Total labels assigned.
    pub labels: usize,
}

impl ChangeLabels {
    /// The labelled change output of transaction `tx`, if any.
    pub fn change_vout(&self, tx: TxId) -> Option<u32> {
        self.vout_of.get(tx as usize).copied().flatten()
    }

    /// Iterates `(tx, vout, address)` over all labels.
    pub fn iter<'a>(
        &'a self,
        chain: &'a ResolvedChain,
    ) -> impl Iterator<Item = (TxId, u32, AddressId)> + 'a {
        self.vout_of.iter().enumerate().filter_map(move |(t, v)| {
            v.map(|vout| {
                let addr = chain.txs[t].outputs[vout as usize].address;
                (t as TxId, vout, addr)
            })
        })
    }

    pub(crate) fn note_skip(&mut self, reason: SkipReason) {
        self.skip_counts[reason as usize] += 1;
    }

    /// Count of transactions skipped for `reason`.
    pub fn skipped(&self, reason: SkipReason) -> usize {
        self.skip_counts[reason as usize]
    }
}

/// True if every input of `tx` is a tagged dice address.
fn all_inputs_dice(chain: &ResolvedChain, tx: TxId, dice: &HashSet<AddressId>) -> bool {
    let t = &chain.txs[tx as usize];
    !t.inputs.is_empty() && t.inputs.iter().all(|i| dice.contains(&i.address))
}

/// True if `addr` receives again after `tx` within `window` blocks
/// (receives coming solely from dice addresses are ignored when the
/// exception is enabled).
///
/// The paper's "receives again within *d*" is pinned down as: there exists a
/// transaction strictly later in chain order whose outputs pay `addr` at a
/// height `h2` with `h2 - base_height <= window` — an **inclusive** window
/// boundary, measured in blocks from the labelling transaction's block.
/// Consequences worth spelling out:
///
/// * a receive at exactly `base_height + window` still discards the label;
///   one block past the window does not;
/// * `window = 0` covers only later receives in the *same block* — it is
///   not equivalent to disabling the wait (`wait_blocks: None`);
/// * `window = u64::MAX` checks all later receives (the false-positive
///   estimator's "used again at any later time").
///
/// The scan early-exits once past the window, which is sound because
/// [`ResolvedChain::received_in`] is height-sorted — an invariant
/// `ResolvedChain::add_tx` now enforces rather than silently assumes.
pub fn receives_again_within(
    chain: &ResolvedChain,
    addr: AddressId,
    tx: TxId,
    window: u64,
    config: &ChangeConfig,
) -> bool {
    let base_height = chain.txs[tx as usize].height;
    for &t2 in chain.received_in(addr) {
        if t2 <= tx {
            continue;
        }
        let h2 = chain.txs[t2 as usize].height;
        // Later in chain order ⟹ h2 >= base_height (enforced by add_tx).
        if h2 - base_height > window {
            break; // received_in is height-sorted; later entries only recede
        }
        if config.dice_exception && all_inputs_dice(chain, t2, &config.dice_addresses) {
            continue;
        }
        return true;
    }
    false
}

/// The stateless, transaction-local half of the labelling decision:
/// conditions 2–3 plus the output-count gate, in the exact precedence
/// [`ChangeScanner::decide`] reports them. Needs no per-address history, so
/// the sharded ingest pipeline computes it on a transaction's home shard
/// without consulting the other shards.
pub(crate) fn precondition_skip(tx: &ResolvedTx, config: &ChangeConfig) -> Option<SkipReason> {
    // Condition 2: not a coin generation.
    if tx.is_coinbase {
        return Some(SkipReason::Coinbase);
    }
    if tx.outputs.len() < config.min_outputs.max(1) {
        return Some(SkipReason::TooFewOutputs);
    }

    // Condition 3: no self-change address.
    let inputs = InputAddresses::of(tx);
    if tx.outputs.iter().any(|o| inputs.contains(o.address)) {
        return Some(SkipReason::SelfChange);
    }
    None
}

/// Input × output pairs above which [`InputAddresses`] sorts the inputs
/// once instead of scanning them per output. Every transaction of the
/// default and `paper_scale` economies (at most 232 and 286 pairs) stays
/// below it.
const DIRECT_SCAN_PAIRS: usize = 1024;

/// "Is this address among the transaction's inputs?", answered without
/// hashing: a direct scan over the inputs for ordinary transactions, or a
/// binary search over the sorted input addresses for ones whose
/// input × output product exceeds [`DIRECT_SCAN_PAIRS`]. Only the latter
/// allocates.
enum InputAddresses<'a> {
    Scan(&'a [ResolvedInput]),
    Sorted(Vec<AddressId>),
}

impl<'a> InputAddresses<'a> {
    fn of(tx: &'a ResolvedTx) -> InputAddresses<'a> {
        if tx.inputs.len().saturating_mul(tx.outputs.len()) <= DIRECT_SCAN_PAIRS {
            return InputAddresses::Scan(&tx.inputs);
        }
        let mut sorted: Vec<AddressId> = tx.inputs.iter().map(|i| i.address).collect();
        sorted.sort_unstable();
        InputAddresses::Sorted(sorted)
    }

    fn contains(&self, addr: AddressId) -> bool {
        match self {
            InputAddresses::Scan(inputs) => inputs.iter().any(|i| i.address == addr),
            InputAddresses::Sorted(sorted) => sorted.binary_search(&addr).is_ok(),
        }
    }
}

/// Conditions 1 + 4: exactly one output address makes its first appearance
/// in this transaction (and only once within it). Pure chain lookup — the
/// "previous transactions" of condition 1 come from
/// [`ResolvedChain::first_seen`], not from running state — so it too is
/// computable per transaction without cross-shard coordination.
pub(crate) fn fresh_candidate(
    chain: &ResolvedChain,
    t_id: TxId,
    tx: &ResolvedTx,
) -> Result<(u32, AddressId), SkipReason> {
    let mut candidate: Option<(u32, AddressId)> = None;
    let mut candidates = 0;
    for (vout, out) in tx.outputs.iter().enumerate() {
        let fresh = chain.first_seen(out.address) == t_id
            && tx
                .outputs
                .iter()
                .filter(|o| o.address == out.address)
                .count()
                == 1;
        if fresh {
            candidates += 1;
            candidate = Some((vout as u32, out.address));
        }
    }
    match candidates {
        0 => Err(SkipReason::NoCandidate),
        1 => Ok(candidate.unwrap()),
        _ => Err(SkipReason::Ambiguous),
    }
}

/// The running per-address state behind Heuristic 2's "previous
/// transactions" conditions, factored out so the batch [`identify`] pass,
/// the incremental engine (`crate::incremental`) and the sharded pipeline
/// (`crate::incremental::sharded`) share one decision procedure.
///
/// Feed transactions in chain order: call [`decide`](Self::decide) *before*
/// [`absorb`](Self::absorb) for each transaction, so "previous" always means
/// strictly-earlier transactions. State grows on demand as new addresses
/// appear, which is what lets the incremental path use it without knowing
/// the final address count up front.
///
/// A scanner can be restricted to one shard of the address space
/// ([`for_shard`](Self::for_shard)): it then tracks history only for
/// addresses it owns (`addr % shard_count == shard`), stored at local index
/// `addr / shard_count` so per-shard memory is proportional to the shard's
/// share. The stateful refinement checks decompose per address, so each
/// shard evaluates its own veto over the outputs it owns and the sharded
/// reconcile step ORs the per-shard verdicts — exactly the predicate an
/// unsharded scanner computes.
#[derive(Debug, Clone)]
pub struct ChangeScanner {
    /// Per owned address (local index): how many outputs have paid it.
    receive_count: Vec<u32>,
    /// Per owned address (local index): ever used as a self-change address.
    was_self_change: Vec<bool>,
    shard: u32,
    stride: u32,
}

impl Default for ChangeScanner {
    fn default() -> ChangeScanner {
        ChangeScanner::for_shard(0, 1)
    }
}

impl ChangeScanner {
    /// A scanner with no history, covering the whole address space.
    pub fn new() -> ChangeScanner {
        ChangeScanner::default()
    }

    /// A scanner pre-sized for `n_addr` addresses (batch path).
    pub fn with_capacity(n_addr: usize) -> ChangeScanner {
        ChangeScanner {
            receive_count: Vec::with_capacity(n_addr),
            was_self_change: Vec::with_capacity(n_addr),
            shard: 0,
            stride: 1,
        }
    }

    /// A scanner owning only the addresses of shard `shard` out of
    /// `shard_count` (round-robin partition). Panics unless
    /// `shard < shard_count` and `shard_count >= 1`.
    pub fn for_shard(shard: u32, shard_count: u32) -> ChangeScanner {
        assert!(
            shard_count >= 1 && shard < shard_count,
            "shard {shard} out of range for {shard_count} shards"
        );
        ChangeScanner {
            receive_count: Vec::new(),
            was_self_change: Vec::new(),
            shard,
            stride: shard_count,
        }
    }

    /// The local slot for `addr`, or `None` if another shard owns it.
    fn slot(&self, addr: AddressId) -> Option<usize> {
        if self.stride == 1 {
            return Some(addr as usize); // unsharded: skip the division
        }
        (addr % self.stride == self.shard).then(|| (addr / self.stride) as usize)
    }

    fn receives(&self, slot: usize) -> u32 {
        self.receive_count.get(slot).copied().unwrap_or(0)
    }

    fn self_changed(&self, slot: usize) -> bool {
        self.was_self_change.get(slot).copied().unwrap_or(false)
    }

    /// The change-reuse refinement's veto over the outputs this scanner
    /// owns: some owned output address has received exactly one input so
    /// far. For an unsharded scanner this is the whole refinement; sharded
    /// verdicts are ORed across shards.
    pub(crate) fn reused_change_veto(&self, tx: &ResolvedTx) -> bool {
        tx.outputs
            .iter()
            .any(|o| self.slot(o.address).is_some_and(|s| self.receives(s) == 1))
    }

    /// The prior-self-change refinement's veto over the outputs this
    /// scanner owns.
    pub(crate) fn prior_self_change_veto(&self, tx: &ResolvedTx) -> bool {
        tx.outputs
            .iter()
            .any(|o| self.slot(o.address).is_some_and(|s| self.self_changed(s)))
    }

    /// The per-transaction labelling decision (conditions 1–4 plus the
    /// non-temporal refinements), against the history absorbed so far.
    /// The temporal wait-to-label refinement is the caller's concern: batch
    /// labelling looks ahead with [`receives_again_within`]; the incremental
    /// engine parks the decision in its pending queue.
    ///
    /// Only valid on an unsharded scanner (a sharded one sees a subset of
    /// the history; the sharded pipeline combines per-shard vetoes at
    /// reconcile time instead).
    pub fn decide(
        &self,
        chain: &ResolvedChain,
        t_id: TxId,
        tx: &ResolvedTx,
        config: &ChangeConfig,
    ) -> Result<(u32, AddressId), SkipReason> {
        assert_eq!(self.stride, 1, "decide requires an unsharded scanner");
        if let Some(reason) = precondition_skip(tx, config) {
            return Err(reason);
        }

        // Refinements that veto the whole transaction.
        if config.skip_reused_change && self.reused_change_veto(tx) {
            return Err(SkipReason::ReusedChange);
        }
        if config.skip_prior_self_change && self.prior_self_change_veto(tx) {
            return Err(SkipReason::PriorSelfChange);
        }

        fresh_candidate(chain, t_id, tx)
    }

    /// Updates the running state with the outputs of `tx` this scanner
    /// owns. Call once per transaction, after [`decide`](Self::decide) — in
    /// the sharded pipeline, *every* shard absorbs every transaction (each
    /// updating only its own addresses), so per-shard state stays in
    /// lockstep with what one unsharded scanner would hold.
    pub fn absorb(&mut self, tx: &ResolvedTx) {
        let inputs = InputAddresses::of(tx);
        for out in &tx.outputs {
            let Some(s) = self.slot(out.address) else { continue };
            if s >= self.receive_count.len() {
                self.receive_count.resize(s + 1, 0);
                self.was_self_change.resize(s + 1, false);
            }
            self.receive_count[s] += 1;
            if inputs.contains(out.address) {
                self.was_self_change[s] = true;
            }
        }
    }
}

/// Runs Heuristic 2 over the chain with the given configuration.
pub fn identify(chain: &ResolvedChain, config: &ChangeConfig) -> ChangeLabels {
    let mut labels = ChangeLabels {
        vout_of: vec![None; chain.tx_count()],
        ..Default::default()
    };
    let mut scanner = ChangeScanner::with_capacity(chain.address_count());

    for (t, tx) in chain.txs.iter().enumerate() {
        let t_id = t as TxId;
        // Decide the label first, then update running state.
        match scanner.decide(chain, t_id, tx, config) {
            Ok((vout, addr)) => {
                // Wait-to-label: discard if the address receives again within
                // the window (dice-sourced receives excepted).
                let failed_wait = match config.wait_blocks {
                    Some(w) => receives_again_within(chain, addr, t_id, w, config),
                    None => false,
                };
                if failed_wait {
                    labels.note_skip(SkipReason::FailedWait);
                } else {
                    labels.vout_of[t] = Some(vout);
                    labels.labels += 1;
                }
            }
            Err(reason) => labels.note_skip(reason),
        }
        scanner.absorb(tx);
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestChain;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    /// cb(1) → tx[(2, fresh), (1-seen? no...)] — canonical change shape:
    /// input from addr 1, pays previously-seen addr 2, change to fresh 3.
    fn canonical() -> (TestChain, usize) {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let _ = cb2;
        // addr 2 has appeared (coinbase); addr 3 is fresh.
        let spend = t.tx(&[(cb1, 0)], &[(2, 30), (3, 20)]);
        (t, spend)
    }

    #[test]
    fn labels_canonical_change() {
        let (t, spend) = canonical();
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(spend as u32), Some(1));
        assert_eq!(labels.labels, 1);
    }

    #[test]
    fn coinbase_never_labelled() {
        let (t, _) = canonical();
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(0), None);
        assert!(labels.skipped(SkipReason::Coinbase) >= 2);
    }

    #[test]
    fn ambiguous_two_fresh_outputs() {
        let mut t = TestChain::new();
        let cb = t.coinbase(1, 50);
        // Both 2 and 3 are fresh → ambiguous.
        let spend = t.tx(&[(cb, 0)], &[(2, 30), (3, 20)]);
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(spend as u32), None);
        assert_eq!(labels.skipped(SkipReason::Ambiguous), 1);
    }

    #[test]
    fn no_candidate_when_all_outputs_seen() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50);
        let _cb3 = t.coinbase(3, 50);
        let spend = t.tx(&[(cb1, 0)], &[(2, 30), (3, 20)]);
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(spend as u32), None);
        assert_eq!(labels.skipped(SkipReason::NoCandidate), 1);
    }

    #[test]
    fn self_change_blocks_labelling() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50);
        // Change back to input address 1; fresh addr 3 must NOT be labelled.
        let spend = t.tx(&[(cb1, 0)], &[(3, 30), (1, 20)]);
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(spend as u32), None);
        assert_eq!(labels.skipped(SkipReason::SelfChange), 1);
    }

    #[test]
    fn single_output_sweep_labelled_by_default() {
        let mut t = TestChain::new();
        let cb = t.coinbase(1, 50);
        let sweep = t.tx(&[(cb, 0)], &[(2, 50)]);
        // The paper's conditions are vacuously met by a sweep to a fresh
        // address, so the default config labels it.
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(sweep as u32), Some(0));

        // min_outputs = 2 ablates sweep labelling.
        let mut cfg = ChangeConfig::naive();
        cfg.min_outputs = 2;
        let labels = identify(&t.chain, &cfg);
        assert_eq!(labels.change_vout(sweep as u32), None);
        assert_eq!(labels.skipped(SkipReason::TooFewOutputs), 1);
    }

    #[test]
    fn duplicate_fresh_output_addresses_are_ambiguous_not_candidates() {
        let mut t = TestChain::new();
        let cb = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50);
        // Outputs: [3, 3] — address 3 fresh but duplicated; [2] seen.
        let spend = t.tx(&[(cb, 0)], &[(3, 20), (3, 10), (2, 20)]);
        let labels = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(labels.change_vout(spend as u32), None);
    }

    #[test]
    fn reused_change_refinement_skips_second_use() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        // Recipient 5 receives twice up front so that paying it does not
        // itself trigger the (deliberately ultra-conservative) reuse veto.
        let _cb5a = t.coinbase(5, 50);
        let _cb5b = t.coinbase(5, 50);
        // tx1: change to fresh 4 (labelled). Pays seen addr 5.
        let tx1 = t.tx(&[(cb1, 0)], &[(5, 30), (4, 20)]);
        // tx2 (different user, addr 2): SAME address 4 used as change again,
        // recipient 6 is fresh. Naive H2 mislabels 6; refined skips.
        let tx2 = t.tx(&[(cb2, 0)], &[(6, 30), (4, 20)]);

        let naive = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(naive.change_vout(tx1 as u32), Some(1));
        // Naive: output 4 has appeared (tx1), 6 is fresh → labels 6. Wrong!
        assert_eq!(naive.change_vout(tx2 as u32), Some(0));

        let mut cfg = ChangeConfig::naive();
        cfg.skip_reused_change = true;
        let refined = identify(&t.chain, &cfg);
        assert_eq!(refined.change_vout(tx1 as u32), Some(1));
        assert_eq!(refined.change_vout(tx2 as u32), None);
        assert_eq!(refined.skipped(SkipReason::ReusedChange), 1);
    }

    #[test]
    fn prior_self_change_refinement() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        // tx1: self-change on address 1 (pays seen addr 2).
        let tx1 = t.tx(&[(cb1, 0)], &[(2, 30), (1, 20)]);
        // tx2: addr 2 spends, paying fresh 6 and "change" to addr 1 (which
        // was previously a self-change address).
        let tx2 = t.tx(&[(cb2, 0)], &[(6, 30), (1, 20)]);

        let naive = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(naive.change_vout(tx1 as u32), None); // self-change
        assert_eq!(naive.change_vout(tx2 as u32), Some(0)); // mislabels 6

        let mut cfg = ChangeConfig::naive();
        cfg.skip_prior_self_change = true;
        let refined = identify(&t.chain, &cfg);
        assert_eq!(refined.change_vout(tx2 as u32), None);
        assert_eq!(refined.skipped(SkipReason::PriorSelfChange), 1);
    }

    #[test]
    fn wait_to_label_discards_soon_reused_address() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let _cb5 = t.coinbase(5, 50);
        // tx at height 3: change to fresh 4.
        let tx1 = t.tx(&[(cb1, 0)], &[(5, 30), (4, 20)]);
        // Address 4 receives again at height 4 (within a day).
        let _pay = t.tx(&[(cb2, 0)], &[(4, 30), (5, 20)]);

        let no_wait = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(no_wait.change_vout(tx1 as u32), Some(1));

        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(BLOCKS_PER_DAY);
        let waited = identify(&t.chain, &cfg);
        assert_eq!(waited.change_vout(tx1 as u32), None);
        assert_eq!(waited.skipped(SkipReason::FailedWait), 1);
    }

    #[test]
    fn wait_window_is_bounded() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let _cb5 = t.coinbase(5, 50);
        let tx1 = t.tx(&[(cb1, 0)], &[(5, 30), (4, 20)]);
        // Reuse far beyond the window (height 5000).
        let _pay = t.tx_at(&[(cb2, 0)], &[(4, 30), (5, 20)], Some(5000));

        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(BLOCKS_PER_DAY);
        let labels = identify(&t.chain, &cfg);
        // The reuse is outside the window, so the label stands.
        assert_eq!(labels.change_vout(tx1 as u32), Some(1));
    }

    /// Canonical change at height 3 (change to fresh addr 4), with the
    /// reuse receive placed at `reuse_height`.
    fn chain_with_reuse_at(reuse_height: u64) -> (TestChain, usize) {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50); // height 0
        let cb2 = t.coinbase(2, 50); // height 1
        let _cb5 = t.coinbase(5, 50); // height 2
        let tx1 = t.tx(&[(cb1, 0)], &[(5, 30), (4, 20)]); // height 3
        let _pay = t.tx_at(&[(cb2, 0)], &[(4, 30), (5, 19)], Some(reuse_height));
        (t, tx1)
    }

    fn labelled_with_window(t: &TestChain, tx1: usize, window: u64) -> bool {
        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(window);
        identify(&t.chain, &cfg).change_vout(tx1 as u32).is_some()
    }

    #[test]
    fn window_zero_discards_same_block_reuse_only() {
        // Reuse later in the same block (height 3): window 0 discards.
        let (t, tx1) = chain_with_reuse_at(3);
        assert!(!labelled_with_window(&t, tx1, 0));
        // `Some(0)` is not `None`: without the wait the label stands.
        let no_wait = identify(&t.chain, &ChangeConfig::naive());
        assert_eq!(no_wait.change_vout(tx1 as u32), Some(1));

        // Reuse one block later (height 4): outside a zero window.
        let (t, tx1) = chain_with_reuse_at(4);
        assert!(labelled_with_window(&t, tx1, 0));
        assert!(!labelled_with_window(&t, tx1, 1));
    }

    #[test]
    fn window_boundary_is_inclusive() {
        // Reuse at exactly base_height + window (3 + 5 = 8): discarded.
        let (t, tx1) = chain_with_reuse_at(8);
        assert!(!labelled_with_window(&t, tx1, 5));
        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(5);
        assert_eq!(identify(&t.chain, &cfg).skipped(SkipReason::FailedWait), 1);

        // Reuse one block past the window (3 + 5 + 1 = 9): label stands.
        let (t, tx1) = chain_with_reuse_at(9);
        assert!(!labelled_with_window(&t, tx1, 6));
        assert!(labelled_with_window(&t, tx1, 5));
    }

    #[test]
    fn unbounded_window_checks_all_later_receives() {
        let (t, tx1) = chain_with_reuse_at(5000);
        assert!(labelled_with_window(&t, tx1, 4996)); // 3 + 4996 < 5000
        assert!(!labelled_with_window(&t, tx1, 4997)); // inclusive boundary
        assert!(!labelled_with_window(&t, tx1, u64::MAX));
    }

    #[test]
    fn dice_exception_spares_dice_paybacks() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let dice_funding = t.coinbase(9, 50); // address 9 = the dice house
        let _cb5 = t.coinbase(5, 50);
        // tx: change to fresh 4.
        let tx1 = t.tx(&[(cb1, 0)], &[(5, 30), (4, 20)]);
        // User bets from address 4 (spends it)...
        let bet = t.tx(&[(tx1, 1)], &[(9, 10), (6, 10)]);
        let _ = bet;
        // ...and the dice house pays winnings BACK to address 4.
        let _payout = t.tx(&[(dice_funding, 0)], &[(4, 19), (9, 31)]);

        // Without the exception + with waiting: label discarded.
        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(BLOCKS_PER_WEEK);
        let strict = identify(&t.chain, &cfg);
        assert_eq!(strict.change_vout(tx1 as u32), None);

        // With the dice exception the payback is ignored.
        let mut cfg = ChangeConfig::naive();
        cfg.wait_blocks = Some(BLOCKS_PER_WEEK);
        cfg.dice_exception = true;
        cfg.dice_addresses.insert(t.id(9));
        let lenient = identify(&t.chain, &cfg);
        assert_eq!(lenient.change_vout(tx1 as u32), Some(1));
    }

    #[test]
    fn sharded_scanners_reproduce_unsharded_vetoes() {
        // Per-shard veto verdicts, ORed across shards, must equal the
        // unsharded scanner's verdicts on every transaction — the identity
        // the sharded ingest reconcile step is built on.
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        let tx1 = t.tx(&[(cb1, 0)], &[(2, 30), (4, 20)]); // change to fresh 4
        let _tx2 = t.tx(&[(cb2, 0)], &[(6, 30), (4, 20)]); // reuses 4
        let _tx3 = t.tx(&[(tx1, 0)], &[(2, 15), (7, 14)]); // self-change on 2
        let chain = &t.chain;

        for shards in [2u32, 3, 4] {
            let mut whole = ChangeScanner::new();
            let mut parts: Vec<ChangeScanner> =
                (0..shards).map(|s| ChangeScanner::for_shard(s, shards)).collect();
            for tx in &chain.txs {
                assert_eq!(
                    parts.iter().any(|p| p.reused_change_veto(tx)),
                    whole.reused_change_veto(tx),
                    "reused veto, {shards} shards"
                );
                assert_eq!(
                    parts.iter().any(|p| p.prior_self_change_veto(tx)),
                    whole.prior_self_change_veto(tx),
                    "prior-self-change veto, {shards} shards"
                );
                whole.absorb(tx);
                for p in &mut parts {
                    p.absorb(tx);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unsharded")]
    fn decide_rejects_sharded_scanner() {
        let (t, spend) = canonical();
        let scanner = ChangeScanner::for_shard(0, 2);
        let _ = scanner.decide(
            &t.chain,
            spend as TxId,
            &t.chain.txs[spend],
            &ChangeConfig::naive(),
        );
    }

    /// Reference for [`precondition_skip`]: condition 3 through a hash set
    /// of the input addresses.
    fn precondition_skip_oracle(tx: &ResolvedTx, config: &ChangeConfig) -> Option<SkipReason> {
        if tx.is_coinbase {
            return Some(SkipReason::Coinbase);
        }
        if tx.outputs.len() < config.min_outputs.max(1) {
            return Some(SkipReason::TooFewOutputs);
        }
        let input_set: HashSet<AddressId> = tx.inputs.iter().map(|i| i.address).collect();
        if tx.outputs.iter().any(|o| input_set.contains(&o.address)) {
            return Some(SkipReason::SelfChange);
        }
        None
    }

    /// Reference for [`ChangeScanner::absorb`], through the same hash set.
    fn absorb_oracle(scanner: &mut ChangeScanner, tx: &ResolvedTx) {
        let input_set: HashSet<AddressId> = tx.inputs.iter().map(|i| i.address).collect();
        for out in &tx.outputs {
            let Some(s) = scanner.slot(out.address) else { continue };
            if s >= scanner.receive_count.len() {
                scanner.receive_count.resize(s + 1, 0);
                scanner.was_self_change.resize(s + 1, false);
            }
            scanner.receive_count[s] += 1;
            if input_set.contains(&out.address) {
                scanner.was_self_change[s] = true;
            }
        }
    }

    /// A free-standing transaction over the given input and output
    /// addresses (coinbases drop their inputs).
    fn raw_tx(coinbase: bool, ins: &[AddressId], outs: &[AddressId]) -> ResolvedTx {
        use fistful_chain::amount::Amount;
        use fistful_chain::resolve::ResolvedOutput;
        let ins = if coinbase { &[][..] } else { ins };
        ResolvedTx {
            txid: Default::default(),
            height: 0,
            time: 0,
            is_coinbase: coinbase,
            inputs: ins
                .iter()
                .map(|&address| ResolvedInput {
                    address,
                    value: Amount::from_sat(1),
                    prev_tx: 0,
                    prev_vout: 0,
                })
                .collect(),
            outputs: outs
                .iter()
                .map(|&address| ResolvedOutput {
                    address,
                    value: Amount::from_sat(1),
                    spent_by: None,
                })
                .collect(),
        }
    }

    /// Checks the kernels against the oracles on one transaction stream:
    /// condition 3 under both output-count gates, and the absorbed state of
    /// an unsharded and a 3-way sharded scanner after every transaction.
    fn check_against_oracles(txs: &[ResolvedTx]) -> Result<(), TestCaseError> {
        let mut scanners: Vec<ChangeScanner> = std::iter::once(ChangeScanner::new())
            .chain((0..3).map(|s| ChangeScanner::for_shard(s, 3)))
            .collect();
        let mut oracles = scanners.clone();
        for tx in txs {
            for min_outputs in [1, 2] {
                let cfg = ChangeConfig { min_outputs, ..ChangeConfig::naive() };
                prop_assert_eq!(precondition_skip(tx, &cfg), precondition_skip_oracle(tx, &cfg));
            }
            for (scanner, oracle) in scanners.iter_mut().zip(&mut oracles) {
                scanner.absorb(tx);
                absorb_oracle(oracle, tx);
                prop_assert_eq!(&scanner.receive_count, &oracle.receive_count);
                prop_assert_eq!(&scanner.was_self_change, &oracle.was_self_change);
            }
        }
        Ok(())
    }

    #[test]
    fn oracle_h2_paths_switch_at_the_size_bound() {
        let at = raw_tx(false, &[7; 32], &[1; 32]); // exactly 1024 pairs
        assert!(matches!(InputAddresses::of(&at), InputAddresses::Scan(_)));
        let above = raw_tx(false, &[7; 33], &[1; 32]);
        assert!(matches!(InputAddresses::of(&above), InputAddresses::Sorted(_)));
        let above_self = raw_tx(false, &[7; 33], &[[1; 31].as_slice(), &[7]].concat());
        for tx in [&at, &above, &above_self] {
            check_against_oracles(std::slice::from_ref(tx)).unwrap();
        }
        assert_eq!(
            precondition_skip(&above_self, &ChangeConfig::naive()),
            Some(SkipReason::SelfChange)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Small transactions over a handful of addresses: repeated
        /// addresses on both sides, outputs paying input addresses,
        /// coinbases and single-output sweeps.
        #[test]
        fn oracle_h2_kernels_on_small_transactions(
            txs in proptest::collection::vec(
                (
                    0u32..8,
                    proptest::collection::vec(0u32..12, 0..6),
                    proptest::collection::vec(0u32..12, 1..6),
                ),
                1..24,
            )
        ) {
            let txs: Vec<ResolvedTx> = txs
                .iter()
                .map(|(kind, ins, outs)| raw_tx(*kind == 0, ins, outs))
                .collect();
            check_against_oracles(&txs)?;
        }

        /// Transactions on both sides of [`DIRECT_SCAN_PAIRS`], with an
        /// output forced onto an input address in some of them.
        #[test]
        fn oracle_h2_kernels_around_the_size_bound(
            txs in proptest::collection::vec(
                (
                    proptest::collection::vec(0u32..400, 1..70),
                    proptest::collection::vec(0u32..400, 1..70),
                    0usize..4,
                ),
                1..8,
            )
        ) {
            let txs: Vec<ResolvedTx> = txs
                .iter()
                .map(|(ins, outs, pick)| {
                    let mut outs = outs.clone();
                    if *pick < 2 {
                        let o = (pick * 31) % outs.len();
                        outs[o] = ins[(pick * 17) % ins.len()];
                    }
                    raw_tx(false, ins, &outs)
                })
                .collect();
            check_against_oracles(&txs)?;
        }
    }

    #[test]
    fn refined_config_composition() {
        let cfg = ChangeConfig::refined(HashSet::new());
        assert!(cfg.dice_exception);
        assert!(cfg.skip_reused_change);
        assert!(cfg.skip_prior_self_change);
        assert_eq!(cfg.wait_blocks, Some(BLOCKS_PER_WEEK));
        assert_eq!(cfg.min_outputs, 1);
    }
}
