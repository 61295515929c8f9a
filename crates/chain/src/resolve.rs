//! The analysis-friendly view of the chain.
//!
//! Clustering and flow analysis need resolved transactions — inputs carrying
//! the address and value of the output they spend — plus fast per-address
//! history. [`ResolvedChain`] interns addresses into dense [`AddressId`]s
//! and transactions into dense [`TxId`]s, and maintains spent-by backlinks
//! (which peeling-chain traversal follows) and per-address event lists
//! (which Heuristic 2's "has the address appeared before?" conditions and
//! the false-positive estimator consume).

use crate::address::Address;
use crate::amount::Amount;
use crate::transaction::Transaction;
use crate::utxo::UtxoSet;
use fistful_crypto::hash::Hash256;
use std::collections::HashMap;

/// Dense index of an address within a [`ResolvedChain`].
pub type AddressId = u32;

/// Dense index of a transaction within a [`ResolvedChain`]
/// (chain order: by block, then by position within the block).
pub type TxId = u32;

/// A resolved input: the output being spent, with owner and value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedInput {
    /// The address that owned the spent output.
    pub address: AddressId,
    /// The value of the spent output.
    pub value: Amount,
    /// The transaction that created the spent output.
    pub prev_tx: TxId,
    /// The output index within `prev_tx`.
    pub prev_vout: u32,
}

/// A resolved output, with a backlink to its spender once spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedOutput {
    /// The receiving address.
    pub address: AddressId,
    /// The value.
    pub value: Amount,
    /// The transaction that later spends this output, if any.
    pub spent_by: Option<TxId>,
}

/// A fully resolved transaction.
#[derive(Clone, Debug)]
pub struct ResolvedTx {
    /// The transaction id.
    pub txid: Hash256,
    /// Height of the containing block.
    pub height: u64,
    /// Timestamp of the containing block.
    pub time: u64,
    /// True for coin generations.
    pub is_coinbase: bool,
    /// Resolved inputs (empty for coinbase).
    pub inputs: Vec<ResolvedInput>,
    /// Outputs.
    pub outputs: Vec<ResolvedOutput>,
}

impl ResolvedTx {
    /// Total input value.
    pub fn input_value(&self) -> Amount {
        self.inputs.iter().map(|i| i.value).sum()
    }

    /// Total output value.
    pub fn output_value(&self) -> Amount {
        self.outputs.iter().map(|o| o.value).sum()
    }

    /// Fee paid (zero for coinbase).
    pub fn fee(&self) -> Amount {
        if self.is_coinbase {
            Amount::ZERO
        } else {
            self.input_value().saturating_sub(self.output_value())
        }
    }
}

/// Dense index of a block within a [`ResolvedChain`].
pub type BlockId = u32;

/// One block's slice of a [`ResolvedChain`]: the transactions that were
/// confirmed together at one height. This is the unit of replay consumed by
/// the incremental clustering engine (`fistful_core::incremental`).
#[derive(Clone, Copy)]
pub struct ResolvedBlockView<'a> {
    chain: &'a ResolvedChain,
    height: u64,
    start: TxId,
    end: TxId,
}

impl<'a> ResolvedBlockView<'a> {
    /// The chain this block belongs to.
    pub fn chain(&self) -> &'a ResolvedChain {
        self.chain
    }

    /// The block height.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The first transaction id in the block.
    pub fn tx_start(&self) -> TxId {
        self.start
    }

    /// One past the last transaction id in the block.
    pub fn tx_end(&self) -> TxId {
        self.end
    }

    /// Number of transactions in the block.
    pub fn tx_count(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Iterates `(tx id, transaction)` over the block in chain order.
    pub fn txs(&self) -> impl Iterator<Item = (TxId, &'a ResolvedTx)> {
        let chain = self.chain;
        (self.start..self.end).map(move |t| (t, &chain.txs[t as usize]))
    }
}

/// A contiguous run of blocks of a [`ResolvedChain`] — the unit of epoch
/// replay consumed by the sharded ingest pipeline
/// (`fistful_core::incremental::sharded`). Every shard worker walks the
/// same span; [`ResolvedChain::block_span`] is how an epoch's worth of
/// buffered blocks is turned back into a transaction range.
#[derive(Clone, Copy)]
pub struct ResolvedSpanView<'a> {
    chain: &'a ResolvedChain,
    block_start: BlockId,
    block_end: BlockId,
    start: TxId,
    end: TxId,
}

impl<'a> ResolvedSpanView<'a> {
    /// The chain this span belongs to.
    pub fn chain(&self) -> &'a ResolvedChain {
        self.chain
    }

    /// The first block id in the span.
    pub fn block_start(&self) -> BlockId {
        self.block_start
    }

    /// One past the last block id in the span.
    pub fn block_end(&self) -> BlockId {
        self.block_end
    }

    /// Number of blocks in the span.
    pub fn block_count(&self) -> usize {
        (self.block_end - self.block_start) as usize
    }

    /// The first transaction id in the span.
    pub fn tx_start(&self) -> TxId {
        self.start
    }

    /// One past the last transaction id in the span.
    pub fn tx_end(&self) -> TxId {
        self.end
    }

    /// Number of transactions in the span.
    pub fn tx_count(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Iterates `(tx id, transaction)` over the span in chain order.
    pub fn txs(&self) -> impl Iterator<Item = (TxId, &'a ResolvedTx)> {
        let chain = self.chain;
        (self.start..self.end).map(move |t| (t, &chain.txs[t as usize]))
    }

    /// Iterates the span block by block, in height order.
    pub fn blocks(&self) -> impl Iterator<Item = ResolvedBlockView<'a>> {
        let chain = self.chain;
        (self.block_start..self.block_end).map(move |i| chain.block(i))
    }

    /// Height of the span's last block, or `None` for an empty span.
    pub fn last_height(&self) -> Option<u64> {
        (self.block_start < self.block_end)
            .then(|| self.chain.block(self.block_end - 1).height())
    }
}

/// The resolved, interned view of an entire chain.
#[derive(Clone, Default)]
pub struct ResolvedChain {
    /// All transactions in chain order.
    pub txs: Vec<ResolvedTx>,
    // The derived fields are pub(crate) so `crate::columns` can rebuild a
    // chain opened from the on-disk columnar store without re-resolving.
    pub(crate) addresses: Vec<Address>,
    pub(crate) address_index: HashMap<Address, AddressId>,
    pub(crate) txid_index: HashMap<Hash256, TxId>,
    /// Per block: `(height, first tx id)`. The block's transactions run to
    /// the next entry's start (or the end of `txs`). Heights are strictly
    /// increasing — `add_tx` enforces it.
    pub(crate) block_spans: Vec<(u64, TxId)>,
    /// Per address: the first transaction (chain order) in which the address
    /// appeared at all (as input or output).
    pub(crate) first_seen: Vec<TxId>,
    /// Per address: transactions in which the address received an output.
    /// Sorted by tx id, hence (by the monotone-height invariant) by height.
    pub(crate) received_in: Vec<Vec<TxId>>,
    /// Per address: transactions in which the address spent an input.
    pub(crate) spent_in: Vec<Vec<TxId>>,
}

impl ResolvedChain {
    /// An empty chain view.
    pub fn new() -> ResolvedChain {
        ResolvedChain::default()
    }

    /// Number of transactions.
    pub fn tx_count(&self) -> usize {
        self.txs.len()
    }

    /// Number of distinct addresses seen.
    pub fn address_count(&self) -> usize {
        self.addresses.len()
    }

    /// Number of blocks (distinct heights) seen.
    pub fn block_count(&self) -> usize {
        self.block_spans.len()
    }

    /// The `i`-th block's view. Panics on out-of-range indices.
    pub fn block(&self, i: BlockId) -> ResolvedBlockView<'_> {
        let (height, start) = self.block_spans[i as usize];
        let end = self
            .block_spans
            .get(i as usize + 1)
            .map(|&(_, s)| s)
            .unwrap_or(self.txs.len() as TxId);
        ResolvedBlockView { chain: self, height, start, end }
    }

    /// Iterates the chain block by block, in height order.
    pub fn blocks(&self) -> impl Iterator<Item = ResolvedBlockView<'_>> {
        (0..self.block_count() as BlockId).map(move |i| self.block(i))
    }

    /// The span covering blocks `range.start..range.end`. An empty range is
    /// allowed (and yields an empty span); out-of-range indices panic.
    pub fn block_span(&self, range: std::ops::Range<BlockId>) -> ResolvedSpanView<'_> {
        assert!(
            range.start <= range.end && (range.end as usize) <= self.block_count(),
            "block span {}..{} out of range for {} blocks",
            range.start,
            range.end,
            self.block_count()
        );
        let tx_at = |b: BlockId| {
            self.block_spans
                .get(b as usize)
                .map(|&(_, s)| s)
                .unwrap_or(self.txs.len() as TxId)
        };
        ResolvedSpanView {
            chain: self,
            block_start: range.start,
            block_end: range.end,
            start: tx_at(range.start),
            end: tx_at(range.end),
        }
    }

    /// The address for an id. Panics on out-of-range ids.
    pub fn address(&self, id: AddressId) -> Address {
        self.addresses[id as usize]
    }

    /// Looks up the id of an address, if it has appeared.
    pub fn address_id(&self, addr: &Address) -> Option<AddressId> {
        self.address_index.get(addr).copied()
    }

    /// Looks up a transaction by txid.
    pub fn tx_by_txid(&self, txid: &Hash256) -> Option<(TxId, &ResolvedTx)> {
        let id = *self.txid_index.get(txid)?;
        Some((id, &self.txs[id as usize]))
    }

    /// The first transaction in which `addr` appeared.
    pub fn first_seen(&self, addr: AddressId) -> TxId {
        self.first_seen[addr as usize]
    }

    /// Transactions in which `addr` received outputs, in chain order.
    pub fn received_in(&self, addr: AddressId) -> &[TxId] {
        &self.received_in[addr as usize]
    }

    /// Transactions in which `addr` spent inputs, in chain order.
    pub fn spent_in(&self, addr: AddressId) -> &[TxId] {
        &self.spent_in[addr as usize]
    }

    /// The last transaction (chain order) in which `addr` spent an input,
    /// or `None` if the address has never spent. O(1): the per-address
    /// event lists are height-sorted, so the last entry is the maximum.
    pub fn last_spent_in(&self, addr: AddressId) -> Option<TxId> {
        self.spent_in[addr as usize].last().copied()
    }

    /// Total number of transaction outputs across the whole chain — the
    /// length of the flat output arrays a columnar index over this chain
    /// needs (see `fistful_flow::graph::TxGraph`).
    pub fn total_output_count(&self) -> usize {
        self.txs.iter().map(|t| t.outputs.len()).sum()
    }

    /// Total number of transaction inputs across the whole chain
    /// (coinbases contribute zero).
    pub fn total_input_count(&self) -> usize {
        self.txs.iter().map(|t| t.inputs.len()).sum()
    }

    /// True if `addr` never spent any output ("sink" address in the paper's
    /// terminology).
    pub fn is_sink(&self, addr: AddressId) -> bool {
        self.spent_in[addr as usize].is_empty()
    }

    fn intern(&mut self, addr: Address) -> AddressId {
        if let Some(&id) = self.address_index.get(&addr) {
            return id;
        }
        let id = self.addresses.len() as AddressId;
        self.addresses.push(addr);
        self.address_index.insert(addr, id);
        self.first_seen.push(TxId::MAX);
        self.received_in.push(Vec::new());
        self.spent_in.push(Vec::new());
        id
    }

    fn note_seen(&mut self, addr: AddressId, tx: TxId) {
        let slot = &mut self.first_seen[addr as usize];
        if *slot == TxId::MAX {
            *slot = tx;
        }
    }

    /// Appends a validated transaction. `utxos` must reflect the state
    /// *before* this transaction is applied (inputs still present).
    ///
    /// Panics if a non-coinbase input is missing from `utxos` or references
    /// an unknown txid — validation must run first — or if `height` is below
    /// the previous transaction's height. Chain order must be height order;
    /// the per-address event lists ([`received_in`](Self::received_in),
    /// [`spent_in`](Self::spent_in)) are documented as height-sorted and the
    /// wait-window scan in `fistful_core` prunes on that invariant.
    pub fn add_tx(&mut self, tx: &Transaction, utxos: &UtxoSet, height: u64, time: u64) -> TxId {
        self.add_tx_with_txid(tx, tx.txid(), utxos, height, time)
    }

    /// [`add_tx`](Self::add_tx) for a transaction whose `txid` the caller
    /// already computed.
    pub(crate) fn add_tx_with_txid(
        &mut self,
        tx: &Transaction,
        txid: Hash256,
        utxos: &UtxoSet,
        height: u64,
        time: u64,
    ) -> TxId {
        let id = self.txs.len() as TxId;
        match self.block_spans.last() {
            Some(&(h, _)) if height < h => {
                panic!("add_tx at height {height} after height {h}: chain order must be height order")
            }
            Some(&(h, _)) if height == h => {}
            _ => self.block_spans.push((height, id)),
        }
        let is_coinbase = tx.is_coinbase();

        let mut inputs = Vec::with_capacity(if is_coinbase { 0 } else { tx.inputs.len() });
        if !is_coinbase {
            for input in &tx.inputs {
                let entry = utxos
                    .get(&input.prevout)
                    .expect("resolving tx with missing input; validate first");
                let prev_tx = *self
                    .txid_index
                    .get(&input.prevout.txid)
                    .expect("input references unknown txid");
                let address = self.intern(entry.address);
                inputs.push(ResolvedInput {
                    address,
                    value: entry.value,
                    prev_tx,
                    prev_vout: input.prevout.vout,
                });
                // Mark the spent output's backlink.
                let prev = &mut self.txs[prev_tx as usize];
                prev.outputs[input.prevout.vout as usize].spent_by = Some(id);
                self.spent_in[address as usize].push(id);
                self.note_seen(address, id);
            }
        }

        let mut outputs = Vec::with_capacity(tx.outputs.len());
        for out in &tx.outputs {
            let address = self.intern(out.address);
            outputs.push(ResolvedOutput { address, value: out.value, spent_by: None });
            self.received_in[address as usize].push(id);
            self.note_seen(address, id);
        }

        self.txid_index.insert(txid, id);
        self.txs.push(ResolvedTx { txid, height, time, is_coinbase, inputs, outputs });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{OutPoint, TxIn, TxOut};

    fn cb(tag: u64, value: Amount, addr: Address) -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxIn { prevout: OutPoint::null(), witness: tag.to_le_bytes().to_vec() }],
            outputs: vec![TxOut { value, address: addr }],
            lock_time: 0,
        }
    }

    #[test]
    fn resolves_inputs_and_backlinks() {
        let mut utxos = UtxoSet::new();
        let mut rc = ResolvedChain::new();
        let a = Address::from_seed(1);
        let b = Address::from_seed(2);

        let funding = cb(0, Amount::from_btc(50), a);
        rc.add_tx(&funding, &utxos, 0, 100);
        utxos.apply(&funding, 0);

        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: funding.txid(), vout: 0 })],
            outputs: vec![
                TxOut { value: Amount::from_btc(30), address: b },
                TxOut { value: Amount::from_btc(19), address: a },
            ],
            lock_time: 0,
        };
        rc.add_tx(&spend, &utxos, 1, 200);
        utxos.apply(&spend, 1);

        assert_eq!(rc.tx_count(), 2);
        assert_eq!(rc.address_count(), 2);
        let a_id = rc.address_id(&a).unwrap();
        let b_id = rc.address_id(&b).unwrap();

        // Input resolution.
        let spend_rtx = &rc.txs[1];
        assert_eq!(spend_rtx.inputs[0].address, a_id);
        assert_eq!(spend_rtx.inputs[0].value, Amount::from_btc(50));
        assert_eq!(spend_rtx.inputs[0].prev_tx, 0);
        assert_eq!(spend_rtx.fee(), Amount::from_btc(1));

        // Backlink on the funding output.
        assert_eq!(rc.txs[0].outputs[0].spent_by, Some(1));
        // b's output unspent.
        assert_eq!(rc.txs[1].outputs[0].spent_by, None);

        // Event lists.
        assert_eq!(rc.first_seen(a_id), 0);
        assert_eq!(rc.first_seen(b_id), 1);
        assert_eq!(rc.received_in(a_id), &[0, 1]);
        assert_eq!(rc.spent_in(a_id), &[1]);
        assert!(rc.is_sink(b_id));
        assert!(!rc.is_sink(a_id));
    }

    #[test]
    fn txid_lookup() {
        let mut utxos = UtxoSet::new();
        let mut rc = ResolvedChain::new();
        let funding = cb(7, Amount::from_btc(50), Address::from_seed(1));
        let id = rc.add_tx(&funding, &utxos, 0, 0);
        utxos.apply(&funding, 0);
        let (found, rtx) = rc.tx_by_txid(&funding.txid()).unwrap();
        assert_eq!(found, id);
        assert!(rtx.is_coinbase);
        assert!(rc.tx_by_txid(&Hash256::ZERO).is_none());
    }

    #[test]
    fn block_views_partition_the_chain() {
        let mut utxos = UtxoSet::new();
        let mut rc = ResolvedChain::new();
        let a = Address::from_seed(1);

        // Block 0: one coinbase. Block 1: coinbase + spend (two txs).
        let cb0 = cb(0, Amount::from_btc(50), a);
        rc.add_tx(&cb0, &utxos, 0, 0);
        utxos.apply(&cb0, 0);
        let cb1 = cb(1, Amount::from_btc(50), a);
        rc.add_tx(&cb1, &utxos, 1, 600);
        utxos.apply(&cb1, 1);
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: cb0.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(49), address: Address::from_seed(2) }],
            lock_time: 0,
        };
        rc.add_tx(&spend, &utxos, 1, 600);
        utxos.apply(&spend, 1);

        assert_eq!(rc.block_count(), 2);
        let b0 = rc.block(0);
        assert_eq!((b0.height(), b0.tx_start(), b0.tx_end()), (0, 0, 1));
        let b1 = rc.block(1);
        assert_eq!((b1.height(), b1.tx_start(), b1.tx_end()), (1, 1, 3));
        assert_eq!(b1.tx_count(), 2);
        // blocks() replays every tx exactly once, in chain order.
        let replayed: Vec<TxId> =
            rc.blocks().flat_map(|b| b.txs().map(|(t, _)| t).collect::<Vec<_>>()).collect();
        assert_eq!(replayed, vec![0, 1, 2]);
        assert!(rc.block(1).txs().all(|(t, tx)| rc.txs[t as usize].height == tx.height));
    }

    #[test]
    fn block_spans_cover_contiguous_ranges() {
        let mut utxos = UtxoSet::new();
        let mut rc = ResolvedChain::new();
        // Four single-coinbase blocks at heights 0..4.
        for i in 0..4u64 {
            let c = cb(i, Amount::from_btc(50), Address::from_seed(i + 1));
            rc.add_tx(&c, &utxos, i, i * 600);
            utxos.apply(&c, i);
        }

        let all = rc.block_span(0..4);
        assert_eq!((all.tx_start(), all.tx_end()), (0, 4));
        assert_eq!(all.block_count(), 4);
        assert_eq!(all.last_height(), Some(3));
        assert_eq!(all.txs().map(|(t, _)| t).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // Per-block views of the span agree with the chain's own.
        assert_eq!(all.blocks().map(|b| b.height()).collect::<Vec<_>>(), vec![0, 1, 2, 3]);

        let mid = rc.block_span(1..3);
        assert_eq!((mid.tx_start(), mid.tx_end()), (1, 3));
        assert_eq!(mid.last_height(), Some(2));

        // Spans of consecutive epochs partition the chain's transactions.
        let mut seen = Vec::new();
        for epoch in [0..2, 2..4] {
            seen.extend(rc.block_span(epoch).txs().map(|(t, _)| t));
        }
        assert_eq!(seen, vec![0, 1, 2, 3]);

        let empty = rc.block_span(2..2);
        assert_eq!(empty.tx_count(), 0);
        assert_eq!(empty.last_height(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_span_rejects_out_of_range() {
        let rc = ResolvedChain::new();
        let _ = rc.block_span(0..1);
    }

    #[test]
    #[should_panic(expected = "chain order must be height order")]
    fn add_tx_rejects_decreasing_heights() {
        let utxos = UtxoSet::new();
        let mut rc = ResolvedChain::new();
        let funding = cb(7, Amount::from_btc(50), Address::from_seed(1));
        rc.add_tx(&funding, &utxos, 5, 0);
        let funding2 = cb(8, Amount::from_btc(50), Address::from_seed(2));
        rc.add_tx(&funding2, &utxos, 4, 0);
    }

    #[test]
    fn coinbase_has_no_inputs() {
        let utxos = UtxoSet::new();
        let mut rc = ResolvedChain::new();
        let funding = cb(7, Amount::from_btc(50), Address::from_seed(1));
        rc.add_tx(&funding, &utxos, 0, 0);
        assert!(rc.txs[0].inputs.is_empty());
        assert_eq!(rc.txs[0].fee(), Amount::ZERO);
    }
}
