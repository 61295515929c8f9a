//! The unspent-transaction-output set.

use crate::address::Address;
use crate::amount::Amount;
use crate::transaction::{OutPoint, Transaction};
use fistful_crypto::hash::Hash256;
use std::collections::HashMap;

/// Metadata for one unspent output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UtxoEntry {
    /// The value of the output.
    pub value: Amount,
    /// The owning address.
    pub address: Address,
    /// The height of the block that created it.
    pub height: u64,
    /// True if created by a coinbase (subject to maturity).
    pub coinbase: bool,
}

/// The set of all unspent outputs.
#[derive(Clone, Default)]
pub struct UtxoSet {
    entries: HashMap<OutPoint, UtxoEntry>,
}

impl UtxoSet {
    /// An empty set.
    pub fn new() -> UtxoSet {
        UtxoSet { entries: HashMap::new() }
    }

    /// Looks up an unspent output.
    pub fn get(&self, op: &OutPoint) -> Option<&UtxoEntry> {
        self.entries.get(op)
    }

    /// True if the outpoint is unspent.
    pub fn contains(&self, op: &OutPoint) -> bool {
        self.entries.contains_key(op)
    }

    /// Number of unspent outputs.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total value of all unspent outputs.
    pub fn total_value(&self) -> Amount {
        self.entries.values().map(|e| e.value).sum()
    }

    /// Applies a validated transaction: removes its inputs, inserts its
    /// outputs. Returns the consumed entries (for undo / fee computation).
    ///
    /// Panics if an input is not present — validation must run first.
    pub fn apply(&mut self, tx: &Transaction, height: u64) -> Vec<UtxoEntry> {
        self.apply_with_txid(tx, tx.txid(), height)
    }

    /// [`apply`](Self::apply) for a transaction whose `txid` the caller
    /// already computed.
    pub(crate) fn apply_with_txid(
        &mut self,
        tx: &Transaction,
        txid: Hash256,
        height: u64,
    ) -> Vec<UtxoEntry> {
        let mut consumed = Vec::with_capacity(tx.inputs.len());
        if !tx.is_coinbase() {
            for input in &tx.inputs {
                let entry = self
                    .entries
                    .remove(&input.prevout)
                    .expect("applying tx with missing input; validate first");
                consumed.push(entry);
            }
        }
        let coinbase = tx.is_coinbase();
        for (vout, output) in tx.outputs.iter().enumerate() {
            self.entries.insert(
                OutPoint { txid, vout: vout as u32 },
                UtxoEntry {
                    value: output.value,
                    address: output.address,
                    height,
                    coinbase,
                },
            );
        }
        consumed
    }

    /// Reverses [`apply`](Self::apply): removes the transaction's outputs
    /// and restores the consumed entries.
    pub fn undo(&mut self, tx: &Transaction, consumed: &[UtxoEntry]) {
        let txid = tx.txid();
        for vout in 0..tx.outputs.len() {
            self.entries.remove(&OutPoint { txid, vout: vout as u32 });
        }
        if !tx.is_coinbase() {
            assert_eq!(consumed.len(), tx.inputs.len(), "undo data mismatch");
            for (input, entry) in tx.inputs.iter().zip(consumed) {
                self.entries.insert(input.prevout, *entry);
            }
        }
    }

    /// Iterates over all entries (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&OutPoint, &UtxoEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transaction::{TxIn, TxOut};
    use fistful_crypto::sha256::sha256d;

    fn coinbase_tx(tag: u64, value: Amount, addr: Address) -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxIn { prevout: OutPoint::null(), witness: tag.to_le_bytes().to_vec() }],
            outputs: vec![TxOut { value, address: addr }],
            lock_time: 0,
        }
    }

    #[test]
    fn apply_inserts_outputs() {
        let mut set = UtxoSet::new();
        let tx = coinbase_tx(0, Amount::from_btc(50), Address::from_seed(1));
        set.apply(&tx, 0);
        assert_eq!(set.len(), 1);
        let op = OutPoint { txid: tx.txid(), vout: 0 };
        let entry = set.get(&op).unwrap();
        assert_eq!(entry.value, Amount::from_btc(50));
        assert!(entry.coinbase);
        assert_eq!(set.total_value(), Amount::from_btc(50));
    }

    #[test]
    fn spend_removes_inputs() {
        let mut set = UtxoSet::new();
        let cb = coinbase_tx(0, Amount::from_btc(50), Address::from_seed(1));
        set.apply(&cb, 0);
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: cb.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(2) }],
            lock_time: 0,
        };
        let consumed = set.apply(&spend, 1);
        assert_eq!(consumed.len(), 1);
        assert!(!set.contains(&OutPoint { txid: cb.txid(), vout: 0 }));
        assert!(set.contains(&OutPoint { txid: spend.txid(), vout: 0 }));
        let entry = set.get(&OutPoint { txid: spend.txid(), vout: 0 }).unwrap();
        assert!(!entry.coinbase);
        assert_eq!(entry.height, 1);
    }

    #[test]
    fn undo_restores_previous_state() {
        let mut set = UtxoSet::new();
        let cb = coinbase_tx(0, Amount::from_btc(50), Address::from_seed(1));
        set.apply(&cb, 0);
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: cb.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(49), address: Address::from_seed(2) }],
            lock_time: 0,
        };
        let before: Amount = set.total_value();
        let consumed = set.apply(&spend, 1);
        set.undo(&spend, &consumed);
        assert_eq!(set.len(), 1);
        assert_eq!(set.total_value(), before);
        assert!(set.contains(&OutPoint { txid: cb.txid(), vout: 0 }));
    }

    #[test]
    #[should_panic(expected = "missing input")]
    fn apply_missing_input_panics() {
        let mut set = UtxoSet::new();
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: sha256d(b"nope"), vout: 0 })],
            outputs: vec![],
            lock_time: 0,
        };
        set.apply(&spend, 0);
    }
}
