//! Consensus validation of transactions and blocks.

use crate::amount::{Amount, MAX_MONEY};
use crate::block::Block;
use crate::merkle::merkle_root;
use crate::params::Params;
use crate::transaction::{OutPoint, Transaction};
use crate::utxo::{UtxoEntry, UtxoSet};
use fistful_crypto::hash::Hash256;
use std::collections::{HashMap, HashSet};

/// Reasons a transaction or block is rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A transaction has no inputs.
    NoInputs,
    /// A transaction has no outputs.
    NoOutputs,
    /// An output value exceeds `MAX_MONEY` or the outputs overflow.
    OutputValueOutOfRange,
    /// The same outpoint is spent twice within one transaction.
    DuplicateInput(OutPoint),
    /// A non-coinbase transaction has a null-prevout input.
    UnexpectedNullPrevout,
    /// An input spends an outpoint not in the UTXO set.
    MissingInput(OutPoint),
    /// Inputs are worth less than outputs.
    InsufficientInputValue {
        /// Total value of the spent inputs.
        inputs: Amount,
        /// Total value of the created outputs.
        outputs: Amount,
    },
    /// A coinbase output is spent before maturity.
    ImmatureCoinbaseSpend {
        /// Height at which the coinbase was created.
        created: u64,
        /// Height at which the spend was attempted.
        spent: u64,
    },
    /// An ECDSA witness failed verification.
    BadSignature {
        /// Index of the offending input within the transaction.
        input_index: usize,
    },
    /// The block has no transactions.
    EmptyBlock,
    /// The first transaction is not a coinbase.
    FirstNotCoinbase,
    /// A non-first transaction is a coinbase.
    ExtraCoinbase,
    /// The header's merkle root does not match the transactions.
    BadMerkleRoot,
    /// The block hash misses the proof-of-work target.
    BadProofOfWork,
    /// The header does not connect to the current tip.
    BadPrevHash {
        /// The tip hash the header was required to reference.
        expected: Hash256,
        /// The previous-block hash the header actually carried.
        got: Hash256,
    },
    /// The coinbase claims more than subsidy + fees.
    ExcessiveCoinbase {
        /// Value the coinbase outputs claimed.
        claimed: Amount,
        /// Maximum allowed: block subsidy plus collected fees.
        allowed: Amount,
    },
    /// Two transactions in the same block spend the same outpoint.
    DoubleSpendInBlock(OutPoint),
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::NoInputs => write!(f, "transaction has no inputs"),
            ValidationError::NoOutputs => write!(f, "transaction has no outputs"),
            ValidationError::OutputValueOutOfRange => write!(f, "output value out of range"),
            ValidationError::DuplicateInput(op) => write!(f, "duplicate input {op:?}"),
            ValidationError::UnexpectedNullPrevout => write!(f, "null prevout outside coinbase"),
            ValidationError::MissingInput(op) => write!(f, "missing input {op:?}"),
            ValidationError::InsufficientInputValue { inputs, outputs } => {
                write!(f, "inputs {inputs} < outputs {outputs}")
            }
            ValidationError::ImmatureCoinbaseSpend { created, spent } => {
                write!(f, "coinbase from height {created} spent at {spent}")
            }
            ValidationError::BadSignature { input_index } => {
                write!(f, "bad signature on input {input_index}")
            }
            ValidationError::EmptyBlock => write!(f, "block has no transactions"),
            ValidationError::FirstNotCoinbase => write!(f, "first tx is not a coinbase"),
            ValidationError::ExtraCoinbase => write!(f, "unexpected extra coinbase"),
            ValidationError::BadMerkleRoot => write!(f, "merkle root mismatch"),
            ValidationError::BadProofOfWork => write!(f, "proof of work below target"),
            ValidationError::BadPrevHash { expected, got } => {
                write!(f, "prev hash {got} does not match tip {expected}")
            }
            ValidationError::ExcessiveCoinbase { claimed, allowed } => {
                write!(f, "coinbase claims {claimed}, allowed {allowed}")
            }
            ValidationError::DoubleSpendInBlock(op) => {
                write!(f, "double spend within block: {op:?}")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// Context-free ("syntactic") transaction checks.
pub fn check_transaction(tx: &Transaction) -> Result<(), ValidationError> {
    if tx.inputs.is_empty() {
        return Err(ValidationError::NoInputs);
    }
    if tx.outputs.is_empty() {
        return Err(ValidationError::NoOutputs);
    }
    let mut total = Amount::ZERO;
    for out in &tx.outputs {
        if out.value.to_sat() > MAX_MONEY {
            return Err(ValidationError::OutputValueOutOfRange);
        }
        total = total
            .checked_add(out.value)
            .filter(|t| t.to_sat() <= MAX_MONEY)
            .ok_or(ValidationError::OutputValueOutOfRange)?;
    }
    let mut seen = HashSet::with_capacity(tx.inputs.len());
    for input in &tx.inputs {
        if !tx.is_coinbase() {
            if input.prevout.is_null() {
                return Err(ValidationError::UnexpectedNullPrevout);
            }
            if !seen.insert(input.prevout) {
                return Err(ValidationError::DuplicateInput(input.prevout));
            }
        }
    }
    Ok(())
}

/// Contextual transaction checks against the UTXO set. Returns the fee.
pub fn check_tx_inputs(
    tx: &Transaction,
    utxos: &UtxoSet,
    height: u64,
    params: &Params,
) -> Result<Amount, ValidationError> {
    check_inputs_with(tx, |op| utxos.get(op), height, params)
}

/// [`check_tx_inputs`] against any outpoint lookup.
fn check_inputs_with<'u>(
    tx: &Transaction,
    lookup: impl Fn(&OutPoint) -> Option<&'u UtxoEntry>,
    height: u64,
    params: &Params,
) -> Result<Amount, ValidationError> {
    if tx.is_coinbase() {
        return Ok(Amount::ZERO);
    }
    let mut input_value = Amount::ZERO;
    for (i, input) in tx.inputs.iter().enumerate() {
        let entry = lookup(&input.prevout).ok_or(ValidationError::MissingInput(input.prevout))?;
        if entry.coinbase && height < entry.height + params.coinbase_maturity {
            return Err(ValidationError::ImmatureCoinbaseSpend {
                created: entry.height,
                spent: height,
            });
        }
        if params.verify_signatures && !tx.verify_input(i, &entry.address) {
            return Err(ValidationError::BadSignature { input_index: i });
        }
        input_value = input_value
            .checked_add(entry.value)
            .ok_or(ValidationError::OutputValueOutOfRange)?;
    }
    let output_value = tx
        .output_value()
        .ok_or(ValidationError::OutputValueOutOfRange)?;
    if input_value < output_value {
        return Err(ValidationError::InsufficientInputValue {
            inputs: input_value,
            outputs: output_value,
        });
    }
    Ok(input_value.checked_sub(output_value).unwrap())
}

/// Full block validation against the current tip and UTXO set.
///
/// Checks structure, merkle commitment, proof-of-work (if enabled),
/// connection to `prev_hash`, per-transaction rules, in-block double spends
/// and the coinbase value ceiling. Returns total fees.
pub fn check_block(
    block: &Block,
    prev_hash: &Hash256,
    utxos: &UtxoSet,
    height: u64,
    params: &Params,
) -> Result<Amount, ValidationError> {
    check_block_txids(block, prev_hash, utxos, height, params).map(|(fees, _)| fees)
}

/// [`check_block`], also returning the txid of every transaction in block
/// order. Each transaction is hashed once; the ids serve the merkle check
/// here and let [`ChainState::accept_block`](crate::chainstate::ChainState)
/// apply the block without hashing again.
pub(crate) fn check_block_txids(
    block: &Block,
    prev_hash: &Hash256,
    utxos: &UtxoSet,
    height: u64,
    params: &Params,
) -> Result<(Amount, Vec<Hash256>), ValidationError> {
    if block.transactions.is_empty() {
        return Err(ValidationError::EmptyBlock);
    }
    if !block.transactions[0].is_coinbase() {
        return Err(ValidationError::FirstNotCoinbase);
    }
    if block.transactions[1..].iter().any(|t| t.is_coinbase()) {
        return Err(ValidationError::ExtraCoinbase);
    }
    let txids: Vec<Hash256> = block.transactions.iter().map(|t| t.txid()).collect();
    if block.header.merkle_root != merkle_root(&txids) {
        return Err(ValidationError::BadMerkleRoot);
    }
    if params.verify_pow && !block.header.meets_target(&params.pow_target) {
        return Err(ValidationError::BadProofOfWork);
    }
    if block.header.prev_hash != *prev_hash {
        return Err(ValidationError::BadPrevHash {
            expected: *prev_hash,
            got: block.header.prev_hash,
        });
    }

    // Per-transaction checks. Later transactions may spend outputs created
    // earlier in the same block, so those outputs go into an overlay that
    // lookups try before the caller's set. Spent outpoints need no removal:
    // `spent_in_block` rejects a second spend before any lookup.
    let mut created: HashMap<OutPoint, UtxoEntry> = HashMap::new();
    let mut spent_in_block: HashSet<OutPoint> = HashSet::new();
    let mut total_fees = Amount::ZERO;
    for (tx, &txid) in block.transactions.iter().zip(&txids) {
        check_transaction(tx)?;
        if !tx.is_coinbase() {
            for input in &tx.inputs {
                if !spent_in_block.insert(input.prevout) {
                    return Err(ValidationError::DoubleSpendInBlock(input.prevout));
                }
            }
        }
        let lookup = |op: &OutPoint| created.get(op).or_else(|| utxos.get(op));
        let fee = check_inputs_with(tx, lookup, height, params)?;
        total_fees = total_fees
            .checked_add(fee)
            .ok_or(ValidationError::OutputValueOutOfRange)?;
        let coinbase = tx.is_coinbase();
        for (vout, out) in tx.outputs.iter().enumerate() {
            created.insert(
                OutPoint { txid, vout: vout as u32 },
                UtxoEntry { value: out.value, address: out.address, height, coinbase },
            );
        }
    }

    // Coinbase value ceiling: subsidy + fees.
    let allowed = params
        .subsidy_at(height)
        .checked_add(total_fees)
        .ok_or(ValidationError::OutputValueOutOfRange)?;
    let claimed = block.transactions[0]
        .output_value()
        .ok_or(ValidationError::OutputValueOutOfRange)?;
    if claimed > allowed {
        return Err(ValidationError::ExcessiveCoinbase { claimed, allowed });
    }
    Ok((total_fees, txids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::block::BlockHeader;
    use crate::transaction::{TxIn, TxOut};
    use fistful_crypto::sha256::sha256d;

    fn cb(height: u64, value: Amount) -> Transaction {
        Transaction {
            version: 1,
            inputs: vec![TxIn {
                prevout: OutPoint::null(),
                witness: height.to_le_bytes().to_vec(),
            }],
            outputs: vec![TxOut { value, address: Address::from_seed(height) }],
            lock_time: 0,
        }
    }

    fn block_with(txs: Vec<Transaction>, prev: Hash256, time: u64) -> Block {
        let mut b = Block {
            header: BlockHeader {
                version: 1,
                prev_hash: prev,
                merkle_root: Hash256::ZERO,
                time,
                nonce: 0,
            },
            transactions: txs,
        };
        b.header.merkle_root = b.computed_merkle_root();
        b
    }

    fn params() -> Params {
        Params::regtest()
    }

    #[test]
    fn syntactic_rules() {
        let mut tx = cb(0, Amount::from_btc(50));
        assert!(check_transaction(&tx).is_ok());
        tx.outputs.clear();
        assert_eq!(check_transaction(&tx), Err(ValidationError::NoOutputs));
        let no_inputs = Transaction { version: 1, inputs: vec![], outputs: vec![], lock_time: 0 };
        assert_eq!(check_transaction(&no_inputs), Err(ValidationError::NoInputs));
    }

    #[test]
    fn rejects_duplicate_inputs() {
        let op = OutPoint { txid: sha256d(b"x"), vout: 0 };
        let tx = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(op), TxIn::unsigned(op)],
            outputs: vec![TxOut { value: Amount(1), address: Address::from_seed(1) }],
            lock_time: 0,
        };
        assert_eq!(check_transaction(&tx), Err(ValidationError::DuplicateInput(op)));
    }

    #[test]
    fn rejects_oversized_output() {
        let tx = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: sha256d(b"x"), vout: 0 })],
            outputs: vec![TxOut { value: Amount(MAX_MONEY + 1), address: Address::from_seed(1) }],
            lock_time: 0,
        };
        assert_eq!(check_transaction(&tx), Err(ValidationError::OutputValueOutOfRange));
    }

    #[test]
    fn good_block_accepted() {
        let p = params();
        let utxos = UtxoSet::new();
        let b = block_with(vec![cb(0, Amount::from_btc(50))], Hash256::ZERO, p.time_at(0));
        assert_eq!(check_block(&b, &Hash256::ZERO, &utxos, 0, &p), Ok(Amount::ZERO));
    }

    #[test]
    fn rejects_bad_merkle() {
        let p = params();
        let mut b = block_with(vec![cb(0, Amount::from_btc(50))], Hash256::ZERO, p.time_at(0));
        b.header.merkle_root = sha256d(b"wrong");
        assert_eq!(
            check_block(&b, &Hash256::ZERO, &UtxoSet::new(), 0, &p),
            Err(ValidationError::BadMerkleRoot)
        );
    }

    #[test]
    fn rejects_excessive_coinbase() {
        let p = params();
        let b = block_with(vec![cb(0, Amount::from_btc(51))], Hash256::ZERO, p.time_at(0));
        assert!(matches!(
            check_block(&b, &Hash256::ZERO, &UtxoSet::new(), 0, &p),
            Err(ValidationError::ExcessiveCoinbase { .. })
        ));
    }

    #[test]
    fn rejects_wrong_prev_hash() {
        let p = params();
        let b = block_with(vec![cb(0, Amount::from_btc(50))], sha256d(b"fork"), p.time_at(0));
        assert!(matches!(
            check_block(&b, &Hash256::ZERO, &UtxoSet::new(), 0, &p),
            Err(ValidationError::BadPrevHash { .. })
        ));
    }

    #[test]
    fn rejects_first_not_coinbase_and_extra_coinbase() {
        let p = params();
        let mut utxos = UtxoSet::new();
        let funding = cb(0, Amount::from_btc(50));
        utxos.apply(&funding, 0);
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: funding.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(9) }],
            lock_time: 0,
        };
        let b = block_with(vec![spend.clone()], Hash256::ZERO, p.time_at(1));
        assert_eq!(
            check_block(&b, &Hash256::ZERO, &utxos, 1, &p),
            Err(ValidationError::FirstNotCoinbase)
        );
        let b2 = block_with(vec![cb(1, Amount::from_btc(50)), cb(2, Amount::from_btc(50))],
                            Hash256::ZERO, p.time_at(1));
        assert_eq!(
            check_block(&b2, &Hash256::ZERO, &utxos, 1, &p),
            Err(ValidationError::ExtraCoinbase)
        );
    }

    #[test]
    fn spend_within_block_allowed_double_spend_rejected() {
        let p = params();
        let mut utxos = UtxoSet::new();
        let funding = cb(0, Amount::from_btc(50));
        utxos.apply(&funding, 0);
        let op = OutPoint { txid: funding.txid(), vout: 0 };
        let spend1 = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(op)],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(2) }],
            lock_time: 0,
        };
        // Chained spend of spend1's output inside the same block: allowed.
        let spend2 = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: spend1.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(3) }],
            lock_time: 0,
        };
        let good = block_with(
            vec![cb(1, Amount::from_btc(50)), spend1.clone(), spend2],
            Hash256::ZERO,
            p.time_at(1),
        );
        assert!(check_block(&good, &Hash256::ZERO, &utxos, 1, &p).is_ok());

        // Same outpoint spent by two txs: rejected.
        let conflict = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(op)],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(4) }],
            lock_time: 0,
        };
        let bad = block_with(
            vec![cb(1, Amount::from_btc(50)), spend1, conflict],
            Hash256::ZERO,
            p.time_at(1),
        );
        assert_eq!(
            check_block(&bad, &Hash256::ZERO, &utxos, 1, &p),
            Err(ValidationError::DoubleSpendInBlock(op))
        );
    }

    /// Sorted copy of a UTXO set, for before/after comparisons.
    fn snapshot(utxos: &UtxoSet) -> Vec<(OutPoint, UtxoEntry)> {
        let mut v: Vec<_> = utxos.iter().map(|(op, e)| (*op, *e)).collect();
        v.sort_by_key(|(op, _)| (op.txid, op.vout));
        v
    }

    #[test]
    fn overlay_rejects_spend_of_output_created_later_in_block() {
        let p = params();
        let mut utxos = UtxoSet::new();
        let funding = cb(0, Amount::from_btc(50));
        utxos.apply(&funding, 0);
        let creator = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: funding.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(2) }],
            lock_time: 0,
        };
        let later_op = OutPoint { txid: creator.txid(), vout: 0 };
        let spender = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(later_op)],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(3) }],
            lock_time: 0,
        };
        // The spender comes first; the output it spends appears after it.
        let b = block_with(
            vec![cb(1, Amount::from_btc(50)), spender, creator],
            Hash256::ZERO,
            p.time_at(1),
        );
        assert_eq!(
            check_block(&b, &Hash256::ZERO, &utxos, 1, &p),
            Err(ValidationError::MissingInput(later_op))
        );
    }

    #[test]
    fn overlay_keeps_coinbase_flag_for_same_block_spend() {
        let mut p = params();
        p.coinbase_maturity = 1;
        let coinbase = cb(3, Amount::from_btc(50));
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: coinbase.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(2) }],
            lock_time: 0,
        };
        let b = block_with(vec![coinbase, spend], Hash256::ZERO, p.time_at(3));
        assert_eq!(
            check_block(&b, &Hash256::ZERO, &UtxoSet::new(), 3, &p),
            Err(ValidationError::ImmatureCoinbaseSpend { created: 3, spent: 3 })
        );
        // Without a maturity rule the same block is valid.
        p.coinbase_maturity = 0;
        assert!(check_block(&b, &Hash256::ZERO, &UtxoSet::new(), 3, &p).is_ok());
    }

    #[test]
    fn check_block_leaves_callers_utxo_set_unchanged() {
        let p = params();
        let mut utxos = UtxoSet::new();
        let funding = cb(0, Amount::from_btc(50));
        utxos.apply(&funding, 0);
        let before = snapshot(&utxos);
        let op = OutPoint { txid: funding.txid(), vout: 0 };
        let spend = |seed| Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(op)],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(seed) }],
            lock_time: 0,
        };
        let good = block_with(vec![cb(1, Amount::from_btc(50)), spend(2)], Hash256::ZERO,
                              p.time_at(1));
        assert!(check_block(&good, &Hash256::ZERO, &utxos, 1, &p).is_ok());
        assert_eq!(snapshot(&utxos), before, "after an accepted block");
        let bad = block_with(vec![cb(1, Amount::from_btc(50)), spend(2), spend(3)],
                             Hash256::ZERO, p.time_at(1));
        assert_eq!(
            check_block(&bad, &Hash256::ZERO, &utxos, 1, &p),
            Err(ValidationError::DoubleSpendInBlock(op))
        );
        assert_eq!(snapshot(&utxos), before, "after a rejected block");
    }

    #[test]
    fn fees_flow_to_coinbase_ceiling() {
        let p = params();
        let mut utxos = UtxoSet::new();
        let funding = cb(0, Amount::from_btc(50));
        utxos.apply(&funding, 0);
        // Spend 50, output 49 → fee 1.
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: funding.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(49), address: Address::from_seed(2) }],
            lock_time: 0,
        };
        // Coinbase claims subsidy + fee = 51: allowed.
        let b = block_with(vec![cb(1, Amount::from_btc(51)), spend.clone()], Hash256::ZERO,
                           p.time_at(1));
        assert_eq!(check_block(&b, &Hash256::ZERO, &utxos, 1, &p), Ok(Amount::from_btc(1)));
        // Claiming 52 is rejected.
        let b2 = block_with(vec![cb(1, Amount::from_btc(52)), spend], Hash256::ZERO, p.time_at(1));
        assert!(matches!(
            check_block(&b2, &Hash256::ZERO, &utxos, 1, &p),
            Err(ValidationError::ExcessiveCoinbase { .. })
        ));
    }

    #[test]
    fn coinbase_maturity_enforced() {
        let mut p = params();
        p.coinbase_maturity = 100;
        let mut utxos = UtxoSet::new();
        let funding = cb(0, Amount::from_btc(50));
        utxos.apply(&funding, 0);
        let spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: funding.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: Address::from_seed(2) }],
            lock_time: 0,
        };
        assert!(matches!(
            check_tx_inputs(&spend, &utxos, 50, &p),
            Err(ValidationError::ImmatureCoinbaseSpend { .. })
        ));
        assert!(check_tx_inputs(&spend, &utxos, 100, &p).is_ok());
    }

    #[test]
    fn signature_validation_when_enabled() {
        use fistful_crypto::keys::KeyPair;
        let mut p = params();
        p.verify_signatures = true;
        let key = KeyPair::from_seed(11);
        let addr = Address::from_public_key(key.public());
        let mut utxos = UtxoSet::new();
        let funding = Transaction {
            version: 1,
            inputs: vec![TxIn { prevout: OutPoint::null(), witness: vec![1] }],
            outputs: vec![TxOut { value: Amount::from_btc(50), address: addr }],
            lock_time: 0,
        };
        utxos.apply(&funding, 0);
        let mut spend = Transaction {
            version: 1,
            inputs: vec![TxIn::unsigned(OutPoint { txid: funding.txid(), vout: 0 })],
            outputs: vec![TxOut { value: Amount::from_btc(49), address: Address::from_seed(3) }],
            lock_time: 0,
        };
        // Unsigned fails.
        assert!(matches!(
            check_tx_inputs(&spend, &utxos, 1, &p),
            Err(ValidationError::BadSignature { input_index: 0 })
        ));
        // Signed passes.
        spend.sign_input(0, &key);
        assert_eq!(check_tx_inputs(&spend, &utxos, 1, &p), Ok(Amount::from_btc(1)));
        // Signed by the wrong key fails.
        let mut wrong = spend.clone();
        wrong.sign_input(0, &KeyPair::from_seed(12));
        assert!(matches!(
            check_tx_inputs(&wrong, &utxos, 1, &p),
            Err(ValidationError::BadSignature { input_index: 0 })
        ));
    }
}
