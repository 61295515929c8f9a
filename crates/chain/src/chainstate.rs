//! The chain manager: accepts blocks, maintains the UTXO set and the
//! resolved analysis view.

use crate::amount::Amount;
use crate::block::Block;
use crate::params::Params;
use crate::resolve::ResolvedChain;
use crate::utxo::UtxoSet;
use crate::validate::{check_block_txids, ValidationError};
use fistful_crypto::hash::Hash256;

/// A validated, linear chain of blocks with derived state.
///
/// `ChainState` owns consensus state (UTXO set, tip) and the
/// [`ResolvedChain`] view that the clustering and flow crates consume. Forks
/// are the network simulator's concern; `ChainState` models the settled
/// chain the paper's analysis downloads.
pub struct ChainState {
    params: Params,
    headers: Vec<(Hash256, u64)>, // (block hash, tx count)
    utxos: UtxoSet,
    resolved: ResolvedChain,
    total_fees: Amount,
}

impl ChainState {
    /// An empty chain with the given parameters.
    pub fn new(params: Params) -> ChainState {
        ChainState {
            params,
            headers: Vec::new(),
            utxos: UtxoSet::new(),
            resolved: ResolvedChain::new(),
            total_fees: Amount::ZERO,
        }
    }

    /// The consensus parameters.
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Height of the tip, or `None` before genesis.
    pub fn height(&self) -> Option<u64> {
        (self.headers.len() as u64).checked_sub(1)
    }

    /// The height the next block will occupy.
    pub fn next_height(&self) -> u64 {
        self.headers.len() as u64
    }

    /// Subsidy for the next block.
    pub fn next_subsidy(&self) -> Amount {
        self.params.subsidy_at(self.next_height())
    }

    /// Hash of the tip block (all-zero before genesis).
    pub fn tip_hash(&self) -> Hash256 {
        self.headers.last().map(|(h, _)| *h).unwrap_or(Hash256::ZERO)
    }

    /// The UTXO set.
    pub fn utxos(&self) -> &UtxoSet {
        &self.utxos
    }

    /// The resolved analysis view.
    pub fn resolved(&self) -> &ResolvedChain {
        &self.resolved
    }

    /// Consumes the chain state, returning the resolved view.
    pub fn into_resolved(self) -> ResolvedChain {
        self.resolved
    }

    /// Cumulative fees across all accepted blocks.
    pub fn total_fees(&self) -> Amount {
        self.total_fees
    }

    /// Validates and applies a block on top of the current tip.
    pub fn accept_block(&mut self, block: Block) -> Result<(), ValidationError> {
        let height = self.next_height();
        let tip = self.tip_hash();
        let (fees, txids) = check_block_txids(&block, &tip, &self.utxos, height, &self.params)?;
        for (tx, &txid) in block.transactions.iter().zip(&txids) {
            self.resolved.add_tx_with_txid(tx, txid, &self.utxos, height, block.header.time);
            self.utxos.apply_with_txid(tx, txid, height);
        }
        self.total_fees = self
            .total_fees
            .checked_add(fees)
            .expect("fee accumulation overflow");
        self.headers.push((block.hash(), block.transactions.len() as u64));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::builder::{BlockBuilder, TransactionBuilder};
    use crate::transaction::OutPoint;

    #[test]
    fn genesis_and_extension() {
        let params = Params::regtest();
        let mut chain = ChainState::new(params.clone());
        assert_eq!(chain.height(), None);
        assert_eq!(chain.tip_hash(), Hash256::ZERO);

        let miner = Address::from_seed(1);
        let b0 = BlockBuilder::new(&params)
            .coinbase_to(miner, 0, chain.next_subsidy())
            .build_on(&chain);
        chain.accept_block(b0).unwrap();
        assert_eq!(chain.height(), Some(0));
        assert_eq!(chain.utxos().total_value(), Amount::from_btc(50));

        let b1 = BlockBuilder::new(&params)
            .coinbase_to(miner, 1, chain.next_subsidy())
            .build_on(&chain);
        chain.accept_block(b1).unwrap();
        assert_eq!(chain.height(), Some(1));
        assert_eq!(chain.resolved().tx_count(), 2);
    }

    #[test]
    fn rejects_disconnected_block() {
        let params = Params::regtest();
        let mut chain = ChainState::new(params.clone());
        let miner = Address::from_seed(1);
        let b0 = BlockBuilder::new(&params)
            .coinbase_to(miner, 0, chain.next_subsidy())
            .build_on(&chain);
        let b0_again = b0.clone();
        chain.accept_block(b0).unwrap();
        // Re-submitting the same block no longer connects.
        assert!(chain.accept_block(b0_again).is_err());
    }

    #[test]
    fn full_spend_cycle_with_fees() {
        let params = Params::regtest();
        let mut chain = ChainState::new(params.clone());
        let miner = Address::from_seed(1);
        let user = Address::from_seed(2);

        let b0 = BlockBuilder::new(&params)
            .coinbase_to(miner, 0, chain.next_subsidy())
            .build_on(&chain);
        let cb_txid = b0.transactions[0].txid();
        chain.accept_block(b0).unwrap();

        // Miner pays user 30, takes 19.9 change, fee 0.1.
        let tx = TransactionBuilder::new()
            .input(OutPoint { txid: cb_txid, vout: 0 })
            .output(user, Amount::from_btc(30))
            .output(miner, Amount::from_sat(19_90000000))
            .build_unsigned();
        let fee_claim = chain
            .next_subsidy()
            .checked_add(Amount::from_sat(10000000))
            .unwrap();
        let b1 = BlockBuilder::new(&params)
            .coinbase_to(miner, 1, fee_claim)
            .tx(tx)
            .build_on(&chain);
        chain.accept_block(b1).unwrap();
        assert_eq!(chain.total_fees(), Amount::from_sat(10000000));
        assert_eq!(chain.resolved().tx_count(), 3);
        // Total supply = 2 subsidies (fees recirculate to the miner).
        assert_eq!(chain.utxos().total_value(), Amount::from_btc(100));
    }
}
