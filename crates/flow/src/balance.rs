//! Per-category balance time series — Figure 2 of the paper.
//!
//! "The balance of each major category, represented as a percentage of
//! total active bitcoins; i.e., the bitcoins that are not held in sink
//! addresses." A *sink* address is one that has never spent (over the
//! whole observation window).

use crate::categories::ServiceResolver;
use fistful_chain::amount::Amount;
use fistful_chain::resolve::{AddressId, ResolvedChain};
use std::collections::BTreeMap;

/// One sampled point of the balance series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BalancePoint {
    /// Block height of the sample.
    pub height: u64,
    /// Unix time of the sample.
    pub time: u64,
    /// Balance per category (absolute).
    pub balances: BTreeMap<String, Amount>,
    /// Total supply at the sample.
    pub supply: Amount,
    /// Supply held by sink addresses at the sample.
    pub sink_held: Amount,
}

impl BalancePoint {
    /// Active supply: total minus sink-held.
    pub fn active(&self) -> Amount {
        self.supply.saturating_sub(self.sink_held)
    }

    /// A category's balance as a percentage of active supply.
    pub fn percent_of_active(&self, category: &str) -> f64 {
        let active = self.active().to_sat();
        if active == 0 {
            return 0.0;
        }
        let bal = self
            .balances
            .get(category)
            .copied()
            .unwrap_or(Amount::ZERO)
            .to_sat();
        bal as f64 * 100.0 / active as f64
    }
}

/// The last sampled point at or before `height`, or `None` when `height`
/// precedes the first sample.
///
/// `series` must be height-sorted, which [`balance_series`] guarantees
/// (it samples in chain order). This is the serving-path lookup behind the
/// query service's `BalancePoint` request: one binary search over the
/// precomputed series, no chain access.
pub fn point_at(series: &[BalancePoint], height: u64) -> Option<&BalancePoint> {
    let idx = series.partition_point(|p| p.height <= height);
    idx.checked_sub(1).map(|i| &series[i])
}

/// Computes the balance series, sampling every `every` blocks.
///
/// `directory` assigns addresses to categories — any
/// [`ServiceResolver`]: a live [`AddressDirectory`](crate::categories::AddressDirectory)
/// (cluster naming, as the paper did, or ground truth) or a frozen
/// [`ClusterSnapshot`](fistful_core::snapshot::ClusterSnapshot). Category
/// balances count only *active* coins — coins on addresses that spend at
/// some point in the window — making them directly comparable to the
/// active-supply denominator (sink-held coins are excluded from both).
pub fn balance_series(
    chain: &ResolvedChain,
    directory: &impl ServiceResolver,
    every: u64,
) -> Vec<BalancePoint> {
    balance_series_at(chain, chain.tx_count(), directory, every)
}

/// [`balance_series`] over only the first `tx_end` transactions of the
/// chain — the mid-ingest rebuild the live hot-swap pipeline runs at each
/// epoch publish.
///
/// Sink flags are scanned over the *prefix* window: an address whose only
/// spends sit at or past `tx_end` has never spent as far as this window
/// knows, exactly as if the chain ended there. With
/// `tx_end == chain.tx_count()` the result is identical to
/// [`balance_series`].
pub fn balance_series_at(
    chain: &ResolvedChain,
    tx_end: usize,
    directory: &impl ServiceResolver,
    every: u64,
) -> Vec<BalancePoint> {
    assert!(every > 0, "sampling interval must be positive");
    assert!(tx_end <= chain.tx_count(), "tx_end exceeds the chain");

    let (slots, names) = resolve_slots(chain, tx_end, directory);
    let mut sums: Vec<u64> = vec![0; names.len()]; // per category, in satoshis
    let mut seen: Vec<bool> = vec![false; names.len()];
    let mut supply: u64 = 0;
    let mut sink_held: u64 = 0;

    let mut out = Vec::new();
    let mut last_height: Option<u64> = None;

    // Strings are built only here, once per emitted sample. A category
    // credited once stays in every later sample, at 0 if it drained.
    let mut push_sample = |height: u64,
                           time: u64,
                           sums: &[u64],
                           seen: &[bool],
                           supply: u64,
                           sink_held: u64| {
        out.push(BalancePoint {
            height,
            time,
            balances: names
                .iter()
                .filter(|&&(_, c)| seen[c as usize])
                .map(|&(name, c)| (name.to_string(), Amount::from_sat(sums[c as usize])))
                .collect(),
            supply: Amount::from_sat(supply),
            sink_held: Amount::from_sat(sink_held),
        });
    };

    for tx in &chain.txs[..tx_end] {
        // Sample boundary crossings before applying this tx.
        if let Some(prev) = last_height {
            if tx.height / every != prev / every {
                push_sample(prev, tx.time, &sums, &seen, supply, sink_held);
            }
        }
        last_height = Some(tx.height);

        for input in &tx.inputs {
            let slot = slots[input.address as usize];
            let v = input.value.to_sat();
            supply -= v;
            debug_assert!(slot != SINK, "sinks never spend");
            if slot < UNCATEGORISED {
                let c = slot as usize;
                assert!(seen[c], "category seen before");
                sums[c] -= v;
            }
        }
        for out_ in &tx.outputs {
            let slot = slots[out_.address as usize];
            let v = out_.value.to_sat();
            supply += v;
            if slot == SINK {
                sink_held += v;
            } else if slot != UNCATEGORISED {
                sums[slot as usize] += v;
                seen[slot as usize] = true;
            }
        }
    }
    if let Some(h) = last_height {
        let t = chain.txs[..tx_end].last().map(|t| t.time).unwrap_or(0);
        push_sample(h, t, &sums, &seen, supply, sink_held);
    }
    out
}

/// [`resolve_slots`] slot of an address that never spends within the window.
const SINK: u32 = u32::MAX;
/// [`resolve_slots`] slot of a spending address without a category.
const UNCATEGORISED: u32 = u32::MAX - 1;

/// Resolves every address once, before the transaction loop: its slot is
/// [`SINK`], [`UNCATEGORISED`], or the index of its category. Also returns
/// the categories as `(name, index)` in name order.
///
/// Sink flags cover the window `..tx_end`: the per-address spend lists are
/// chain-ordered, so "no spend before `tx_end`" reads only the first entry.
/// Sinks are never looked up in `directory` — their receives count as
/// sink-held whatever their category.
fn resolve_slots<'d>(
    chain: &ResolvedChain,
    tx_end: usize,
    directory: &'d impl ServiceResolver,
) -> (Vec<u32>, Vec<(&'d str, u32)>) {
    let mut index: BTreeMap<&'d str, u32> = BTreeMap::new();
    let slots = (0..chain.address_count() as AddressId)
        .map(|a| {
            let spends = chain.spent_in(a).first().is_some_and(|&t| (t as usize) < tx_end);
            if !spends {
                return SINK;
            }
            match directory.category(a) {
                None => UNCATEGORISED,
                Some(cat) => {
                    let next = index.len() as u32;
                    *index.entry(cat).or_insert(next)
                }
            }
        })
        .collect();
    (slots, index.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::categories::AddressDirectory;
    use fistful_core::testutil::TestChain;
    use proptest::prelude::*;

    #[test]
    fn tracks_category_balances_over_time() {
        let mut t = TestChain::new();
        // addr 1 = "Mt. Gox" (exchange), addr 2 = user (uncategorized).
        let cb = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50);
        // Exchange pays 20 to the user at height 2, keeps 29 change at
        // address 3 (also Mt. Gox's).
        t.tx(&[(cb, 0)], &[(2, 20), (3, 29)]);

        let n = t.chain.address_count();
        let mut pairs = vec![(None, None); n];
        pairs[t.id(1) as usize] = (Some("Mt. Gox".into()), Some("exchange".into()));
        pairs[t.id(3) as usize] = (Some("Mt. Gox".into()), Some("exchange".into()));
        let dir = AddressDirectory::from_pairs(pairs);

        let series = balance_series(&t.chain, &dir, 1);
        assert!(!series.is_empty());
        let last = series.last().unwrap();
        // Address 3 never spends, so its 29 BTC is sink-held and excluded
        // from the category balance (consistent with the active-supply
        // denominator).
        assert_eq!(
            last.balances.get("exchange").copied().unwrap_or(Amount::ZERO),
            Amount::ZERO
        );
        assert!(last.sink_held >= Amount::from_btc(29));
        // Outputs sum to 49 vs 50 input: 1 BTC went to fees → supply 99.
        assert_eq!(last.supply, Amount::from_btc(99));
    }

    #[test]
    fn sink_exclusion() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50); // addr 2 never spends → sink
        t.tx(&[(cb1, 0)], &[(3, 50)]); // addr 3 never spends → sink too

        let dir = AddressDirectory::from_pairs(vec![(None, None); t.chain.address_count()]);
        let series = balance_series(&t.chain, &dir, 1);
        let last = series.last().unwrap();
        // addr 1 spent (not a sink); addrs 2, 3 are sinks holding 100.
        assert_eq!(last.sink_held, Amount::from_btc(100));
        assert_eq!(last.active(), Amount::ZERO);
    }

    #[test]
    fn percent_of_active() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let cb2 = t.coinbase(2, 50);
        // Both spend so neither is a sink; addr 1's funds move to 4 (gox),
        // addr 2's to 5 (user). 4 and 5 then churn once so they are not
        // sinks either.
        let t1 = t.tx(&[(cb1, 0)], &[(4, 50)]);
        let t2 = t.tx(&[(cb2, 0)], &[(5, 50)]);
        let _t3 = t.tx(&[(t1, 0)], &[(4, 25), (5, 25)]);
        let _t4 = t.tx(&[(t2, 0)], &[(5, 50)]);

        let n = t.chain.address_count();
        let mut pairs = vec![(None, None); n];
        pairs[t.id(4) as usize] = (Some("Mt. Gox".into()), Some("exchange".into()));
        let dir = AddressDirectory::from_pairs(pairs);
        let series = balance_series(&t.chain, &dir, 1);
        let last = series.last().unwrap();
        // Every address spent at least once, so nothing is a sink: active
        // supply is the full 100 BTC, of which Mt. Gox (addr 4) holds 25.
        assert_eq!(last.active(), Amount::from_btc(100));
        assert!((last.percent_of_active("exchange") - 25.0).abs() < 1e-9);
    }

    #[test]
    fn point_at_finds_the_sample_at_or_before_a_height() {
        let mut t = TestChain::new();
        let cb = t.coinbase(1, 50);
        t.tx(&[(cb, 0)], &[(2, 20), (3, 29)]);
        let dir = AddressDirectory::from_pairs(vec![(None, None); t.chain.address_count()]);
        let series = balance_series(&t.chain, &dir, 1);
        assert!(series.len() >= 2);

        let first = series.first().unwrap().height;
        let last = series.last().unwrap().height;
        assert!(point_at(&series, first.wrapping_sub(1)).is_none() || first == 0);
        assert_eq!(point_at(&series, first).unwrap().height, first);
        // Past the end clamps to the last sample.
        assert_eq!(point_at(&series, last + 1_000).unwrap().height, last);
        // Every sampled height finds exactly itself.
        for p in &series {
            assert_eq!(point_at(&series, p.height).unwrap().height, p.height);
        }
        assert!(point_at(&[], 5).is_none());
    }

    #[test]
    fn balance_series_at_prefix_rescans_sinks() {
        let mut t = TestChain::new();
        let cb1 = t.coinbase(1, 50);
        let _cb2 = t.coinbase(2, 50);
        t.tx(&[(cb1, 0)], &[(3, 50)]); // addr 1 spends only in tx 2
        let dir = AddressDirectory::from_pairs(vec![(None, None); t.chain.address_count()]);

        // Full prefix is byte-for-byte the whole-chain series.
        let full = balance_series(&t.chain, &dir, 1);
        assert_eq!(balance_series_at(&t.chain, t.chain.tx_count(), &dir, 1), full);

        // At the 2-tx prefix, address 1 has not spent yet: within that
        // window it is a sink holding its coinbase, unlike the whole-chain
        // view where its later spend disqualifies it.
        let prefix = balance_series_at(&t.chain, 2, &dir, 1);
        let last = prefix.last().unwrap();
        assert_eq!(last.sink_held, Amount::from_btc(100));
        assert_eq!(last.active(), Amount::ZERO);
        assert_eq!(last.supply, Amount::from_btc(100));

        // The empty prefix yields no samples at all.
        assert!(balance_series_at(&t.chain, 0, &dir, 1).is_empty());
    }

    /// Reference for [`balance_series_at`]: categories looked up per input
    /// and output in a `BTreeMap<String, _>`, with a per-address balance
    /// whose `-=` checks that no address spends more than it received.
    fn balance_series_at_oracle(
        chain: &ResolvedChain,
        tx_end: usize,
        directory: &impl ServiceResolver,
        every: u64,
    ) -> Vec<BalancePoint> {
        let n = chain.address_count();
        let sink: Vec<bool> = (0..n as AddressId)
            .map(|a| chain.spent_in(a).partition_point(|&t| (t as usize) < tx_end) == 0)
            .collect();
        let mut balances: Vec<u64> = vec![0; n];
        let mut per_category: BTreeMap<String, u64> = BTreeMap::new();
        let (mut supply, mut sink_held) = (0u64, 0u64);
        let mut out = Vec::new();
        let mut last: Option<(u64, u64)> = None; // (height, time)
        let sample = |height, time, per_category: &BTreeMap<String, u64>, supply, sink_held| {
            BalancePoint {
                height,
                time,
                balances: per_category
                    .iter()
                    .map(|(k, &v)| (k.clone(), Amount::from_sat(v)))
                    .collect(),
                supply: Amount::from_sat(supply),
                sink_held: Amount::from_sat(sink_held),
            }
        };
        for tx in &chain.txs[..tx_end] {
            if let Some((prev, _)) = last {
                if tx.height / every != prev / every {
                    out.push(sample(prev, tx.time, &per_category, supply, sink_held));
                }
            }
            last = Some((tx.height, tx.time));
            for input in &tx.inputs {
                let a = input.address as usize;
                let v = input.value.to_sat();
                balances[a] -= v;
                supply -= v;
                assert!(!sink[a], "sinks never spend");
                if let Some(cat) = directory.category(input.address) {
                    *per_category.get_mut(cat).expect("category seen before") -= v;
                }
            }
            for o in &tx.outputs {
                let a = o.address as usize;
                let v = o.value.to_sat();
                balances[a] += v;
                supply += v;
                if sink[a] {
                    sink_held += v;
                } else if let Some(cat) = directory.category(o.address) {
                    *per_category.entry(cat.to_string()).or_insert(0) += v;
                }
            }
        }
        if let Some((h, t)) = last {
            out.push(sample(h, t, &per_category, supply, sink_held));
        }
        out
    }

    /// A random chain over `addrs` addresses. Each step is a coinbase or a
    /// spend of one address's whole unspent balance (so categories drain
    /// to exactly 0), in the same block as the previous transaction or the
    /// next one. Each address gets one of a few categories or none.
    fn random_chain(steps: &[(u8, u8, u8, u8)], addrs: u8) -> (TestChain, AddressDirectory) {
        let mut t = TestChain::new();
        let mut unspent: Vec<Vec<(usize, u32)>> = vec![Vec::new(); addrs as usize];
        for &(kind, from, to, split) in steps {
            let (from, to) = ((from % addrs) as usize, (to % addrs) as u64);
            if kind % 3 == 0 || unspent[from].is_empty() {
                let cb = t.coinbase(to, 1 + split as u64 % 50);
                unspent[to as usize].push((cb, 0));
                continue;
            }
            let spends = std::mem::take(&mut unspent[from]);
            let total: u64 = spends
                .iter()
                .map(|&(h, v)| t.chain.txs[h].outputs[v as usize].value.to_sat() / 100_000_000)
                .sum();
            // Up to three outputs, possibly back to `from` (self-change)
            // or to one address twice.
            let mut outs = vec![(to, total / 2)];
            if split % 2 == 0 {
                outs.push((((to as usize + split as usize) % addrs as usize) as u64, total / 4));
            }
            if split % 5 == 0 {
                outs.push((from as u64, total / 8));
            }
            let height = t.chain.txs.last().map_or(0, |tx| tx.height) + (kind % 2) as u64;
            let tx = t.tx_at(&spends, &outs, Some(height));
            for (vout, &(addr, _)) in outs.iter().enumerate() {
                unspent[addr as usize].push((tx, vout as u32));
            }
        }
        const CATEGORIES: [Option<&str>; 5] =
            [None, Some("exchange"), Some("gambling"), Some("mix"), None];
        let pairs = (0..t.chain.address_count())
            .map(|a| {
                let cat = CATEGORIES[(a * 7 + addrs as usize) % CATEGORIES.len()];
                (cat.map(|c| format!("svc-{c}")), cat.map(str::to_string))
            })
            .collect();
        (t, AddressDirectory::from_pairs(pairs))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Every prefix of a random chain, under several sampling
        /// intervals, matches the oracle exactly — including the cuts at
        /// which an address makes its first spend.
        #[test]
        fn oracle_balance_series_on_every_prefix(
            steps in proptest::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
                1..40,
            ),
            addrs in 2u8..10,
            every in 1u64..6,
        ) {
            let (t, dir) = random_chain(&steps, addrs);
            let chain = &t.chain;
            for tx_end in 0..=chain.tx_count() {
                for every in [every, 1, 1 + every * 3] {
                    prop_assert_eq!(
                        balance_series_at(chain, tx_end, &dir, every),
                        balance_series_at_oracle(chain, tx_end, &dir, every)
                    );
                }
            }
        }
    }

    #[test]
    fn oracle_balance_drained_category_and_first_spend_at_the_cut() {
        let mut t = TestChain::new();
        let cb = t.coinbase(1, 50); // tx 0: addr 1 (mix) funded
        let _ = t.coinbase(2, 50); // tx 1
        let drain = t.tx(&[(cb, 0)], &[(2, 50)]); // tx 2: mix drained to 0
        let n = t.chain.address_count();
        let mut pairs = vec![(None, None); n];
        pairs[t.id(1) as usize] = (Some("Mixer".into()), Some("mix".into()));
        let dir = AddressDirectory::from_pairs(pairs);

        let full = balance_series(&t.chain, &dir, 1);
        assert_eq!(full, balance_series_at_oracle(&t.chain, t.chain.tx_count(), &dir, 1));
        let last = full.last().unwrap();
        assert_eq!(last.balances.get("mix"), Some(&Amount::ZERO));

        // Cut exactly at addr 1's first spend: within the window it never
        // spends, so it is a sink and "mix" is never credited.
        let cut = balance_series_at(&t.chain, drain, &dir, 1);
        assert_eq!(cut, balance_series_at_oracle(&t.chain, drain, &dir, 1));
        let last = cut.last().unwrap();
        assert!(last.balances.is_empty());
        assert_eq!(last.sink_held, Amount::from_btc(100));
    }

    #[test]
    #[should_panic(expected = "sampling interval")]
    fn zero_interval_rejected() {
        let t = TestChain::new();
        let dir = AddressDirectory::default();
        balance_series(&t.chain, &dir, 0);
    }
}
