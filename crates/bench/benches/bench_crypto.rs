//! Ablation `abl-crypto`: throughput of the from-scratch crypto substrate.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fistful_crypto::keys::KeyPair;
use fistful_crypto::ripemd160::ripemd160;
use fistful_crypto::sha256::{compress_blocks, compress_scalar, hash160, kernel, sha256, sha256d};

fn bench_hashing(c: &mut Criterion) {
    let mut g = c.benchmark_group("hashing");
    let data = vec![0xabu8; 1024];
    g.throughput(Throughput::Bytes(1024));
    g.bench_function("sha256_1k", |b| b.iter(|| sha256(std::hint::black_box(&data))));
    g.bench_function("sha256d_1k", |b| b.iter(|| sha256d(std::hint::black_box(&data))));
    g.bench_function("ripemd160_1k", |b| b.iter(|| ripemd160(std::hint::black_box(&data))));
    g.bench_function("hash160_1k", |b| b.iter(|| hash160(std::hint::black_box(&data))));
    g.finish();
}

/// `sha256d` at the sizes the pipeline hashes: a merkle pair (64 B), a
/// typical transaction (113 B) and a store segment (1 MiB).
fn bench_sha256d_sizes(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256d");
    for (name, len) in [("merkle_pair_64b", 64usize), ("tx_113b", 113), ("segment_1mib", 1 << 20)] {
        let data: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(name, |b| b.iter(|| sha256d(std::hint::black_box(&data))));
    }
    g.finish();
}

/// One compression, on the portable kernel and on the kernel the CPU
/// dispatches to (the same kernel on CPUs without SHA-NI).
fn bench_compress(c: &mut Criterion) {
    let mut g = c.benchmark_group("compress");
    println!("compress kernel on this CPU: {}", kernel());
    let block = [0x5au8; 64];
    g.throughput(Throughput::Bytes(64));
    g.bench_function("scalar", |b| {
        let mut state = [0x6a09e667u32; 8];
        b.iter(|| {
            compress_scalar(&mut state, std::hint::black_box(&block));
            state
        })
    });
    g.bench_function("dispatched", |b| {
        let mut state = [0x6a09e667u32; 8];
        b.iter(|| {
            compress_blocks(&mut state, std::hint::black_box(&block));
            state
        })
    });
    g.finish();
}

fn bench_ecdsa(c: &mut Criterion) {
    let mut g = c.benchmark_group("ecdsa");
    g.sample_size(20);
    let kp = KeyPair::from_seed(42);
    let msg = sha256d(b"bench message");
    let sig = kp.sign(&msg);
    g.bench_function("keypair_derive", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            KeyPair::from_seed(std::hint::black_box(seed))
        })
    });
    g.bench_function("sign", |b| b.iter(|| kp.sign(std::hint::black_box(&msg))));
    g.bench_function("verify", |b| {
        b.iter(|| {
            assert!(kp
                .public()
                .verify(std::hint::black_box(&msg), std::hint::black_box(&sig)))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_hashing, bench_sha256d_sizes, bench_compress, bench_ecdsa);
criterion_main!(benches);
