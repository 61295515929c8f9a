//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Provides a streaming [`Sha256`] hasher plus the one-shot helpers
//! [`sha256`], [`sha256d`] (double SHA-256, as used for txids and block
//! hashes) and [`hash160`] (RIPEMD-160 of SHA-256, as used for addresses).
//!
//! The compression function runs on the x86-64 SHA extensions when the CPU
//! has them, detected at run time, and on the portable [`compress_scalar`]
//! everywhere else; [`kernel`] names the one in use.

use crate::hash::{Hash160, Hash256};
use crate::ripemd160::ripemd160;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered until a full 64-byte block is available.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes.
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        // Fill a partially-filled buffer first.
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress_blocks(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
        }
        // Whole blocks straight from the input, in one kernel call.
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            compress_blocks(&mut self.state, &data[..whole]);
            data = &data[whole..];
        }
        // Stash the tail.
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // Padding: 0x80, zeros, then the 64-bit big-endian bit length, which
        // spills into a second block when fewer than 9 bytes are left.
        let n = self.buf_len;
        let mut tail = [0u8; 128];
        tail[..n].copy_from_slice(&self.buf[..n]);
        tail[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        tail[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &tail[..len]);

        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The compression kernel [`compress_blocks`] runs on this CPU: `"sha-ni"`
/// on x86-64 CPUs with the SHA extensions, `"scalar"` everywhere else.
pub fn kernel() -> &'static str {
    if shani_detected() {
        "sha-ni"
    } else {
        "scalar"
    }
}

/// Runs the SHA-256 compression function over `blocks`, a whole number of
/// 64-byte blocks, with the fastest kernel this CPU supports.
///
/// Panics if `blocks.len()` is not a multiple of 64.
pub fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    assert!(blocks.len() % 64 == 0, "compress_blocks takes whole 64-byte blocks");
    #[cfg(target_arch = "x86_64")]
    if shani_detected() {
        // SAFETY: the CPU supports SHA, SSSE3 and SSE4.1 (checked just above).
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress_scalar(state, block.try_into().expect("64-byte chunk"));
    }
}

/// True if the SHA-NI kernel can run on this CPU.
fn shani_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The portable compression function of FIPS 180-4 over one block. It is
/// the only kernel on CPUs without SHA-NI, and the reference the kernel
/// tests compare the SHA-NI path against.
pub fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes([
            block[i * 4],
            block[i * 4 + 1],
            block[i * 4 + 2],
            block[i * 4 + 3],
        ]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }

    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// The x86-64 SHA extensions kernel. `sha256rnds2` runs two rounds on the
/// state held as two vectors, ABEF and CDGH; `sha256msg1`/`sha256msg2`
/// extend the message schedule four words at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Four rounds: adds the round constants to schedule words `w` and
    /// runs two `sha256rnds2` steps.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
        let wk = _mm_add_epi32(w, _mm_loadu_si128(K.as_ptr().add(4 * group) as *const __m128i));
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// The next four schedule words from the previous sixteen.
    #[inline]
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Compresses every 64-byte block of `blocks` into `state`.
    ///
    /// # Safety
    ///
    /// The CPU must support SHA, SSSE3 and SSE4.1, and `blocks.len()` must
    /// be a multiple of 64.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // State words a..h to the ABEF / CDGH lane order rnds2 expects.
        let dcba = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr() as *const __m128i;
            let mut w = [
                _mm_shuffle_epi8(_mm_loadu_si128(p), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap),
                _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap),
            ];
            for (group, &wi) in w.iter().enumerate() {
                rounds4(&mut abef, &mut cdgh, wi, group);
            }
            // The schedule is a ring of four 4-word vectors: before group g,
            // slot g % 4 holds words 4(g-4)..4(g-4)+3 and is replaced by
            // words 4g..4g+3.
            for group in 4..16 {
                let s = group % 4;
                w[s] = schedule(w[s], w[(s + 1) % 4], w[(s + 2) % 4], w[(s + 3) % 4]);
                rounds4(&mut abef, &mut cdgh, w[s], group);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, hgfe);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Double SHA-256, the digest Bitcoin uses for txids, block hashes and
/// merkle nodes.
pub fn sha256d(data: &[u8]) -> Hash256 {
    Hash256(sha256(&sha256(data)))
}

/// RIPEMD-160 of SHA-256, the digest Bitcoin uses to derive addresses from
/// public keys.
pub fn hash160(data: &[u8]) -> Hash160 {
    Hash160(ripemd160(&sha256(data)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn empty_vector() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a_vector() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&msg)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        let oneshot = sha256(&data);
        // Feed in awkward chunk sizes to exercise the buffering paths.
        for chunk in [1usize, 3, 63, 64, 65, 127, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), oneshot, "chunk size {chunk}");
        }
    }

    #[test]
    fn sha256d_vector() {
        // sha256d("hello") is a commonly cited vector.
        assert_eq!(
            sha256d(b"hello").to_hex(),
            "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50"
        );
    }

    /// SHA-256 built only from the scalar kernel: padding written out by
    /// hand, one `compress_scalar` call per block. Independent of `Sha256`'s
    /// buffering and of the run-time kernel choice.
    fn scalar_reference(data: &[u8]) -> [u8; 32] {
        let mut msg = data.to_vec();
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
        let mut state = H0;
        for block in msg.chunks_exact(64) {
            compress_scalar(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// splitmix64: a seeded byte and length source for the kernel tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    /// Names the kernel under test, so a run on a CPU without SHA-NI says
    /// that it compared the scalar path with itself instead of passing
    /// silently.
    fn announce_kernel() {
        if kernel() == "scalar" {
            eprintln!("SHA-NI not available on this CPU: comparing the scalar kernel with itself");
        } else {
            eprintln!("comparing the {} kernel with the scalar kernel", kernel());
        }
    }

    #[test]
    fn kernel_differential_every_length_0_to_300() {
        announce_kernel();
        let mut rng = Rng(1);
        for len in 0..=300 {
            let data = rng.bytes(len);
            assert_eq!(sha256(&data), scalar_reference(&data), "length {len}");
        }
    }

    #[test]
    fn kernel_differential_padding_boundaries() {
        announce_kernel();
        // 55 is the longest one-block message, 56 the shortest that spills
        // the length into a second block; 119/120 are the same edge one
        // block later, 63/64 the block edge itself.
        for len in [55usize, 56, 63, 64, 119, 120] {
            for fill in [0x00u8, 0x80, 0xff] {
                let data = vec![fill; len];
                assert_eq!(sha256(&data), scalar_reference(&data), "length {len} fill {fill:#x}");
                let twice = scalar_reference(&scalar_reference(&data));
                assert_eq!(sha256d(&data).0, twice, "sha256d length {len}");
            }
        }
    }

    #[test]
    fn kernel_differential_random_splits() {
        announce_kernel();
        let mut rng = Rng(0x5eed);
        for _ in 0..200 {
            let len = (rng.next() % 2000) as usize;
            let data = rng.bytes(len);
            let mut h = Sha256::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                let take = ((rng.next() % 150) as usize).min(rest.len());
                h.update(&rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(h.finalize(), scalar_reference(&data), "length {len}");
        }
    }

    #[test]
    fn kernel_differential_fips_vectors_on_scalar_reference() {
        let vectors: [(&[u8], &str); 3] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (msg, want) in vectors {
            assert_eq!(hex(&scalar_reference(msg)), want);
            assert_eq!(hex(&sha256(msg)), want);
        }
    }

    #[test]
    fn kernel_differential_multi_block_compress() {
        announce_kernel();
        let mut rng = Rng(7);
        for nblocks in [1usize, 2, 3, 16, 100] {
            let blocks = rng.bytes(64 * nblocks);
            let mut start = [0u32; 8];
            for s in &mut start {
                *s = rng.next() as u32;
            }
            let mut fast = start;
            compress_blocks(&mut fast, &blocks);
            let mut slow = start;
            for block in blocks.chunks_exact(64) {
                compress_scalar(&mut slow, block.try_into().unwrap());
            }
            assert_eq!(fast, slow, "{nblocks} blocks");
        }
    }

    #[test]
    fn hash160_of_genesis_pubkey() {
        // The public key from the Bitcoin genesis coinbase output.
        let pk_hex = "04678afdb0fe5548271967f1a67130b7105cd6a828e03909a67962e0ea1f61deb6\
                      49f6bc3f4cef38c4f35504e51ec112de5c384df7ba0b8d578a4c702b6bf11d5f";
        let pk: Vec<u8> = (0..pk_hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&pk_hex[i..i + 2], 16).unwrap())
            .collect();
        assert_eq!(
            hash160(&pk).to_hex(),
            "62e907b15cbf27d5425399ebf6f0fb50ebb88f18"
        );
    }
}
