//! SHA-256 and SHA-224 message digests (FIPS 180-4), implemented from
//! scratch.
//!
//! The implementation is a straightforward, constant-table Merkle–Damgård
//! construction with a streaming [`Sha256`] hasher and convenience one-shot
//! functions ([`sha256`], [`sha224`]).
//!
//! Every block goes through [`compress`], which runs the x86_64 SHA
//! extensions when the CPU has them and the portable [`compress_scalar`]
//! otherwise. The choice is made once per process ([`kernel`]); both
//! kernels produce bit-identical digests, and [`compress_scalar`] /
//! [`sha256_scalar`] stay public as the reference they are tested against.
//!
//! # Examples
//!
//! ```
//! use biot_crypto::sha256::sha256;
//!
//! let digest = sha256(b"abc");
//! assert_eq!(
//!     hex(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
//! );
//!
//! fn hex(bytes: &[u8]) -> String {
//!     bytes.iter().map(|b| format!("{b:02x}")).collect()
//! }
//! ```

use std::sync::OnceLock;

/// Number of bytes in a SHA-256 digest.
pub const DIGEST_LEN: usize = 32;

/// Number of bytes in one SHA-256 input block.
pub const BLOCK_LEN: usize = 64;

/// First 32 bits of the fractional parts of the cube roots of the first 64
/// primes (FIPS 180-4 §4.2.2).
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

/// SHA-256 initial hash value (FIPS 180-4 §5.3.3).
const H256: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// SHA-224 initial hash value (FIPS 180-4 §5.3.2).
const H224: [u32; 8] = [
    0xc1059ed8, 0x367cd507, 0x3070dd17, 0xf70e5939, 0xffc00b31, 0x68581511, 0x64f98fa7, 0xbefa4fa4,
];

/// A streaming SHA-256 hasher.
///
/// Feed input incrementally with [`update`](Self::update) and produce the
/// digest with [`finalize`](Self::finalize).
///
/// # Examples
///
/// ```
/// use biot_crypto::sha256::{sha256, Sha256};
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// assert_eq!(hasher.finalize(), sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes processed so far (excluding buffered).
    len: u64,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    /// True for SHA-224 (truncated output, different IV).
    short: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new SHA-256 hasher.
    pub fn new() -> Self {
        Self {
            state: H256,
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            short: false,
        }
    }

    /// Creates a new SHA-224 hasher; [`finalize`](Self::finalize) returns a
    /// 32-byte array of which only the first 28 bytes are the digest (use
    /// [`finalize_224`](Self::finalize_224) for the truncated form).
    pub fn new_224() -> Self {
        Self {
            state: H224,
            len: 0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            short: true,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        let mut input = data;
        if self.buf_len > 0 {
            let need = BLOCK_LEN - self.buf_len;
            let take = need.min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                compress(&mut self.state, &block);
                self.buf_len = 0;
                self.len += BLOCK_LEN as u64;
            }
        }
        while input.len() >= BLOCK_LEN {
            let (block, rest) = input.split_at(BLOCK_LEN);
            compress(&mut self.state, block.try_into().expect("split_at yields one block"));
            self.len += BLOCK_LEN as u64;
            input = rest;
        }
        if !input.is_empty() {
            self.buf[..input.len()].copy_from_slice(input);
            self.buf_len = input.len();
        }
        self
    }

    /// Completes the hash and returns the 32-byte digest.
    ///
    /// Consumes the hasher; clone it first if you need to continue hashing.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = (self.len + self.buf_len as u64) * 8;
        // Padding: 0x80, zeros, then 64-bit big-endian length.
        let mut pad = [0u8; BLOCK_LEN * 2];
        let buffered = self.buf_len;
        pad[..buffered].copy_from_slice(&self.buf[..buffered]);
        pad[buffered] = 0x80;
        let total = if buffered < 56 { BLOCK_LEN } else { BLOCK_LEN * 2 };
        pad[total - 8..total].copy_from_slice(&bit_len.to_be_bytes());
        let mut block = [0u8; BLOCK_LEN];
        block.copy_from_slice(&pad[..BLOCK_LEN]);
        compress(&mut self.state, &block);
        if total == BLOCK_LEN * 2 {
            block.copy_from_slice(&pad[BLOCK_LEN..]);
            compress(&mut self.state, &block);
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Captures the hasher's state as a resumable [`Midstate`].
    ///
    /// The midstate records the compressed chaining value plus any bytes
    /// still buffered below a block boundary, so a fixed message prefix
    /// can be absorbed **once** and then extended with many different
    /// suffixes — the core trick of midstate proof-of-work mining, where
    /// the bundle preimage is constant and only the nonce varies.
    ///
    /// # Examples
    ///
    /// ```
    /// use biot_crypto::sha256::{sha256, Sha256};
    ///
    /// let mut prefix = Sha256::new();
    /// prefix.update(b"fixed preimage ");
    /// let mid = prefix.midstate();
    /// for nonce in 0u64..4 {
    ///     let mut h = Sha256::from_midstate(&mid);
    ///     h.update(&nonce.to_be_bytes());
    ///     let mut joined = b"fixed preimage ".to_vec();
    ///     joined.extend_from_slice(&nonce.to_be_bytes());
    ///     assert_eq!(h.finalize(), sha256(&joined));
    /// }
    /// ```
    pub fn midstate(&self) -> Midstate {
        Midstate {
            state: self.state,
            len: self.len,
            buf: self.buf,
            buf_len: self.buf_len as u8,
            short: self.short,
        }
    }

    /// Resumes hashing from a captured [`Midstate`].
    pub fn from_midstate(mid: &Midstate) -> Self {
        Self {
            state: mid.state,
            len: mid.len,
            buf: mid.buf,
            buf_len: mid.buf_len as usize,
            short: mid.short,
        }
    }

    /// Completes a SHA-224 hash and returns the 28-byte digest.
    ///
    /// # Panics
    ///
    /// Panics if the hasher was created with [`Sha256::new`] rather than
    /// [`Sha256::new_224`].
    pub fn finalize_224(self) -> [u8; 28] {
        assert!(self.short, "finalize_224 called on a SHA-256 hasher");
        let full = self.finalize();
        let mut out = [0u8; 28];
        out.copy_from_slice(&full[..28]);
        out
    }
}

/// The compression kernel [`compress`] runs, chosen once per process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// [`compress_scalar`], the portable reference.
    Scalar,
    /// The x86_64 SHA extensions (`sha`, with SSE2/SSSE3/SSE4.1 for the
    /// surrounding shuffles).
    ShaNi,
}

impl Kernel {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::ShaNi => "sha_ni",
        }
    }
}

/// The kernel [`compress`] dispatches to on this CPU: [`Kernel::ShaNi`]
/// when the CPU reports every feature the hardware kernel is compiled
/// for, else [`Kernel::Scalar`]. Detected on first use and cached.
pub fn kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            return Kernel::ShaNi;
        }
        Kernel::Scalar
    })
}

/// Applies the SHA-256 compression function to `state` for one block,
/// with the kernel [`kernel`] selected. Bit-identical to
/// [`compress_scalar`].
#[allow(unsafe_code)]
pub fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    #[cfg(target_arch = "x86_64")]
    if kernel() == Kernel::ShaNi {
        // SAFETY: `sha_ni::compress` is safe code compiled with
        // `target_feature(enable = "sha,sse2,ssse3,sse4.1")`; its only
        // requirement is that the running CPU supports those features,
        // and `kernel()` returns `ShaNi` only after
        // `is_x86_feature_detected!` reported all four.
        unsafe { sha_ni::compress(state, block) };
        return;
    }
    compress_scalar(state, block);
}

/// The portable SHA-256 compression function (FIPS 180-4 §6.2.2): the
/// reference and fallback kernel.
pub fn compress_scalar(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
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
        let ch = (e & f) ^ (!e & g);
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
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// SHA-256 of `data` computed with [`compress_scalar`] only, whatever
/// [`kernel`] selected: the reference digest the dispatched kernel is
/// checked against.
pub fn sha256_scalar(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut state = H256;
    let mut blocks = data.chunks_exact(BLOCK_LEN);
    for block in &mut blocks {
        compress_scalar(&mut state, block.try_into().expect("chunks_exact yields one block"));
    }
    let rest = blocks.remainder();
    let mut pad = [0u8; BLOCK_LEN * 2];
    pad[..rest.len()].copy_from_slice(rest);
    pad[rest.len()] = 0x80;
    let total = if rest.len() < 56 { BLOCK_LEN } else { BLOCK_LEN * 2 };
    pad[total - 8..total].copy_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in pad[..total].chunks_exact(BLOCK_LEN) {
        compress_scalar(&mut state, block.try_into().expect("chunks_exact yields one block"));
    }
    let mut out = [0u8; DIGEST_LEN];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The hardware kernel: Intel SHA extensions. Safe code throughout —
/// state and block move in and out through `_mm_set_epi32` and
/// `_mm_extract_epi32`, never through pointers — whose only precondition
/// is the CPU features it is compiled for (see [`compress`]).
#[cfg(target_arch = "x86_64")]
mod sha_ni {
    use super::{BLOCK_LEN, K};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Four big-endian message words `w[4i..4i + 4]`, lane 0 first.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn load_words(block: &[u8; BLOCK_LEN], i: usize) -> __m128i {
        let w = |j: usize| {
            let at = 16 * i + 4 * j;
            u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]]) as i32
        };
        _mm_set_epi32(w(3), w(2), w(1), w(0))
    }

    /// Rounds `4i..4i + 4` on the (ABEF, CDGH) register pair.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, i: usize) {
        let k = _mm_set_epi32(
            K[4 * i + 3] as i32,
            K[4 * i + 2] as i32,
            K[4 * i + 1] as i32,
            K[4 * i] as i32,
        );
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0E>(wk));
    }

    /// Message schedule: the next four words from the previous sixteen
    /// (`w0` oldest).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        let s = |j: usize| state[j] as i32;
        // The rounds instruction wants the state as (A, B, E, F) and
        // (C, D, G, H), high lane first.
        let abef0 = _mm_set_epi32(s(0), s(1), s(4), s(5));
        let cdgh0 = _mm_set_epi32(s(2), s(3), s(6), s(7));
        let (mut abef, mut cdgh) = (abef0, cdgh0);
        let mut w0 = load_words(block, 0);
        let mut w1 = load_words(block, 1);
        let mut w2 = load_words(block, 2);
        let mut w3 = load_words(block, 3);
        rounds4(&mut abef, &mut cdgh, w0, 0);
        rounds4(&mut abef, &mut cdgh, w1, 1);
        rounds4(&mut abef, &mut cdgh, w2, 2);
        rounds4(&mut abef, &mut cdgh, w3, 3);
        for i in (4..16).step_by(4) {
            w0 = schedule(w0, w1, w2, w3);
            rounds4(&mut abef, &mut cdgh, w0, i);
            w1 = schedule(w1, w2, w3, w0);
            rounds4(&mut abef, &mut cdgh, w1, i + 1);
            w2 = schedule(w2, w3, w0, w1);
            rounds4(&mut abef, &mut cdgh, w2, i + 2);
            w3 = schedule(w3, w0, w1, w2);
            rounds4(&mut abef, &mut cdgh, w3, i + 3);
        }
        abef = _mm_add_epi32(abef, abef0);
        cdgh = _mm_add_epi32(cdgh, cdgh0);
        *state = [
            _mm_extract_epi32::<3>(abef) as u32,
            _mm_extract_epi32::<2>(abef) as u32,
            _mm_extract_epi32::<3>(cdgh) as u32,
            _mm_extract_epi32::<2>(cdgh) as u32,
            _mm_extract_epi32::<1>(abef) as u32,
            _mm_extract_epi32::<0>(abef) as u32,
            _mm_extract_epi32::<1>(cdgh) as u32,
            _mm_extract_epi32::<0>(cdgh) as u32,
        ];
    }
}

/// A resumable snapshot of a [`Sha256`] hasher's internal state.
///
/// Created by [`Sha256::midstate`] and consumed by
/// [`Sha256::from_midstate`]. `Copy`, so per-trial resumption in a
/// mining loop costs a register-width memcpy instead of re-compressing
/// the whole message prefix.
#[derive(Clone, Copy, Debug)]
pub struct Midstate {
    state: [u32; 8],
    /// Bytes fully compressed so far (multiple of the block length).
    len: u64,
    /// Pending bytes below the next block boundary.
    buf: [u8; BLOCK_LEN],
    buf_len: u8,
    short: bool,
}

/// Computes the SHA-256 digest of `data` in one call.
///
/// # Examples
///
/// ```
/// use biot_crypto::sha256::sha256;
/// // The empty-string digest is a well-known constant.
/// assert_eq!(sha256(b"")[0], 0xe3);
/// ```
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Computes the SHA-224 digest of `data` in one call.
pub fn sha224(data: &[u8]) -> [u8; 28] {
    let mut h = Sha256::new_224();
    h.update(data);
    h.finalize_224()
}

/// Computes SHA-256 over the concatenation of several segments without
/// allocating a joined buffer.
pub fn sha256_concat(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    for p in parts {
        h.update(p);
    }
    h.finalize()
}

/// Computes HMAC-SHA-256 (RFC 2104) of `message` under `key`.
///
/// # Examples
///
/// ```
/// use biot_crypto::sha256::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(tag[0], 0xf7);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        key_block[..DIGEST_LEN].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0u8; BLOCK_LEN];
    let mut opad = [0u8; BLOCK_LEN];
    for i in 0..BLOCK_LEN {
        ipad[i] = key_block[i] ^ 0x36;
        opad[i] = key_block[i] ^ 0x5c;
    }
    let inner = {
        let mut h = Sha256::new();
        h.update(&ipad);
        h.update(message);
        h.finalize()
    };
    let mut h = Sha256::new();
    h.update(&opad);
    h.update(&inner);
    h.finalize()
}

/// Counts the number of leading zero *bits* in `bytes`.
///
/// This is the difficulty metric of hash-prefix proof-of-work (paper
/// Eqn 6): a PoW output at difficulty `D` must satisfy
/// `leading_zero_bits(hash) >= D`.
///
/// # Examples
///
/// ```
/// use biot_crypto::sha256::leading_zero_bits;
/// assert_eq!(leading_zero_bits(&[0x00, 0x1F]), 11);
/// assert_eq!(leading_zero_bits(&[0x80]), 0);
/// assert_eq!(leading_zero_bits(&[0x00, 0x00]), 16);
/// ```
pub fn leading_zero_bits(bytes: &[u8]) -> u32 {
    let mut count = 0;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_be_bytes(chunk.try_into().expect("chunk is 8 bytes"));
        if word == 0 {
            count += 64;
        } else {
            return count + word.leading_zeros();
        }
    }
    for &b in chunks.remainder() {
        if b == 0 {
            count += 8;
        } else {
            return count + b.leading_zeros();
        }
    }
    count
}

/// Compares two byte slices in constant time (for equal lengths).
///
/// Unequal lengths return `false` immediately — the length is assumed
/// public. Use for comparing MACs, digests, and challenge nonces so the
/// comparison time leaks nothing about *where* they differ.
///
/// # Examples
///
/// ```
/// use biot_crypto::sha256::ct_eq;
/// assert!(ct_eq(b"abc", b"abc"));
/// assert!(!ct_eq(b"abc", b"abd"));
/// assert!(!ct_eq(b"abc", b"ab"));
/// ```
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Lowercase hex digits, indexed by nibble.
const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Encodes bytes as lowercase hex. Handy for digest display in examples and
/// reports.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    push_hex(&mut s, bytes);
    s
}

/// Appends the lowercase hex encoding of `bytes` to `out` — [`to_hex`]
/// without the allocation, for renderers that build one buffer.
pub fn push_hex(out: &mut String, bytes: &[u8]) {
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from(HEX_DIGITS[usize::from(b >> 4)]));
        out.push(char::from(HEX_DIGITS[usize::from(b & 0x0f)]));
    }
}

/// Decodes a lowercase/uppercase hex string into bytes.
///
/// # Errors
///
/// Returns `None` if the string has odd length or contains a non-hex digit.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    let bytes = s.as_bytes();
    for pair in bytes.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push(((hi << 4) | lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(b: &[u8]) -> String {
        to_hex(b)
    }

    /// True when [`compress`] runs the hardware kernel, so comparing it
    /// with [`compress_scalar`] compares the two kernels. Prints why the
    /// hardware half of a test is skipped on CPUs without it.
    fn hardware_kernel_active() -> bool {
        let active = kernel() == Kernel::ShaNi;
        if !active {
            eprintln!("note: this CPU lacks the SHA extensions; hardware-kernel half skipped");
        }
        active
    }

    /// Checks a FIPS 180-4 vector through the dispatched kernel and
    /// through the scalar reference.
    fn assert_vector(data: &[u8], want: &str) {
        assert_eq!(hex(&sha256_scalar(data)), want, "scalar kernel");
        assert_eq!(hex(&sha256(data)), want, "dispatched kernel ({})", kernel().name());
    }

    #[test]
    fn empty_string_vector() {
        assert_vector(b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    }

    #[test]
    fn abc_vector() {
        assert_vector(b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    }

    #[test]
    fn two_block_vector() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn long_vector_million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn dispatch_selects_hardware_kernel_when_cpu_has_sha() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
        {
            assert_eq!(kernel(), Kernel::ShaNi, "silent fallback to the scalar kernel");
            return;
        }
        assert_eq!(kernel(), Kernel::Scalar);
        eprintln!("note: this CPU lacks the SHA extensions; scalar kernel expected");
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        #[test]
        fn hardware_kernel_matches_scalar_on_random_blocks(
            state in proptest::array::uniform8(proptest::prelude::any::<u32>()),
            block in proptest::collection::vec(proptest::prelude::any::<u8>(), BLOCK_LEN),
        ) {
            if hardware_kernel_active() {
                let block: &[u8; BLOCK_LEN] = block.as_slice().try_into().unwrap();
                let (mut hw, mut reference) = (state, state);
                compress(&mut hw, block);
                compress_scalar(&mut reference, block);
                proptest::prop_assert_eq!(hw, reference);
            }
        }

        #[test]
        fn streaming_digests_match_scalar_reference(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=4096),
            cut_a in 0usize..=4096,
            cut_b in 0usize..=4096,
        ) {
            let want = sha256_scalar(&data);
            proptest::prop_assert_eq!(sha256(&data), want);
            let (a, b) = (cut_a.min(cut_b).min(data.len()), cut_b.max(cut_a).min(data.len()));
            let mut h = Sha256::new();
            h.update(&data[..a]);
            let mut resumed = Sha256::from_midstate(&h.midstate());
            resumed.update(&data[a..b]).update(&data[b..]);
            proptest::prop_assert_eq!(resumed.finalize(), want);
        }
    }

    #[test]
    fn sha224_vector() {
        assert_eq!(
            hex(&sha224(b"abc")),
            "23097d223405d8228642a477bda255b32aadbce4bda0b3f7e36c9da7"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0..255u8).cycle().take(300).collect();
        let expect = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn streaming_many_small_updates() {
        let data: Vec<u8> = (0..=255u8).collect();
        let mut h = Sha256::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn padding_boundary_lengths() {
        // Lengths around the 55/56/64-byte padding boundaries must not panic
        // and must be consistent between streaming and one-shot.
        for len in [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            for chunk in data.chunks(7) {
                h.update(chunk);
            }
            assert_eq!(h.finalize(), sha256(&data), "len {len}");
        }
    }

    #[test]
    fn concat_matches_joined() {
        let a = b"hello ".as_slice();
        let b = b"world".as_slice();
        assert_eq!(sha256_concat(&[a, b]), sha256(b"hello world"));
    }

    #[test]
    fn hmac_rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn hmac_rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn ct_eq_behaviour() {
        assert!(ct_eq(&[], &[]));
        assert!(ct_eq(&[1, 2, 3], &[1, 2, 3]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2]));
        assert!(!ct_eq(&[0xFF; 32], &[0x00; 32]));
    }

    #[test]
    fn hex_roundtrip() {
        let data = vec![0x00, 0x01, 0xab, 0xff];
        assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
        assert!(from_hex("abc").is_none());
        assert!(from_hex("zz").is_none());
    }

    #[test]
    fn midstate_resume_matches_oneshot_at_all_split_points() {
        // Split points straddle the 64-byte block boundary in both the
        // prefix (buffered vs compressed) and the suffix.
        let data: Vec<u8> = (0..255u8).cycle().take(200).collect();
        let expect = sha256(&data);
        for split in 0..data.len() {
            let mut prefix = Sha256::new();
            prefix.update(&data[..split]);
            let mid = prefix.midstate();
            let mut resumed = Sha256::from_midstate(&mid);
            resumed.update(&data[split..]);
            assert_eq!(resumed.finalize(), expect, "split at {split}");
        }
    }

    #[test]
    fn midstate_is_reusable_many_times() {
        let mut prefix = Sha256::new();
        prefix.update(b"bundle preimage: parents, payload, issuer, ts ");
        let mid = prefix.midstate();
        for nonce in 0u64..64 {
            let mut h = Sha256::from_midstate(&mid);
            h.update(&nonce.to_be_bytes());
            let mut joined = b"bundle preimage: parents, payload, issuer, ts ".to_vec();
            joined.extend_from_slice(&nonce.to_be_bytes());
            assert_eq!(h.finalize(), sha256(&joined), "nonce {nonce}");
        }
    }

    #[test]
    fn midstate_preserves_sha224_mode() {
        let mut prefix = Sha256::new_224();
        prefix.update(b"abc");
        let resumed = Sha256::from_midstate(&prefix.midstate());
        assert_eq!(
            hex(&resumed.finalize_224()),
            "23097d223405d8228642a477bda255b32aadbce4bda0b3f7e36c9da7"
        );
    }

    #[test]
    fn leading_zero_bits_word_scan_edge_cases() {
        // Empty, all-zero, and a one-bit at every position of a 32-byte
        // digest-sized buffer (crossing the 8-byte word boundaries).
        assert_eq!(leading_zero_bits(&[]), 0);
        assert_eq!(leading_zero_bits(&[0u8; 32]), 256);
        for bit in 0..256u32 {
            let mut buf = [0u8; 32];
            buf[(bit / 8) as usize] = 0x80 >> (bit % 8);
            assert_eq!(leading_zero_bits(&buf), bit, "bit {bit}");
        }
        // Non-multiple-of-8 lengths exercise the remainder path.
        assert_eq!(leading_zero_bits(&[0x00, 0x1F]), 11);
        assert_eq!(leading_zero_bits(&[0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01]), 71);
        assert_eq!(leading_zero_bits(&[0x00, 0x00, 0x00]), 24);
    }

    #[test]
    fn finalize_224_panics_on_sha256_hasher() {
        let h = Sha256::new();
        let r = std::panic::catch_unwind(move || h.finalize_224());
        assert!(r.is_err());
    }
}
