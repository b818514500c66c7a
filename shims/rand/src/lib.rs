//! Offline, dependency-free stand-in for the subset of the `rand` 0.8 API
//! this workspace uses.
//!
//! The build environment has no network access to crates.io, so the real
//! `rand`/`rand_chacha` crates cannot be fetched. This crate reimplements
//! exactly the surface the workspace exercises, following the published
//! `rand` 0.8.5 / `rand_chacha` 0.3 algorithms step for step so streams
//! stay reproducible:
//!
//! - [`rngs::StdRng`]: ChaCha with 12 rounds, 64-bit block counter, 4-block
//!   output buffer, and the `BlockRng` word-consumption order (including
//!   its buffer-straddling `next_u64` path). The refill computes its four
//!   blocks lane-parallel, one block per SIMD lane, and yields the same
//!   word stream as one-block-at-a-time ChaCha12: known-answer tests pin
//!   the literal output, and a scalar one-block oracle (test-only) checks
//!   every lane, including across the 32-bit carry and the 64-bit wrap.
//! - [`SeedableRng::seed_from_u64`]: the PCG32-based seed expansion.
//! - `Rng::gen::<f64>()`: 53-bit mantissa construction from `next_u64`.
//! - `Rng::gen_range(low..high)` for integers: widening-multiply with the
//!   `sample_single` rejection zone.
//!
//! Only determinism and distribution quality are load-bearing for the
//! simulator; cryptographic properties are not relied upon anywhere.

#![forbid(unsafe_code)]

/// Low-level source of random 32/64-bit words.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction of a generator from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// Raw seed type (a byte array).
    type Seed: AsMut<[u8]> + Default;

    /// Builds the generator from a full-entropy seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed via the PCG32 output function,
    /// matching `rand` 0.8's default `seed_from_u64`.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let word = xorshifted.rotate_right(rot).to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        Self::from_seed(seed)
    }
}

/// Types sampled by `Rng::gen` (the `Standard` distribution subset).
pub trait StandardSample {
    /// Draws one value from the standard distribution.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl StandardSample for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for usize {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> usize {
        rng.next_u64() as usize
    }
}

impl StandardSample for f64 {
    /// `Open01`-style uniform in `[0, 1)` with 53 random mantissa bits,
    /// exactly as `rand`'s `Standard` does for `f64`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        let scale = 1.0 / ((1u64 << 53) as f64);
        (rng.next_u64() >> 11) as f64 * scale
    }
}

/// Half-open ranges usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws a uniform value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_sample_range_64 {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for core::ops::Range<$ty> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample empty range");
                let low = self.start as u64;
                let range = (self.end as u64).wrapping_sub(low);
                // rand 0.8 `sample_single`: widening multiply with the
                // fast conservative rejection zone.
                let zone = (range << range.leading_zeros()).wrapping_sub(1);
                loop {
                    let v = rng.next_u64();
                    let wide = u128::from(v) * u128::from(range);
                    let hi = (wide >> 64) as u64;
                    let lo = wide as u64;
                    if lo <= zone {
                        return low.wrapping_add(hi) as $ty;
                    }
                }
            }
        }
    )*};
}

impl_sample_range_64!(u64, usize, i64);

impl SampleRange<u32> for core::ops::Range<u32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> u32 {
        assert!(self.start < self.end, "cannot sample empty range");
        let low = self.start;
        let range = self.end.wrapping_sub(low);
        let zone = (range << range.leading_zeros()).wrapping_sub(1);
        loop {
            let v = rng.next_u32();
            let wide = u64::from(v) * u64::from(range);
            let hi = (wide >> 32) as u32;
            let lo = wide as u32;
            if lo <= zone {
                return low.wrapping_add(hi);
            }
        }
    }
}

/// Convenience sampling methods, blanket-implemented for every source.
pub trait Rng: RngCore {
    /// Draws a value of type `T` from the standard distribution.
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a uniform value from `range` (half-open).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    //! Concrete generators.

    use super::{RngCore, SeedableRng};

    const BUF_WORDS: usize = 64; // four 16-word ChaCha blocks

    /// The `rand` 0.8 standard generator: ChaCha with 12 rounds.
    ///
    /// Matches `rand_chacha::ChaCha12Rng` wrapped in `BlockRng`: output is
    /// produced four blocks at a time with a 64-bit little-endian block
    /// counter starting at zero and a zero stream id.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        key: [u32; 8],
        counter: u64,
        buf: [u32; BUF_WORDS],
        index: usize,
    }

    /// Blocks per refill, computed side by side in one lane each.
    const LANES: usize = BUF_WORDS / 16;

    /// The ChaCha constant words, "expand 32-byte k".
    const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

    /// One ChaCha quarter-round on four state words.
    macro_rules! quarter_round {
        ($a:ident, $b:ident, $c:ident, $d:ident) => {
            $a = $a.wrapping_add($b);
            $d = ($d ^ $a).rotate_left(16);
            $c = $c.wrapping_add($d);
            $b = ($b ^ $c).rotate_left(12);
            $a = $a.wrapping_add($b);
            $d = ($d ^ $a).rotate_left(8);
            $c = $c.wrapping_add($d);
            $b = ($b ^ $c).rotate_left(7);
        };
    }

    /// One ChaCha double-round: four column rounds, then four diagonal
    /// rounds, on the sixteen named state words.
    macro_rules! double_round {
        ($x0:ident, $x1:ident, $x2:ident, $x3:ident, $x4:ident, $x5:ident, $x6:ident, $x7:ident,
         $x8:ident, $x9:ident, $x10:ident, $x11:ident, $x12:ident, $x13:ident, $x14:ident, $x15:ident) => {
            quarter_round!($x0, $x4, $x8, $x12);
            quarter_round!($x1, $x5, $x9, $x13);
            quarter_round!($x2, $x6, $x10, $x14);
            quarter_round!($x3, $x7, $x11, $x15);
            quarter_round!($x0, $x5, $x10, $x15);
            quarter_round!($x1, $x6, $x11, $x12);
            quarter_round!($x2, $x7, $x8, $x13);
            quarter_round!($x3, $x4, $x9, $x14);
        };
    }

    impl StdRng {
        /// Generates the next four blocks (counters `counter ..
        /// counter + 4`, wrapping) into the buffer.
        ///
        /// The blocks are computed lane-parallel: one loop over the four
        /// lanes whose body is a whole ChaCha12 block in sixteen scalar
        /// locals, with all six double-rounds unrolled so the lane loop is
        /// the innermost one. LLVM's loop vectorizer turns it into 4-wide
        /// SIMD (SSE2 on the x86-64 baseline), one block per vector lane,
        /// with no `unsafe` and no target-specific code. Each lane writes
        /// `out[word][lane]`; the transpose at the end restores the
        /// block-major buffer layout, so the word stream is the scalar
        /// one-block-at-a-time stream, bit for bit.
        fn refill(&mut self) {
            let k = self.key;
            let mut out = [[0u32; LANES]; 16];
            #[allow(clippy::needless_range_loop)] // lane indexes every output row
            for lane in 0..LANES {
                let counter = self.counter.wrapping_add(lane as u64);
                let (c12, c13) = (counter as u32, (counter >> 32) as u32);
                let [mut x0, mut x1, mut x2, mut x3] = SIGMA;
                let [mut x4, mut x5, mut x6, mut x7, mut x8, mut x9, mut x10, mut x11] = k;
                let (mut x12, mut x13) = (c12, c13);
                // x14, x15: stream id, zero for seed_from_u64.
                let (mut x14, mut x15) = (0u32, 0u32);
                double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
                double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
                double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
                double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
                double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
                double_round!(x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11, x12, x13, x14, x15);
                out[0][lane] = x0.wrapping_add(SIGMA[0]);
                out[1][lane] = x1.wrapping_add(SIGMA[1]);
                out[2][lane] = x2.wrapping_add(SIGMA[2]);
                out[3][lane] = x3.wrapping_add(SIGMA[3]);
                out[4][lane] = x4.wrapping_add(k[0]);
                out[5][lane] = x5.wrapping_add(k[1]);
                out[6][lane] = x6.wrapping_add(k[2]);
                out[7][lane] = x7.wrapping_add(k[3]);
                out[8][lane] = x8.wrapping_add(k[4]);
                out[9][lane] = x9.wrapping_add(k[5]);
                out[10][lane] = x10.wrapping_add(k[6]);
                out[11][lane] = x11.wrapping_add(k[7]);
                out[12][lane] = x12.wrapping_add(c12);
                out[13][lane] = x13.wrapping_add(c13);
                out[14][lane] = x14;
                out[15][lane] = x15;
            }
            for (word, row) in out.iter().enumerate() {
                for (lane, &value) in row.iter().enumerate() {
                    self.buf[lane * 16 + word] = value;
                }
            }
            self.counter = self.counter.wrapping_add(LANES as u64);
        }
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> StdRng {
            let mut key = [0u32; 8];
            for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
                *word = u32::from_le_bytes(bytes.try_into().expect("chunks_exact yields 4-byte slices"));
            }
            StdRng {
                key,
                counter: 0,
                buf: [0; BUF_WORDS],
                // Start exhausted so the first draw generates block 0.
                index: BUF_WORDS,
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            if self.index >= BUF_WORDS {
                self.refill();
                self.index = 0;
            }
            let value = self.buf[self.index];
            self.index += 1;
            value
        }

        /// `BlockRng::next_u64` semantics, including the case where the
        /// two halves straddle a buffer refill.
        fn next_u64(&mut self) -> u64 {
            let index = self.index;
            if index < BUF_WORDS - 1 {
                self.index += 2;
                (u64::from(self.buf[index + 1]) << 32) | u64::from(self.buf[index])
            } else if index >= BUF_WORDS {
                self.refill();
                self.index = 2;
                (u64::from(self.buf[1]) << 32) | u64::from(self.buf[0])
            } else {
                let low = u64::from(self.buf[BUF_WORDS - 1]);
                self.refill();
                self.index = 1;
                (u64::from(self.buf[0]) << 32) | low
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::{StdRng, LANES, SIGMA};
        use crate::SeedableRng;

        /// One ChaCha12 block, one quarter-round at a time: the scalar
        /// oracle the lane-parallel refill is checked against.
        fn chacha12_block(key: &[u32; 8], counter: u64) -> [u32; 16] {
            fn qr(x: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
                x[a] = x[a].wrapping_add(x[b]);
                x[d] = (x[d] ^ x[a]).rotate_left(16);
                x[c] = x[c].wrapping_add(x[d]);
                x[b] = (x[b] ^ x[c]).rotate_left(12);
                x[a] = x[a].wrapping_add(x[b]);
                x[d] = (x[d] ^ x[a]).rotate_left(8);
                x[c] = x[c].wrapping_add(x[d]);
                x[b] = (x[b] ^ x[c]).rotate_left(7);
            }
            let mut x = [0u32; 16];
            x[..4].copy_from_slice(&SIGMA);
            x[4..12].copy_from_slice(key);
            x[12] = counter as u32;
            x[13] = (counter >> 32) as u32;
            let initial = x;
            for _ in 0..6 {
                qr(&mut x, 0, 4, 8, 12);
                qr(&mut x, 1, 5, 9, 13);
                qr(&mut x, 2, 6, 10, 14);
                qr(&mut x, 3, 7, 11, 15);
                qr(&mut x, 0, 5, 10, 15);
                qr(&mut x, 1, 6, 11, 12);
                qr(&mut x, 2, 7, 8, 13);
                qr(&mut x, 3, 4, 9, 14);
            }
            for (w, i) in x.iter_mut().zip(initial) {
                *w = w.wrapping_add(i);
            }
            x
        }

        #[test]
        fn lane_refill_matches_the_scalar_oracle() {
            // Counter 0; a lane carrying into word 13 (2^32 - 3 + 3 =
            // 2^32); lanes wrapping past u64::MAX back to 0 and 1.
            for counter in [0, (1u64 << 32) - 3, u64::MAX - 1] {
                for seed in [0, 1, 99] {
                    let mut rng = StdRng::seed_from_u64(seed);
                    rng.counter = counter;
                    rng.refill();
                    for lane in 0..LANES {
                        let want = chacha12_block(&rng.key, counter.wrapping_add(lane as u64));
                        assert_eq!(
                            rng.buf[lane * 16..(lane + 1) * 16],
                            want,
                            "seed {seed} counter {counter:#x} lane {lane}"
                        );
                    }
                    assert_eq!(rng.counter, counter.wrapping_add(LANES as u64));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    /// Literal `next_u64` output: the first eight draws and draws 30-34,
    /// which straddle the first refill (32 draws per 64-word buffer).
    /// Recorded from the one-block-at-a-time scalar kernel.
    const KNOWN_ANSWERS: [(u64, [u64; 8], [u64; 5]); 3] = [
        (
            0,
            [
                0xbb2a_3fb2_cd2c_6f7f,
                0xc601_7c94_8e27_697b,
                0x069d_c102_cf31_0a16,
                0x958b_761d_abe5_f6d0,
                0x431d_9d54_dee1_7b11,
                0xc5a0_ef11_1f71_c422,
                0x37fc_854f_1203_7913,
                0xcb30_ce1a_c9ff_61c7,
            ],
            [
                0x3780_0b8b_295b_5373,
                0xfa20_2be2_6fdc_7e07,
                0xeadd_98ee_4c0b_cc72,
                0xad5d_3511_6362_a0a5,
                0x03d8_ae10_610e_6994,
            ],
        ),
        (
            1,
            [
                0xf968_1a64_d330_1861,
                0xb0f4_d125_cc0d_694a,
                0x6d8f_c15a_3248_c9da,
                0x2cf3_3517_3764_25d3,
                0x412a_4de2_c53d_7454,
                0xf66d_22c1_8495_153b,
                0x637b_cda8_cac4_cfec,
                0xb560_cd66_ff56_cbc7,
            ],
            [
                0x7952_0305_ebd5_5ac8,
                0x3c25_aa00_0c3f_0b5d,
                0xf4c4_c9f5_06cc_05a3,
                0x43bd_0a27_cb68_f270,
                0x0d18_65b1_4bc8_0dbc,
            ],
        ),
        (
            99,
            [
                0xa19d_0a09_fd17_029c,
                0xb293_51f6_c176_6a34,
                0x39c7_c188_62dc_798a,
                0xd89c_5fd4_d1e3_1ad2,
                0xf83a_e127_21a7_dfba,
                0x202e_bf78_b83e_b0ec,
                0x52a0_8ba1_1d9a_0579,
                0xc4e0_5153_55e1_f236,
            ],
            [
                0xc6ae_0fe6_6bcb_8544,
                0x9321_0e34_a5f6_493f,
                0x1133_ee69_f615_2eec,
                0xfdd1_9280_9878_7edc,
                0xe1ca_099b_66bc_6f3c,
            ],
        ),
    ];

    #[test]
    fn stream_matches_known_answers() {
        for (seed, first, straddle) in KNOWN_ANSWERS {
            let mut rng = StdRng::seed_from_u64(seed);
            let draws: Vec<u64> = (0..35).map(|_| rng.next_u64()).collect();
            assert_eq!(draws[..8], first, "seed {seed}: first eight draws");
            assert_eq!(draws[30..35], straddle, "seed {seed}: draws 30-34");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn f64_samples_are_unit_interval_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn gen_range_hits_all_buckets_uniformly() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.gen_range(0..7usize)] += 1;
        }
        for &c in &counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn interleaving_u32_and_u64_matches_block_rng_word_order() {
        // Consume an odd number of u32s so the next u64 straddles words;
        // BlockRng reads (low, high) little-endian from consecutive words.
        let mut words = StdRng::seed_from_u64(5);
        let mut mixed = StdRng::seed_from_u64(5);
        let w: Vec<u32> = (0..4).map(|_| words.next_u32()).collect();
        assert_eq!(mixed.next_u32(), w[0]);
        let x = mixed.next_u64();
        assert_eq!(x as u32, w[1]);
        assert_eq!((x >> 32) as u32, w[2]);
    }

    #[test]
    fn next_u64_straddling_refill_keeps_order() {
        let mut a = StdRng::seed_from_u64(11);
        let mut b = StdRng::seed_from_u64(11);
        // Leave exactly one word in `a`'s buffer.
        for _ in 0..63 {
            a.next_u32();
        }
        let straddle = a.next_u64();
        for _ in 0..63 {
            b.next_u32();
        }
        let last = u64::from(b.next_u32());
        let first_of_next = u64::from(b.next_u32());
        assert_eq!(straddle, (first_of_next << 32) | last);
    }

    #[test]
    fn seed_expansion_fills_all_words() {
        // PCG expansion must not leave the seed constant across inputs.
        let a = StdRng::seed_from_u64(0);
        let b = StdRng::seed_from_u64(1);
        let mut a = a;
        let mut b = b;
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
