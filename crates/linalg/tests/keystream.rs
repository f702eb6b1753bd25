//! The keystream the seeded inputs are drawn from, pinned.
//!
//! Every seeded matrix in the workspace is a function of the vendored
//! ChaCha8 keystream, so its words are pinned here against hard-coded
//! values, and every way of reaching a word — sequential draws, a seek, the
//! scalar block function and each dispatched block-kernel path — must give
//! the same bits.

use greenla_linalg::simd::{self, KernelPath};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::{chacha8_block, ChaCha8Rng};

const SEED_0: [u32; 64] = [
    0x2d8ee5e8, 0xbf94d133, 0xa6da5a01, 0x3a738775, 0xc143ee06, 0x3d46ff10, 0xe9f6424f, 0x17c6ab23,
    0x2fb6898b, 0x5ce2479b, 0x86bff662, 0x0ae8099f, 0xc72f90bd, 0x5f2f09fd, 0x28e5a01f, 0x95d53efa,
    0x94efaf48, 0x1131e62b, 0x17d7a4e4, 0x9eec7e55, 0xcd4c18d1, 0xe553e127, 0x3505e613, 0xb9d551f1,
    0xd28d82a2, 0x0a1ffcc2, 0xf64a441d, 0xfc9216ba, 0x4b017931, 0xb3c61fd5, 0x23eb502b, 0xe857b19d,
    0x1bfcd6d6, 0x5a512cb9, 0x44766985, 0x029e3799, 0x3c8b61fe, 0xca6410bd, 0xbfdc08ce, 0xa2c1439d,
    0x9b51bc00, 0x0b1b48bc, 0xf73472d7, 0x88613706, 0x9362d706, 0x7e63aa45, 0xaee6c4a7, 0x04630a15,
    0x4d470010, 0x28574510, 0x0575729d, 0xe0098b0d, 0x2eaffde3, 0xfe536d45, 0xd9c15c54, 0x1195a96b,
    0xc31b76c0, 0x2fd9a984, 0x2d80213e, 0x0093931e, 0xe9511800, 0x306af4fc, 0x03f09f08, 0x3fc03cba,
];

const SEED_42: [u32; 64] = [
    0x87c91afc, 0x31159ef9, 0xb4169001, 0x17559844, 0x9ad9a69f, 0xf7d0afbf, 0xfd37495a, 0xb9207ad5,
    0x61329c11, 0x072db0db, 0xeca26593, 0x4051bc3b, 0xcc4703b6, 0xbfaab970, 0x8f89d223, 0xaff5425d,
    0x6b947e05, 0xf6875512, 0x953f9601, 0x26706e48, 0x6a9f2b2f, 0x54ff14b5, 0x150e06ce, 0x9cf9c5f7,
    0x8e1d738c, 0xe3507e34, 0x4c28e1a6, 0xc89c0205, 0x38520378, 0xb51fdc8f, 0xb1c896b5, 0x6384b6fe,
    0x13e28956, 0xa1d6606a, 0xc62320de, 0x009499f6, 0xeecf5513, 0x66e879a9, 0x49ee5d3a, 0xc96ff513,
    0x31d6b0ea, 0x21ad4a95, 0x93879897, 0x1610979f, 0xb7c99eb3, 0xc32d7ad1, 0xc7f030f3, 0x6f096b0d,
    0x6777749f, 0x1d32dd7d, 0x4b6aa339, 0xf79aed1b, 0x6ad82589, 0x0b6c8342, 0x3a4de16e, 0x987da572,
    0xc0a42ce1, 0x2b38cfc9, 0xc41d2633, 0xaac81189, 0x0d6b6a1c, 0xefd897c0, 0xbeefb700, 0xea8920dc,
];

const SEED_MAX: [u32; 64] = [
    0x60ef8644, 0x167fca9c, 0xf2f83696, 0xf792fa24, 0xdbcbe0b1, 0x71e8f282, 0x9492a6e7, 0xebaa0dca,
    0xff25b8bb, 0x438b9759, 0x5dd8c0cf, 0x3d92cea8, 0x2f5b3043, 0xe533584b, 0xe79afbc9, 0x62a4544f,
    0x3c8465a9, 0x3691a39c, 0x8277c5fc, 0x0b89def3, 0xe9acb0a3, 0x61938162, 0xe7495616, 0x874658cb,
    0x133857ef, 0xc6735925, 0x76eb6256, 0x74fbf0a0, 0x8fcdd7f3, 0x626f49c1, 0xe21e2c38, 0x8324ecf5,
    0x1a6419fe, 0x4183f3b7, 0x632d4591, 0xbcecc670, 0xcdcb6c3e, 0xeccfbd68, 0x9ac553a6, 0x2da4bf48,
    0x5b4fd83c, 0xc19f4025, 0xe4178174, 0xa95c8bca, 0x6c6a5d8e, 0x0c593088, 0xbf99368c, 0xc21cded0,
    0x0e948b35, 0x0f4b69e3, 0x48e77341, 0x58d7d7a4, 0xfd068ff6, 0x53edf90f, 0xed03b1d1, 0xf9658810,
    0x36912ca2, 0xc176d115, 0x3c2e989b, 0x80e5150c, 0x0296352f, 0x0d02366d, 0xceb18254, 0xb8301f82,
];

const GOLDEN: [(u64, [u32; 64]); 3] = [(0, SEED_0), (42, SEED_42), (u64::MAX, SEED_MAX)];

#[test]
fn sequential_words_match_the_golden_values() {
    for (seed, want) in GOLDEN {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let words: Vec<u32> = (0..64).map(|_| rng.next_u32()).collect();
        assert_eq!(words, want, "next_u32, seed {seed}");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for (k, pair) in want.chunks(2).enumerate() {
            let w = rng.next_u64();
            assert_eq!(
                (w as u32, (w >> 32) as u32),
                (pair[0], pair[1]),
                "next_u64 #{k}, seed {seed}"
            );
        }
        // A draw that straddles a block boundary: one word, then u64s.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        assert_eq!(rng.next_u32(), want[0]);
        for k in 0..31 {
            let w = rng.next_u64();
            assert_eq!(
                (w as u32, (w >> 32) as u32),
                (want[1 + 2 * k], want[2 + 2 * k]),
                "odd-aligned next_u64 #{k}, seed {seed}"
            );
        }
    }
}

/// The key words of `seed_from_u64(seed)`, as the block function takes them.
fn key_of(seed: u64) -> [u32; 8] {
    let bytes = ChaCha8Rng::seed_from_u64(seed).get_seed();
    std::array::from_fn(|i| u32::from_le_bytes(bytes[4 * i..4 * i + 4].try_into().unwrap()))
}

/// Words `from..from + len` of the stream, from the block function alone.
fn oracle_words(key: &[u32; 8], from: u128, len: usize) -> Vec<u32> {
    (from..from + len as u128)
        .map(|w| chacha8_block(key, (w / 16) as u64)[(w % 16) as usize])
        .collect()
}

#[test]
fn the_block_function_is_the_sequential_stream() {
    for (seed, want) in GOLDEN {
        assert_eq!(oracle_words(&key_of(seed), 0, 64), want, "seed {seed}");
        // The seed survives a round trip.
        let rng = ChaCha8Rng::seed_from_u64(seed);
        let mut again = ChaCha8Rng::from_seed(rng.get_seed());
        assert_eq!(again.next_u32(), want[0], "seed {seed}");
    }
}

#[test]
fn a_seek_lands_on_the_word_it_names() {
    for (seed, _) in GOLDEN {
        let key = key_of(seed);
        for pos in 0..=17u128 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.set_word_pos(pos);
            assert_eq!(rng.get_word_pos(), pos, "seed {seed}");
            let got: Vec<u32> = (0..40).map(|_| rng.next_u32()).collect();
            assert_eq!(got, oracle_words(&key, pos, 40), "seed {seed} pos {pos}");
            assert_eq!(rng.get_word_pos(), pos + 40, "seed {seed} pos {pos}");
            // `next_u64` from the same seek: two words, low first.
            rng.set_word_pos(pos);
            let w = rng.next_u64();
            assert_eq!((w as u32, (w >> 32) as u32), (got[0], got[1]), "pos {pos}");
        }
        // Sequential draws count positions the same way.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for k in 0..40u128 {
            assert_eq!(rng.get_word_pos(), k);
            rng.next_u32();
        }
    }
}

#[test]
fn the_block_counter_carries_into_its_high_word() {
    let low_max = u32::MAX as u128;
    for (seed, _) in GOLDEN {
        let key = key_of(seed);
        // Block 2^32 − 1 then block 2^32: the low counter word wraps and
        // the high one takes the carry.
        let (last_low, first_high) = (
            chacha8_block(&key, low_max as u64),
            chacha8_block(&key, 1 << 32),
        );
        assert_ne!(first_high, chacha8_block(&key, 0), "seed {seed}");
        for k in [0, 1, 8, 15] {
            let pos = low_max * 16 + k;
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            rng.set_word_pos(pos);
            // Every word left in the two blocks.
            let got: Vec<u32> = (k..32).map(|_| rng.next_u32()).collect();
            let want: Vec<u32> = last_low
                .iter()
                .chain(&first_high)
                .skip(k as usize)
                .copied()
                .collect();
            assert_eq!(got, want, "seed {seed} pos 16·(2^32−1)+{k}");
        }
        // The top of the 64-bit counter wraps to block 0.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_word_pos(u64::MAX as u128 * 16 + 15);
        assert_eq!(rng.next_u32(), chacha8_block(&key, u64::MAX)[15]);
        assert_eq!(rng.next_u32(), chacha8_block(&key, 0)[0]);
        assert_eq!(rng.get_word_pos(), 1);
    }
}

/// Every supported block-kernel path equals the scalar block function on
/// 10 000 random (seed, word position) pairs. Each pair opens one kernel
/// call of 1–40 blocks: ragged tails of every vector width, counters that
/// run consecutively from the pair's block and counters drawn at random
/// (the generators fetch several runs of a column in one call).
#[test]
fn every_kernel_path_is_the_block_function_bit_for_bit() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x6b65_7973);
    for pair in 0..10_000 {
        let seed: u64 = rng.next_u64();
        let word_pos = rng.next_u64() as u128 * 16 + rng.gen_range(0..16u64) as u128;
        let first = (word_pos / 16) as u64;
        let len = rng.gen_range(1..=40usize);
        let counters: Vec<u64> = if pair % 2 == 0 {
            (0..len as u64).map(|k| first.wrapping_add(k)).collect()
        } else {
            std::iter::once(first)
                .chain((1..len).map(|_| rng.next_u64()))
                .collect()
        };
        let key = key_of(seed);
        let want: Vec<[u32; 16]> = counters.iter().map(|&c| chacha8_block(&key, c)).collect();
        // The pair's own word, reached by a seek.
        let mut seeker = ChaCha8Rng::seed_from_u64(seed);
        seeker.set_word_pos(word_pos);
        assert_eq!(
            seeker.next_u32(),
            want[0][(word_pos % 16) as usize],
            "pair {pair}"
        );
        for path in [KernelPath::Scalar, KernelPath::Avx2, KernelPath::Avx512] {
            if !path.supported() {
                continue;
            }
            let mut got = vec![[0u32; 16]; len];
            (simd::kernels(path).chacha8)(&key, &counters, &mut got);
            assert_eq!(got, want, "{path}, pair {pair}, {len} blocks");
        }
    }
}
