//! The correctness oracle: seeded block contents, a per-block version
//! shadow, and the end-of-run sweeps over the cluster's ground truth.
//!
//! Every block's expected bytes are a pure function of `(seed, block,
//! version)`, so the shadow only stores one version number per block and
//! regenerates the bytes when it needs them.

use ajx_cluster::Cluster;
use ajx_core::Client;
use ajx_storage::StripeId;

/// One step of the SplitMix64 finalizer: a cheap, well-mixed hash of `z`.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;

/// A small deterministic generator for the workloads' op streams.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is fixed by `seed` and `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(GOLDEN))))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// A uniform draw from `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// The content key of `block` at `version` under `seed`.
fn content_key(seed: u64, block: u64, version: u32) -> u64 {
    mix(seed ^ mix(block.wrapping_mul(GOLDEN) ^ (u64::from(version) << 40)))
}

/// Fills `buf` with the expected content of `block` at `version`.
/// `buf.len()` must be a multiple of 8 (every block size here is).
pub fn fill_block(seed: u64, block: u64, version: u32, buf: &mut [u8]) {
    let key = content_key(seed, block, version);
    for (w, word) in buf.chunks_exact_mut(8).enumerate() {
        word.copy_from_slice(&mix(key.wrapping_add(w as u64 * GOLDEN)).to_le_bytes());
    }
}

/// Whether `buf` holds exactly the content of `block` at `version`.
pub fn block_matches(seed: u64, block: u64, version: u32, buf: &[u8]) -> bool {
    let key = content_key(seed, block, version);
    buf.len().is_multiple_of(8)
        && buf
            .chunks_exact(8)
            .enumerate()
            .all(|(w, word)| word == mix(key.wrapping_add(w as u64 * GOLDEN)).to_le_bytes())
}

/// The version of a block whose last write failed.
const UNKNOWN: u32 = u32::MAX;

/// The per-block version shadow of one block range `base..base + len`.
#[derive(Debug, Clone)]
pub struct Shadow {
    /// The workload seed the contents derive from.
    pub seed: u64,
    /// First logical block of the range.
    pub base: u64,
    versions: Vec<u32>,
}

impl Shadow {
    /// A shadow of `len` blocks from `base`, every block at version 0.
    pub fn new(seed: u64, base: u64, len: u64) -> Self {
        Shadow {
            seed,
            base,
            versions: vec![0; len as usize],
        }
    }

    /// Number of blocks shadowed.
    pub fn len(&self) -> u64 {
        self.versions.len() as u64
    }

    /// Whether the shadow covers no block.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// The current version of logical block `lb`.
    pub fn version(&self, lb: u64) -> u32 {
        self.versions[(lb - self.base) as usize]
    }

    /// Writes the content `lb` will have after its next write into `buf`.
    pub fn next_content(&self, lb: u64, buf: &mut [u8]) {
        fill_block(self.seed, lb, self.version(lb) + 1, buf);
    }

    /// Writes `lb`'s current expected content into `buf`.
    pub fn current_content(&self, lb: u64, buf: &mut [u8]) {
        fill_block(self.seed, lb, self.version(lb), buf);
    }

    /// Records that `lb`'s write of [`Shadow::next_content`] was acknowledged.
    pub fn bump(&mut self, lb: u64) {
        self.versions[(lb - self.base) as usize] += 1;
    }

    /// Records that a write of `lb` failed: the block may hold either
    /// content, so the oracle stops checking it.
    pub fn forget(&mut self, lb: u64) {
        self.versions[(lb - self.base) as usize] = UNKNOWN;
    }

    /// Whether the oracle still knows `lb`'s content.
    pub fn known(&self, lb: u64) -> bool {
        self.version(lb) != UNKNOWN
    }

    /// Whether `buf` is `lb`'s current expected content.
    pub fn matches(&self, lb: u64, buf: &[u8]) -> bool {
        block_matches(self.seed, lb, self.version(lb), buf)
    }
}

/// Writes every block of `shadow` at its current version through
/// `client`, `chunk` blocks per batched call.
///
/// A garbage-collection cycle after every `GC_CHUNKS` calls moves the
/// fill's write ids to the nodes' old lists and frees their swap replays
/// (a copy of each block's previous content), which would otherwise stay
/// resident until the first measured collection.
pub fn fill(client: &Client, shadow: &Shadow, chunk: u64) -> Result<(), ajx_core::ProtocolError> {
    const GC_CHUNKS: u64 = 16;
    let bs = client.config().block_size;
    let mut bufs = vec![vec![0u8; bs]; chunk as usize];
    let end = shadow.base + shadow.len();
    let mut lb = shadow.base;
    let mut calls = 0;
    while lb < end {
        let n = chunk.min(end - lb);
        for (x, buf) in bufs.iter_mut().take(n as usize).enumerate() {
            shadow.current_content(lb + x as u64, buf);
        }
        let writes: Vec<(u64, &[u8])> = bufs
            .iter()
            .take(n as usize)
            .enumerate()
            .map(|(x, b)| (lb + x as u64, b.as_slice()))
            .collect();
        client.write_blocks(&writes)?;
        lb += n;
        calls += 1;
        if calls % GC_CHUNKS == 0 || lb == end {
            client.collect_garbage()?;
        }
    }
    Ok(())
}

/// Reads `lbs` back through `client` in batched calls and returns how many
/// blocks came back wrong or failed to read. Blocks the oracle forgot are
/// skipped.
pub fn read_back(client: &Client, shadow: &Shadow, lbs: &[u64]) -> u64 {
    let lbs: Vec<u64> = lbs.iter().copied().filter(|&lb| shadow.known(lb)).collect();
    lbs.chunks(256)
        .map(|chunk| match client.read_blocks(chunk) {
            Ok(blocks) => chunk
                .iter()
                .zip(&blocks)
                .filter(|(&lb, b)| !shadow.matches(lb, b))
                .count() as u64,
            Err(_) => chunk.len() as u64,
        })
        .sum()
}

/// Sweeps `stripes` with [`Cluster::stripe_is_consistent`] and returns how
/// many fail the erasure equation (or are not back in normal mode).
pub fn inconsistent_stripes(cluster: &Cluster, stripes: std::ops::Range<u64>) -> u64 {
    stripes
        .filter(|&s| !cluster.stripe_is_consistent(StripeId(s)))
        .count() as u64
}

/// Stripes `0..count` holding logical blocks `0..blocks` under a `k`-data
/// layout.
pub fn stripes_for(blocks: u64, k: usize) -> u64 {
    blocks.div_ceil(k as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contents_depend_on_seed_block_and_version() {
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        fill_block(1, 2, 3, &mut a);
        assert!(block_matches(1, 2, 3, &a));
        for (seed, block, version) in [(2, 2, 3), (1, 3, 3), (1, 2, 4)] {
            fill_block(seed, block, version, &mut b);
            assert_ne!(a, b);
            assert!(!block_matches(seed, block, version, &a));
        }
    }

    #[test]
    fn rng_is_reproducible_and_bounded() {
        let mut a = Rng::new(7, 1);
        let mut b = Rng::new(7, 1);
        for _ in 0..1000 {
            let x = a.below(10);
            assert_eq!(x, b.below(10));
            assert!(x < 10);
        }
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
