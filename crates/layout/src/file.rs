//! Striped array files.
//!
//! Each disk-resident array is stored in one file, striped per its
//! [`Striping`] 3-tuple. An [`ArrayFile`] combines the array's shape and
//! storage order with its striping and its per-disk base block, and maps
//! element ranges to `(disk, block, bytes)` extents — the address form the
//! I/O trace uses.

use crate::order::{linearize, StorageOrder};
use crate::pool::{DiskId, DiskPool, DiskSet};
use crate::striping::{StripeExtent, Striping};
use serde::{Deserialize, Serialize};

/// Disk block size in bytes. Every file's per-disk base is block-aligned
/// and trace addresses are in blocks of this size.
pub const BLOCK_BYTES: u64 = 512;

/// A run of bytes on one disk, in block-addressed form.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileExtent {
    /// Disk holding the run.
    pub disk: DiskId,
    /// Starting block number on the disk (absolute).
    pub start_block: u64,
    /// Byte offset within the starting block.
    pub block_offset: u64,
    /// Run length in bytes.
    pub len: u64,
}

/// A disk-resident array stored in one striped file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayFile {
    /// Array name, e.g. `"U1"`.
    pub name: String,
    /// Array extents per dimension (elements).
    pub dims: Vec<u64>,
    /// Bytes per element (8 for the double-precision arrays of the
    /// benchmarks).
    pub element_bytes: u64,
    /// Storage order on disk.
    pub order: StorageOrder,
    /// Striping 3-tuple.
    pub striping: Striping,
    /// Block number at which this file begins on *each* disk it uses.
    ///
    /// A parallel file system allocates every file the same base on each
    /// I/O node; files of one application are laid out one after another.
    pub base_block: u64,
}

impl ArrayFile {
    /// Total array size in bytes.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.dims.iter().product::<u64>() * self.element_bytes
    }

    /// Total element count.
    #[must_use]
    pub fn element_count(&self) -> u64 {
        self.dims.iter().product()
    }

    /// Bytes this file occupies on its busiest disk (for laying out the
    /// next file's `base_block`).
    #[must_use]
    pub fn per_disk_footprint_blocks(&self) -> u64 {
        let per_disk = self
            .total_bytes()
            .div_ceil(u64::from(self.striping.stripe_factor));
        per_disk.div_ceil(BLOCK_BYTES) + 1
    }

    /// File byte offset of the element with subscripts `idx`.
    #[must_use]
    pub fn byte_offset_of(&self, idx: &[u64]) -> u64 {
        linearize(&self.dims, idx, self.order) * self.element_bytes
    }

    /// Disk holding the element with subscripts `idx`.
    #[must_use]
    pub fn disk_of(&self, pool: DiskPool, idx: &[u64]) -> DiskId {
        self.striping
            .disk_for_offset(pool, self.byte_offset_of(idx))
    }

    /// The set of disks this file can ever touch.
    #[must_use]
    pub fn disk_set(&self, pool: DiskPool) -> DiskSet {
        self.striping.disk_set(pool)
    }

    /// Maps the *linear element* range `[first, first + count)` (in
    /// storage order) to block-addressed per-disk extents.
    #[must_use]
    pub fn map_elements(&self, pool: DiskPool, first: u64, count: u64) -> Vec<FileExtent> {
        debug_assert!(
            first + count <= self.element_count(),
            "element range [{first}, {}) exceeds array of {}",
            first + count,
            self.element_count()
        );
        let offset = first * self.element_bytes;
        let len = count * self.element_bytes;
        self.map_bytes(pool, offset, len)
    }

    /// Maps the file byte range `[offset, offset + len)` to block-addressed
    /// per-disk extents.
    #[must_use]
    pub fn map_bytes(&self, pool: DiskPool, offset: u64, len: u64) -> Vec<FileExtent> {
        self.byte_extents(pool, offset, len).collect()
    }

    /// The extents of [`ArrayFile::map_bytes`], produced one at a time
    /// without allocating.
    pub fn byte_extents(
        &self,
        pool: DiskPool,
        offset: u64,
        len: u64,
    ) -> impl Iterator<Item = FileExtent> {
        let base_block = self.base_block;
        self.striping
            .extents(pool, offset, len)
            .map(move |e: StripeExtent| FileExtent {
                disk: e.disk,
                start_block: base_block + e.disk_offset / BLOCK_BYTES,
                block_offset: e.disk_offset % BLOCK_BYTES,
                len: e.len,
            })
    }

    /// Re-stripes the file (the DL part of the Fig. 11/12 transformations):
    /// returns a copy with the new striping, keeping shape and order.
    #[must_use]
    pub fn restriped(&self, striping: Striping) -> ArrayFile {
        ArrayFile {
            striping,
            ..self.clone()
        }
    }

    /// Transposes the storage order (the layout transformation of
    /// Fig. 12).
    #[must_use]
    pub fn with_order(&self, order: StorageOrder) -> ArrayFile {
        ArrayFile {
            order,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file_4s() -> (DiskPool, ArrayFile) {
        // Fig. 2's U1: size 4S striped (0, 4, S); make S = 1 KiB with
        // 8-byte elements -> 512 elements total, 128 per stripe.
        let pool = DiskPool::new(4);
        let f = ArrayFile {
            name: "U1".into(),
            dims: vec![512],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: 1024,
            },
            base_block: 100,
        };
        (pool, f)
    }

    #[test]
    fn figure2_element_to_disk_mapping() {
        let (pool, f) = file_4s();
        // Elements 0..127 on disk0, 128..255 on disk1, etc.
        assert_eq!(f.disk_of(pool, &[0]), DiskId(0));
        assert_eq!(f.disk_of(pool, &[127]), DiskId(0));
        assert_eq!(f.disk_of(pool, &[128]), DiskId(1));
        assert_eq!(f.disk_of(pool, &[511]), DiskId(3));
    }

    #[test]
    fn map_elements_is_block_addressed() {
        let (pool, f) = file_4s();
        let extents = f.map_elements(pool, 0, 256);
        assert_eq!(extents.len(), 2);
        assert_eq!(extents[0].disk, DiskId(0));
        assert_eq!(extents[0].start_block, 100);
        assert_eq!(extents[0].len, 1024);
        assert_eq!(extents[1].disk, DiskId(1));
        assert_eq!(extents[1].start_block, 100);
    }

    #[test]
    fn unaligned_byte_range_carries_block_offset() {
        let (pool, f) = file_4s();
        let extents = f.map_bytes(pool, 700, 100);
        assert_eq!(extents.len(), 1);
        assert_eq!(extents[0].disk, DiskId(0));
        assert_eq!(extents[0].start_block, 100 + 700 / BLOCK_BYTES);
        assert_eq!(extents[0].block_offset, 700 % BLOCK_BYTES);
    }

    #[test]
    fn total_sizes() {
        let (_, f) = file_4s();
        assert_eq!(f.total_bytes(), 4096);
        assert_eq!(f.element_count(), 512);
    }

    #[test]
    fn footprint_covers_striped_share() {
        let (_, f) = file_4s();
        // 4096 bytes over 4 disks = 1024 bytes/disk = 2 blocks + 1 slack.
        assert_eq!(f.per_disk_footprint_blocks(), 3);
    }

    #[test]
    fn storage_order_changes_disk_of_element() {
        let pool = DiskPool::new(4);
        let f = ArrayFile {
            name: "U2".into(),
            dims: vec![64, 64],
            element_bytes: 8,
            order: StorageOrder::RowMajor,
            striping: Striping {
                start_disk: DiskId(0),
                stripe_factor: 4,
                stripe_bytes: 8 * 64, // one row per stripe
            },
            base_block: 0,
        };
        // Row-major: row i is stripe i -> disk i % 4.
        assert_eq!(f.disk_of(pool, &[0, 63]), DiskId(0));
        assert_eq!(f.disk_of(pool, &[5, 0]), DiskId(1));
        let t = f.with_order(StorageOrder::ColMajor);
        // Col-major: column j is stripe j -> walking a row hops disks.
        assert_eq!(t.disk_of(pool, &[0, 0]), DiskId(0));
        assert_eq!(t.disk_of(pool, &[0, 1]), DiskId(1));
    }

    #[test]
    fn restriped_keeps_shape() {
        let (_, f) = file_4s();
        let new = Striping {
            start_disk: DiskId(2),
            stripe_factor: 2,
            stripe_bytes: 512,
        };
        let g = f.restriped(new);
        assert_eq!(g.striping, new);
        assert_eq!(g.dims, f.dims);
        assert_eq!(g.total_bytes(), f.total_bytes());
    }

    #[test]
    fn map_elements_total_length_matches() {
        let (pool, f) = file_4s();
        let extents = f.map_elements(pool, 100, 300);
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 300 * 8);
    }
}
