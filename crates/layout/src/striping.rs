//! The striping 3-tuple and byte-range -> disk-extent mapping.
//!
//! A file of `L` bytes striped as `(start, factor, size)` is cut into
//! stripes of `size` bytes; stripe `s` lives on disk
//! `(start + s mod factor) mod pool`, at per-disk offset
//! `floor(s / factor) * size + (byte mod size)`. This is PVFS's layout and
//! the one Fig. 2 of the paper illustrates (array `U1` of size `4S` striped
//! `(0, 4, S)` puts stripe `k` on disk `k`).

use crate::pool::{DiskId, DiskPool, DiskSet};
use serde::{Deserialize, Serialize};

/// The striping 3-tuple `(starting disk, stripe factor, stripe size)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Striping {
    /// First disk the file is striped onto (`base` in PVFS).
    pub start_disk: DiskId,
    /// Number of disks the file is striped over (`pcount` in PVFS).
    pub stripe_factor: u32,
    /// Stripe unit size in bytes (`ssize` in PVFS).
    pub stripe_bytes: u64,
}

/// A contiguous run of file bytes resident on a single disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StripeExtent {
    /// The disk holding this run.
    pub disk: DiskId,
    /// Byte offset of the run *within the file*.
    pub file_offset: u64,
    /// Byte offset of the run *on the disk*, relative to the file's
    /// per-disk base.
    pub disk_offset: u64,
    /// Length of the run in bytes.
    pub len: u64,
}

impl Striping {
    /// The paper's default striping (Table 1): 64 KB stripes over 8 disks
    /// starting at disk 0.
    #[must_use]
    pub fn default_paper() -> Self {
        Striping {
            start_disk: DiskId(0),
            stripe_factor: 8,
            stripe_bytes: 64 * 1024,
        }
    }

    /// Structural validity against a pool: positive factor and unit size,
    /// factor within the pool, start disk within the pool.
    pub fn validate(&self, pool: DiskPool) -> Result<(), String> {
        if self.stripe_factor == 0 {
            return Err("stripe factor must be positive".into());
        }
        if self.stripe_bytes == 0 {
            return Err("stripe size must be positive".into());
        }
        if self.stripe_factor > pool.count() {
            return Err(format!(
                "stripe factor {} exceeds pool size {}",
                self.stripe_factor,
                pool.count()
            ));
        }
        if !pool.contains(self.start_disk) {
            return Err(format!(
                "start disk {} outside pool of {}",
                self.start_disk,
                pool.count()
            ));
        }
        Ok(())
    }

    /// Disk holding stripe number `stripe` (0-based within the file).
    #[must_use]
    pub fn disk_for_stripe(&self, pool: DiskPool, stripe: u64) -> DiskId {
        pool.wrap(
            self.start_disk,
            (stripe % u64::from(self.stripe_factor)) as u32,
        )
    }

    /// Disk holding the byte at `offset` within the file.
    #[must_use]
    pub fn disk_for_offset(&self, pool: DiskPool, offset: u64) -> DiskId {
        self.disk_for_stripe(pool, offset / self.stripe_bytes)
    }

    /// Per-disk byte offset (relative to the file's base on that disk) of
    /// the file byte at `offset`.
    #[must_use]
    pub fn disk_offset_of(&self, offset: u64) -> u64 {
        let stripe = offset / self.stripe_bytes;
        let local_stripe = stripe / u64::from(self.stripe_factor);
        local_stripe * self.stripe_bytes + offset % self.stripe_bytes
    }

    /// The set of disks this striping can ever touch.
    #[must_use]
    pub fn disk_set(&self, pool: DiskPool) -> DiskSet {
        (0..self.stripe_factor)
            .map(|i| pool.wrap(self.start_disk, i))
            .collect()
    }

    /// Splits the file byte range `[offset, offset + len)` into per-disk
    /// extents, in file order. Adjacent extents that land on the same disk
    /// *and* are contiguous on that disk (only possible when
    /// `stripe_factor == 1`) are merged.
    #[must_use]
    pub fn map_range(&self, pool: DiskPool, offset: u64, len: u64) -> Vec<StripeExtent> {
        self.extents(pool, offset, len).collect()
    }

    /// The extents of [`Striping::map_range`], produced one at a time
    /// without allocating.
    #[must_use]
    pub fn extents(&self, pool: DiskPool, offset: u64, len: u64) -> Extents {
        Extents {
            striping: *self,
            pool,
            cur: offset,
            end: offset + len,
        }
    }

    /// Bytes of the file range `[offset, offset + len)` that land on
    /// `disk`.
    #[must_use]
    pub fn bytes_on_disk(&self, pool: DiskPool, offset: u64, len: u64, disk: DiskId) -> u64 {
        self.extents(pool, offset, len)
            .filter(|e| e.disk == disk)
            .map(|e| e.len)
            .sum()
    }
}

/// Iterator over the per-disk extents of one file byte range; see
/// [`Striping::extents`].
#[derive(Debug, Clone)]
pub struct Extents {
    striping: Striping,
    pool: DiskPool,
    /// First byte not yet yielded.
    cur: u64,
    end: u64,
}

impl Iterator for Extents {
    type Item = StripeExtent;

    fn next(&mut self) -> Option<StripeExtent> {
        if self.cur >= self.end {
            return None;
        }
        let s = &self.striping;
        let file_offset = self.cur;
        let disk = s.disk_for_offset(self.pool, file_offset);
        let disk_offset = s.disk_offset_of(file_offset);
        let mut len = 0;
        loop {
            // The rest of the current stripe, cut at the range end.
            let run = (s.stripe_bytes - self.cur % s.stripe_bytes).min(self.end - self.cur);
            len += run;
            self.cur += run;
            // The next stripe joins this extent only if it continues it on
            // the same disk.
            if self.cur >= self.end
                || s.disk_for_offset(self.pool, self.cur) != disk
                || s.disk_offset_of(self.cur) != disk_offset + len
            {
                break;
            }
        }
        Some(StripeExtent {
            disk,
            file_offset,
            disk_offset,
            len,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool8() -> DiskPool {
        DiskPool::new(8)
    }

    #[test]
    fn paper_figure2_example() {
        // Fig. 2(b): U1 of size 4S striped (0, 4, S) -> stripe k on disk k.
        let pool = DiskPool::new(4);
        let s = 1024u64;
        let striping = Striping {
            start_disk: DiskId(0),
            stripe_factor: 4,
            stripe_bytes: s,
        };
        for k in 0..4u64 {
            assert_eq!(striping.disk_for_stripe(pool, k), DiskId(k as u32));
        }
        // First half of the file (2S bytes) touches exactly disks 0 and 1,
        // as the paper's walkthrough of the first loop nest says.
        let extents = striping.map_range(pool, 0, 2 * s);
        let disks: Vec<_> = extents.iter().map(|e| e.disk).collect();
        assert_eq!(disks, vec![DiskId(0), DiskId(1)]);
    }

    #[test]
    fn default_paper_matches_table1() {
        let s = Striping::default_paper();
        assert_eq!(s.start_disk, DiskId(0));
        assert_eq!(s.stripe_factor, 8);
        assert_eq!(s.stripe_bytes, 64 * 1024);
        assert!(s.validate(pool8()).is_ok());
    }

    #[test]
    fn round_robin_wraps_start_disk() {
        let s = Striping {
            start_disk: DiskId(6),
            stripe_factor: 4,
            stripe_bytes: 100,
        };
        let p = pool8();
        let seq: Vec<_> = (0..6).map(|k| s.disk_for_stripe(p, k)).collect();
        assert_eq!(
            seq,
            vec![
                DiskId(6),
                DiskId(7),
                DiskId(0),
                DiskId(1),
                DiskId(6),
                DiskId(7)
            ]
        );
    }

    #[test]
    fn disk_offsets_pack_local_stripes_densely() {
        let s = Striping {
            start_disk: DiskId(0),
            stripe_factor: 4,
            stripe_bytes: 100,
        };
        // Byte 0 and byte 400 both live on disk 0; 400 is its 2nd stripe.
        assert_eq!(s.disk_offset_of(0), 0);
        assert_eq!(s.disk_offset_of(400), 100);
        assert_eq!(s.disk_offset_of(450), 150);
        assert_eq!(s.disk_offset_of(99), 99);
        assert_eq!(s.disk_offset_of(100), 0); // disk 1's first stripe
    }

    #[test]
    fn map_range_covers_exactly_the_request() {
        let s = Striping::default_paper();
        let p = pool8();
        let extents = s.map_range(p, 1000, 300_000);
        let total: u64 = extents.iter().map(|e| e.len).sum();
        assert_eq!(total, 300_000);
        // Extents are in file order and non-overlapping.
        let mut cur = 1000;
        for e in &extents {
            assert_eq!(e.file_offset, cur);
            cur += e.len;
        }
    }

    #[test]
    fn map_range_merges_on_single_disk_striping() {
        let s = Striping {
            start_disk: DiskId(3),
            stripe_factor: 1,
            stripe_bytes: 64,
        };
        let extents = s.map_range(pool8(), 10, 1000);
        assert_eq!(extents.len(), 1, "factor-1 runs merge into one extent");
        assert_eq!(extents[0].disk, DiskId(3));
        assert_eq!(extents[0].len, 1000);
        assert_eq!(extents[0].disk_offset, 10);
    }

    #[test]
    fn disk_set_matches_factor() {
        let p = pool8();
        let s = Striping {
            start_disk: DiskId(5),
            stripe_factor: 4,
            stripe_bytes: 64,
        };
        let set = s.disk_set(p);
        assert_eq!(set.len(), 4);
        for d in [5u32, 6, 7, 0] {
            assert!(set.contains(DiskId(d)));
        }
    }

    #[test]
    fn bytes_on_disk_sums_to_range_length() {
        let p = pool8();
        let s = Striping::default_paper();
        let len = 1_000_000;
        let per_disk: u64 = p.disks().map(|d| s.bytes_on_disk(p, 123, len, d)).sum();
        assert_eq!(per_disk, len);
    }

    #[test]
    fn validate_flags_bad_configs() {
        let p = pool8();
        let mut s = Striping::default_paper();
        s.stripe_factor = 9;
        assert!(s.validate(p).is_err());
        s.stripe_factor = 0;
        assert!(s.validate(p).is_err());
        s = Striping::default_paper();
        s.stripe_bytes = 0;
        assert!(s.validate(p).is_err());
        s = Striping::default_paper();
        s.start_disk = DiskId(8);
        assert!(s.validate(p).is_err());
    }

    /// A stripe of 2^63 bytes ends at 2^64, past `u64`: the extents of a
    /// range that crosses its end are found without computing it.
    #[test]
    fn stripes_ending_past_u64_map_exactly() {
        let s = Striping {
            start_disk: DiskId(1),
            stripe_factor: 2,
            stripe_bytes: 1 << 63,
        };
        let extents = s.map_range(pool8(), (1 << 63) - 10, 30);
        let want = [
            StripeExtent {
                disk: DiskId(1),
                file_offset: (1 << 63) - 10,
                disk_offset: (1 << 63) - 10,
                len: 10,
            },
            StripeExtent {
                disk: DiskId(2),
                file_offset: 1 << 63,
                disk_offset: 0,
                len: 20,
            },
        ];
        assert_eq!(extents, want);
        assert!(s.extents(pool8(), 5, 10).eq([StripeExtent {
            disk: DiskId(1),
            file_offset: 5,
            disk_offset: 5,
            len: 10,
        }]));
    }

    #[test]
    fn zero_length_range_maps_to_nothing() {
        let s = Striping::default_paper();
        assert!(s.map_range(pool8(), 12345, 0).is_empty());
    }
}
