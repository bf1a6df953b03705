//! An address-space region allocator: first-fit over a sorted free
//! list with coalescing on free.
//!
//! [`crate::GpuDevice`] uses it to give every allocation a concrete
//! offset, which makes *external fragmentation* observable — the
//! phenomenon the paper blames for Menos' release/re-collection
//! overhead growing with client count (Table 2).

/// A free or allocated region `[offset, offset + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Start address in bytes.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Region {
    fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// First-fit allocator over a contiguous address space.
///
/// # Examples
///
/// ```
/// use menos_gpu::RegionAllocator;
///
/// let mut a = RegionAllocator::new(100);
/// let r1 = a.alloc(40).unwrap();
/// let r2 = a.alloc(40).unwrap();
/// assert_eq!((r1.offset, r2.offset), (0, 40));
/// a.free(r1);
/// // First-fit reuses the hole at the front.
/// assert_eq!(a.alloc(30).unwrap().offset, 0);
/// ```
#[derive(Debug, Clone)]
pub struct RegionAllocator {
    capacity: u64,
    // Sorted by offset; no two regions adjacent (always coalesced).
    free: Vec<Region>,
}

impl RegionAllocator {
    /// Creates an allocator over `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        RegionAllocator {
            capacity,
            free: vec![Region {
                offset: 0,
                len: capacity,
            }],
        }
    }

    /// Total address space.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Total free bytes (may be scattered).
    fn free_bytes(&self) -> u64 {
        self.free.iter().map(|r| r.len).sum()
    }

    /// Largest single free region.
    pub fn largest_free(&self) -> u64 {
        self.free.iter().map(|r| r.len).max().unwrap_or(0)
    }

    /// External fragmentation in `[0, 1]`: `1 - largest_free /
    /// free_bytes` (zero when free space is one contiguous region or
    /// exhausted).
    pub fn fragmentation(&self) -> f64 {
        let total = self.free_bytes();
        if total == 0 {
            return 0.0;
        }
        1.0 - self.largest_free() as f64 / total as f64
    }

    /// Allocates `len` bytes at the first fitting offset, or `None` if
    /// no single free region is large enough (even when the *total*
    /// free bytes would suffice — that is external fragmentation).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn alloc(&mut self, len: u64) -> Option<Region> {
        assert!(len > 0, "zero-length allocation");
        let idx = self.free.iter().position(|r| r.len >= len)?;
        let region = self.free[idx];
        let out = Region {
            offset: region.offset,
            len,
        };
        if region.len == len {
            self.free.remove(idx);
        } else {
            self.free[idx] = Region {
                offset: region.offset + len,
                len: region.len - len,
            };
        }
        Some(out)
    }

    /// Returns a region to the free list, coalescing with neighbours.
    ///
    /// # Panics
    ///
    /// Panics if the region overlaps free space or exceeds the address
    /// space — double frees and corruption are logic errors.
    pub fn free(&mut self, region: Region) {
        assert!(region.end() <= self.capacity, "region beyond capacity");
        // Find insertion point by offset.
        let idx = self.free.partition_point(|r| r.offset < region.offset);
        if idx > 0 {
            assert!(
                self.free[idx - 1].end() <= region.offset,
                "double free or overlap with previous hole"
            );
        }
        if idx < self.free.len() {
            assert!(
                region.end() <= self.free[idx].offset,
                "double free or overlap with next hole"
            );
        }
        self.free.insert(idx, region);
        // Coalesce with next, then previous.
        if idx + 1 < self.free.len() && self.free[idx].end() == self.free[idx + 1].offset {
            self.free[idx].len += self.free[idx + 1].len;
            self.free.remove(idx + 1);
        }
        if idx > 0 && self.free[idx - 1].end() == self.free[idx].offset {
            self.free[idx - 1].len += self.free[idx].len;
            self.free.remove(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_round_trip_restores_one_region() {
        let mut a = RegionAllocator::new(100);
        let r1 = a.alloc(30).unwrap();
        let r2 = a.alloc(30).unwrap();
        let r3 = a.alloc(40).unwrap();
        assert_eq!(a.free_bytes(), 0);
        assert!(a.alloc(1).is_none());
        // Free out of order; coalescing must leave one hole.
        a.free(r2);
        a.free(r1);
        a.free(r3);
        assert_eq!(a.free.len(), 1);
        assert_eq!(a.free_bytes(), 100);
        assert_eq!(a.fragmentation(), 0.0);
    }

    #[test]
    fn external_fragmentation_blocks_large_allocs() {
        let mut a = RegionAllocator::new(100);
        let regions: Vec<Region> = (0..10).map(|_| a.alloc(10).unwrap()).collect();
        // Free every other region: 50 bytes free, but max hole is 10.
        for r in regions.iter().step_by(2) {
            a.free(*r);
        }
        assert_eq!(a.free_bytes(), 50);
        assert_eq!(a.largest_free(), 10);
        assert!(
            a.alloc(20).is_none(),
            "fragmented space rejects large alloc"
        );
        assert!(a.fragmentation() > 0.7);
        assert_eq!(a.free.len(), 5);
    }

    #[test]
    fn first_fit_prefers_lowest_offset() {
        let mut a = RegionAllocator::new(100);
        let r1 = a.alloc(20).unwrap();
        let _r2 = a.alloc(20).unwrap();
        let r3 = a.alloc(20).unwrap();
        a.free(r1);
        a.free(r3);
        // Two holes (0..20 and 40..60): first-fit takes the first.
        assert_eq!(a.alloc(10).unwrap().offset, 0);
        // A 20-byte request no longer fits hole 0 (10 left) -> hole 40.
        assert_eq!(a.alloc(20).unwrap().offset, 40);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_detected() {
        let mut a = RegionAllocator::new(100);
        let r = a.alloc(10).unwrap();
        a.free(r);
        a.free(r);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn out_of_bounds_free_detected() {
        let mut a = RegionAllocator::new(100);
        a.free(Region {
            offset: 90,
            len: 20,
        });
    }

    #[test]
    fn exact_fit_consumes_hole() {
        let mut a = RegionAllocator::new(50);
        let r = a.alloc(50).unwrap();
        assert_eq!(a.free.len(), 0);
        a.free(r);
        assert_eq!(a.free.len(), 1);
    }
}
