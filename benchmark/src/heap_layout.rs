//! The allocator the benchmark binary runs under.

use std::alloc::{GlobalAlloc, Layout, System};

/// The system allocator, with every large buffer laid out the way glibc
/// lays it out in a process that has not yet freed one: on its own pages,
/// 16 bytes past the page boundary (an `mmap`ed chunk behind its header).
///
/// Kernel speed on this stack depends on where `Wh` starts: the AVX2
/// kernels issue unaligned 32-byte loads, and the same dense
/// `16×512 · 512×2048` product takes ~1.07 ms on this box when `Wh` is
/// 32-byte aligned and ~1.50 ms when it is only 16-byte aligned. glibc
/// guarantees 16. A server that loads a snapshot and serves gets the
/// `mmap` layout above (the slow case); but once a process has freed a
/// large buffer, glibc raises its `mmap` threshold and carves later ones
/// from the heap, at an offset that depends on everything allocated
/// before — so a run's speed would be decided by allocation history, and
/// would flip with any unrelated change to it. Pinning the fresh-process
/// layout makes runs repeatable and keeps them on the layout a deployed
/// server actually has.
pub struct FreshProcessLayout;

/// glibc's default `M_MMAP_THRESHOLD` (128 KiB), less its chunk header.
const LARGE_BYTES: usize = 128 * 1024 - CHUNK_HEADER;
const CHUNK_HEADER: usize = 16;
const PAGE_BYTES: usize = 4096;

impl FreshProcessLayout {
    /// The page-aligned block a large request is carved from, or `None`
    /// for requests that go to `System` unchanged: small ones, and ones
    /// asking for more alignment than a chunk header's offset provides.
    fn outer(layout: Layout) -> Option<Layout> {
        if layout.size() < LARGE_BYTES || layout.align() > CHUNK_HEADER {
            return None;
        }
        Layout::from_size_align(layout.size().checked_add(CHUNK_HEADER)?, PAGE_BYTES).ok()
    }
}

// SAFETY: `outer` is a pure function of the layout, and `realloc` is left
// at its default (alloc + copy + dealloc through this impl), so `dealloc`
// sees the layout `alloc` saw and undoes exactly what it did. A block
// handed out for a large request starts `CHUNK_HEADER` bytes into a
// `System` block that is `CHUNK_HEADER` bytes longer than the request, so
// it spans `layout.size()` bytes inside that block, and page + 16 is
// aligned to every `layout.align() <= CHUNK_HEADER` that `outer` accepts.
unsafe impl GlobalAlloc for FreshProcessLayout {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match Self::outer(layout) {
            // SAFETY: `layout` is the caller's own.
            None => unsafe { System.alloc(layout) },
            Some(outer) => {
                // SAFETY: `outer` has a non-zero size.
                let base = unsafe { System.alloc(outer) };
                if base.is_null() {
                    return base;
                }
                // SAFETY: `base` points to `outer.size() > CHUNK_HEADER`
                // bytes.
                unsafe { base.add(CHUNK_HEADER) }
            }
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        match Self::outer(layout) {
            // SAFETY: as in `alloc`.
            None => unsafe { System.alloc_zeroed(layout) },
            Some(outer) => {
                // SAFETY: as in `alloc`.
                let base = unsafe { System.alloc_zeroed(outer) };
                if base.is_null() {
                    return base;
                }
                // SAFETY: as in `alloc`.
                unsafe { base.add(CHUNK_HEADER) }
            }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        match Self::outer(layout) {
            // SAFETY: `ptr` came from `System.alloc(layout)` above.
            None => unsafe { System.dealloc(ptr, layout) },
            // SAFETY: `ptr` is `CHUNK_HEADER` bytes into the block that
            // `System.alloc(outer)` returned for this same layout.
            Some(outer) => unsafe { System.dealloc(ptr.sub(CHUNK_HEADER), outer) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The test binary runs under the same `#[global_allocator]`.
    #[test]
    fn large_buffers_sit_sixteen_bytes_past_a_page_boundary() {
        for len in [LARGE_BYTES, 1 << 20, 512 * 2048 * 4] {
            let mut v = vec![1u8; len];
            assert_eq!(v.as_ptr() as usize % PAGE_BYTES, CHUNK_HEADER, "{len}");
            // Growing reallocates through alloc + copy + dealloc.
            v.resize(2 * len, 2);
            assert_eq!(v.as_ptr() as usize % PAGE_BYTES, CHUNK_HEADER, "{len}");
            assert!(v[..len].iter().all(|b| *b == 1) && v[len..].iter().all(|b| *b == 2));
        }
        let zeroed = vec![0f32; 512 * 2048];
        assert_eq!(zeroed.as_ptr() as usize % PAGE_BYTES, CHUNK_HEADER);
        assert!(zeroed.iter().all(|x| *x == 0.0));
    }

    #[test]
    fn small_and_over_aligned_requests_are_left_to_the_system() {
        assert!(FreshProcessLayout::outer(Layout::new::<[u8; 56 * 1024]>()).is_none());
        assert!(FreshProcessLayout::outer(Layout::from_size_align(1 << 20, 64).unwrap()).is_none());
        let outer = FreshProcessLayout::outer(Layout::from_size_align(1 << 20, 4).unwrap());
        assert_eq!(
            outer,
            Some(Layout::from_size_align((1 << 20) + CHUNK_HEADER, PAGE_BYTES).unwrap())
        );
    }
}
