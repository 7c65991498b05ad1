//! Allocation bound of the low-rank hot path: after warm-up, an ACP-SGD
//! step compresses from and decompresses into the fusion bucket and keeps
//! its error feedback in place, so it allocates only rank-`r` factors and
//! payloads — far less than one copy of the dense gradient.
//!
//! The counting allocator sees every thread, so this binary holds a single
//! test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use acp_collectives::LocalCommunicator;
use acp_core::{AcpSgdAggregator, AcpSgdConfig, DistributedOptimizer, GradViewMut};

/// The system allocator, counting the bytes it hands out.
struct Counting;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed atomic with no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const ROWS: usize = 1024;
const COLS: usize = 256;
const BIAS: usize = 256;
const WARMUP_STEPS: usize = 3;

#[test]
fn acp_step_allocates_less_than_one_dense_gradient() {
    let mut opt = AcpSgdAggregator::new(AcpSgdConfig::default());
    let mut comm = LocalCommunicator::new();
    let dims = [vec![ROWS, COLS], vec![BIAS]];
    let mut weight: Vec<f32> = (0..ROWS * COLS).map(|i| (i as f32 * 0.01).sin()).collect();
    let mut bias: Vec<f32> = (0..BIAS).map(|i| (i as f32 * 0.1).cos()).collect();
    let dense_bytes = 4 * (weight.len() + bias.len());
    // Warm-up builds the bucket plan, the compressor state and both the P-
    // and the Q-step queries; then one P-step and one Q-step are measured.
    for step in 0..WARMUP_STEPS + 2 {
        let mut views = [
            GradViewMut {
                dims: &dims[0],
                grad: &mut weight,
            },
            GradViewMut {
                dims: &dims[1],
                grad: &mut bias,
            },
        ];
        let before = ALLOCATED.load(Ordering::Relaxed);
        opt.aggregate(&mut views, &mut comm).expect("aggregate");
        let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
        if step >= WARMUP_STEPS {
            assert!(
                allocated < dense_bytes,
                "step {step} allocated {allocated} bytes, dense gradient is {dense_bytes}"
            );
        }
    }
}
