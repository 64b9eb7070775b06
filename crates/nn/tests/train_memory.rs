//! Training-memory gate: once warm, a training pass of the recurrent
//! model allocates nothing. A counting global allocator counts the
//! allocations of one `shard_gradients` call (recording forward, loss,
//! backward) for both cells, with every component training and with the
//! bottom two frozen, as transfer-learning adaptation runs it. The weight
//! panels packed once per pass and the buffers a frozen pass skips come
//! from the worker's scratch, so they must not allocate either.
//!
//! This file holds one test so that no other test thread allocates
//! while it counts.

use nfv_nn::{
    GradientSet, GruLayer, LstmLayer, RecurrentCell, RecurrentModel, RecurrentScratch, SeqView,
    SequenceModelConfig, ShardedBatchLoss,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting allocations and reallocations. Relaxed
/// ordering: the counter publishes no other data.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping only
// updates an atomic.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Calls before counting. The scratch's buffer pool reaches its steady
/// state within a few passes (one pass is not enough: a pooled buffer
/// can still grow once when the pass takes it for a larger shape).
const WARM_UP: usize = 50;
const BATCH: usize = 64;
const SHARD: usize = 16;

/// Allocations of one `shard_gradients` call after [`WARM_UP`] calls,
/// on a two-layer model at pipeline shape (window 10, 16-row shards of
/// a 64-window batch) with the bottom `frozen` components frozen.
fn allocations_of_one_pass<C: RecurrentCell>(frozen: usize) -> usize {
    let mut rng = SmallRng::seed_from_u64(5);
    let cfg = SequenceModelConfig {
        vocab: 24,
        embed_dim: 6,
        hidden: 8,
        layers: 2,
        use_gap_feature: true,
    };
    let ids: Vec<Vec<usize>> =
        (0..BATCH).map(|_| (0..10).map(|_| rng.gen_range(0..cfg.vocab)).collect()).collect();
    let gaps: Vec<Vec<f32>> =
        (0..BATCH).map(|_| (0..10).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
    let targets: Vec<usize> = (0..BATCH).map(|_| rng.gen_range(0..cfg.vocab)).collect();
    let view = SeqView { ids: &ids, gaps: &gaps, targets: &targets };
    let mut model = RecurrentModel::<C>::new(cfg, &mut rng);
    model.set_frozen_bottom(frozen);

    let order: Vec<usize> = (0..BATCH).collect();
    let mut shards = order.chunks(SHARD).cycle();
    let mut scratch = RecurrentScratch::default();
    let mut grads = GradientSet::new(&model.param_shapes());
    let mut pass = |model: &RecurrentModel<C>| {
        let shard = shards.next().expect("a cycle never ends");
        model.shard_gradients(&view, shard, BATCH, &mut scratch, &mut grads);
    };
    for _ in 0..WARM_UP {
        pass(&model);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    pass(&model);
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn a_warm_training_pass_allocates_nothing() {
    for frozen in [0, 2] {
        let lstm = allocations_of_one_pass::<LstmLayer>(frozen);
        let gru = allocations_of_one_pass::<GruLayer>(frozen);
        assert_eq!((lstm, gru), (0, 0), "allocations (LSTM, GRU) at frozen_bottom {frozen}");
    }
}
