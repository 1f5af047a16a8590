//! The allocation contract of the session path (ROADMAP 3(b)): what an
//! `open` + `close` pair allocates does not depend on `result_capacity`
//! — the bound is a count, not a buffer — and is a few hundred bytes of
//! session state, not a preallocated channel; and a warmed send/recv
//! round allocates nothing on the client's thread.
//!
//! A counting global allocator sums the bytes requested process-wide
//! (the shard worker's side of a session counts too) and, separately,
//! per thread.
//!
//! Known cost left standing, as a number: under `Server` every result
//! allocates its `logits` `Vec` on the worker (`4 × vocab` bytes — 80 B
//! here, 512 B at the benchmark's vocab 128), because the engine's
//! `recycle` pool is only refilled by callers that hand results back and
//! the serving layer hands them to the client instead. The round test
//! below bounds the process-wide total by exactly that.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
use zskip_runtime::FrozenCharLm;
use zskip_serve::{Client, ServeConfig, Server, StreamId};

/// Sums the bytes of every allocation (alloc, zeroed alloc, the new
/// size of a realloc); memory itself comes from [`System`].
struct CountingAlloc;

static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Bytes allocated by this thread. `const` init keeps the TLS slot
    /// allocation-free to touch from inside the allocator.
    static THREAD_BYTES: Cell<u64> = const { Cell::new(0) };
}

impl CountingAlloc {
    fn record(bytes: usize) {
        PROCESS_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
        // `try_with`: allocations can happen while a thread's TLS is
        // being torn down, where `with` would panic.
        let _ = THREAD_BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// The process-wide counter sees every thread, so two measured windows
/// must not overlap: each test of this binary holds this lock.
static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

const VOCAB: usize = 20;
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// One shard, so a round trip on any stream proves — per-shard FIFO —
/// that the worker has handled every request queued before it. That is
/// how the windows below wait for the worker without polling `stats()`
/// (which allocates).
fn server(result_capacity: usize) -> Server {
    Server::start(
        FrozenCharLm::random(VOCAB, 16, 5),
        ServeConfig::for_threshold(0.2)
            .with_shards(1)
            .with_result_capacity(result_capacity),
    )
}

fn round_trip(client: &mut Client, id: StreamId, token: usize) {
    client.send(id, token).unwrap();
    assert_eq!(client.recv(id).unwrap().input, token);
}

/// Process-wide bytes allocated by `CYCLES` warmed open + close pairs
/// (plus the one fencing round trip, the same in every call).
fn open_close_bytes(result_capacity: usize) -> u64 {
    const CYCLES: usize = 256;
    let server = server(result_capacity);
    let mut client = server.client().with_recv_timeout(RECV_TIMEOUT);
    let fence = client.open().unwrap();
    let cycles = |client: &mut Client| {
        for _ in 0..CYCLES {
            let id = client.open().unwrap();
            client.close(id).unwrap();
        }
        round_trip(client, fence, 3);
    };
    // Warm-up: both session maps, the engine's slot free list and the
    // mailbox reach their steady sizes.
    cycles(&mut client);
    let before = PROCESS_BYTES.load(Ordering::Relaxed);
    cycles(&mut client);
    let bytes = PROCESS_BYTES.load(Ordering::Relaxed) - before;
    server.shutdown();
    bytes / CYCLES as u64
}

#[test]
fn an_open_close_cycle_costs_session_state_whatever_the_result_bound() {
    let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let small = open_close_bytes(4);
    let large = open_close_bytes(65_536);
    // At the parent commit `open` preallocated `sync_channel(capacity)`:
    // ≈ 57 KiB per cycle at the default 1024, ≈ 3.5 MiB at 65 536.
    assert!(
        small.abs_diff(large) <= 64,
        "an open+close cycle allocates {small} B at result_capacity 4 but {large} B at 65536: \
         the bound is being paid for up front"
    );
    assert!(
        large <= 1024,
        "an open+close cycle allocates {large} B — more than a session's state"
    );
}

#[test]
fn a_warmed_round_allocates_nothing_on_the_client_thread() {
    let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    const STREAMS: usize = 16;
    let server = server(1024);
    let mut client = server.client().with_recv_timeout(RECV_TIMEOUT);
    let ids: Vec<StreamId> = (0..STREAMS).map(|_| client.open().unwrap()).collect();
    let round = |client: &mut Client, r: usize| {
        for (i, &id) in ids.iter().enumerate() {
            client.send(id, (r + i) % VOCAB).unwrap();
        }
        // Reverse order: every `recv` but the last finds its result
        // behind the others', so the set-aside path is exercised (and
        // must be warm) too.
        for (i, &id) in ids.iter().enumerate().rev() {
            assert_eq!(client.recv(id).unwrap().input, (r + i) % VOCAB);
        }
    };
    for r in 0..32 {
        round(&mut client, r);
    }
    const ROUNDS: usize = 64;
    let process_before = PROCESS_BYTES.load(Ordering::Relaxed);
    let thread_before = THREAD_BYTES.with(Cell::get);
    for r in 0..ROUNDS {
        round(&mut client, r);
    }
    let thread_bytes = THREAD_BYTES.with(Cell::get) - thread_before;
    let process_bytes = PROCESS_BYTES.load(Ordering::Relaxed) - process_before;
    // The parent's client thread allocated nothing per round either
    // (its channels were preallocated at `open`); the mailbox must not
    // have moved that cost into the round.
    assert_eq!(
        thread_bytes, 0,
        "client thread allocated {thread_bytes} B over {ROUNDS} warmed rounds"
    );
    // What is left is the worker's: one `logits` Vec per result. (The
    // slack is the test harness reporting the previous test's result on
    // its own thread while this window is open.)
    let logits = (ROUNDS * STREAMS * VOCAB * std::mem::size_of::<f32>()) as u64;
    assert!(
        process_bytes <= logits + 4096,
        "{ROUNDS} warmed rounds allocated {process_bytes} B process-wide, \
         more than their results' logits ({logits} B)"
    );
    server.shutdown();
}
