//! What a session costs and how it ends, now that `open` waits for no
//! reply and a client's results share one mailbox: the shutdown races
//! stay typed errors (never a parked `recv`), and every way out of a
//! session — close, slow-consumer eviction, TTL eviction — leaves
//! nothing behind in the worker's maps or the process's memory.

use std::collections::HashSet;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use zskip_runtime::FrozenCharLm;
use zskip_serve::{Client, ServeConfig, ServeError, Server, StreamId};

/// The soak compares process RSS between its halves, so the tests of
/// this binary run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn model() -> FrozenCharLm {
    FrozenCharLm::random(20, 16, 5)
}

/// A hung `recv` must fail the test, not hang it.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);

#[test]
fn open_raced_behind_shutdown_surfaces_as_evicted() {
    let _serial = serial();
    // One shard, kept stepping by a long single-stream burst: once the
    // worker dequeues `Shutdown` it stays in its final drain for the
    // rest of the burst, and every `open` issued meanwhile lands behind
    // the marker. (Which opens those are is not observable from outside
    // — the contract is the same either way: an id `open` returned
    // resolves to `Evicted`, whether the worker served the request and
    // then exited or rejected it.)
    const BURST: usize = 20_000;
    const OPENS: usize = 2048;
    let server = Server::start(
        model(),
        ServeConfig::for_threshold(0.2)
            .with_shards(1)
            .with_result_capacity(BURST),
    );
    let mut feeder = server.client();
    let busy = feeder.open().unwrap();
    let burst: Vec<usize> = (0..BURST).map(|t| t % 20).collect();
    feeder.send_all(busy, &burst).unwrap();

    let mut client = server.client().with_recv_timeout(RECV_TIMEOUT);
    let stopper = std::thread::spawn(move || server.shutdown());
    let mut ids = Vec::new();
    while ids.len() < OPENS {
        match client.open() {
            Ok(id) => ids.push(id),
            Err(ServeError::ServerClosed) => break,
            Err(e) => panic!("unexpected open error: {e:?}"),
        }
    }
    stopper.join().expect("shutdown thread");
    assert!(!ids.is_empty(), "no open got in before the worker exited");
    for id in ids {
        assert_eq!(client.recv(id), Err(ServeError::Evicted));
        assert_eq!(client.recv(id), Err(ServeError::UnknownStream));
    }
    // With every stream gone, the select-style receive reports it too.
    assert_eq!(
        client.recv_any(RECV_TIMEOUT),
        Err(ServeError::UnknownStream)
    );
    assert!(matches!(client.open(), Err(ServeError::ServerClosed)));
    // The burst's own results were flushed before the worker exited.
    let mut feeder = feeder.with_recv_timeout(RECV_TIMEOUT);
    for &t in &burst {
        assert_eq!(feeder.recv(busy).unwrap().input, t);
    }
    assert_eq!(feeder.recv(busy), Err(ServeError::Evicted));
}

#[test]
fn recv_after_all_shards_exit_drains_then_reports_evicted() {
    let _serial = serial();
    const TOKENS: usize = 5;
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(2));
    let mut by_stream = server.client().with_recv_timeout(RECV_TIMEOUT);
    let mut any = server.client();
    let streams: Vec<StreamId> = (0..6).map(|_| by_stream.open().unwrap()).collect();
    let any_streams: Vec<StreamId> = (0..6).map(|_| any.open().unwrap()).collect();
    let shards: HashSet<usize> = streams.iter().map(StreamId::shard).collect();
    assert_eq!(shards.len(), 2, "six tickets hash onto both shards");
    for t in 0..TOKENS {
        for (&a, &b) in streams.iter().zip(&any_streams) {
            by_stream.send(a, t).unwrap();
            any.send(b, t).unwrap();
        }
    }
    let idle = by_stream.open().unwrap();
    server.shutdown(); // joins both workers

    // Everything the engines accepted was delivered before the join;
    // behind it sits one eviction notice per stream.
    for &s in &streams {
        for t in 0..TOKENS {
            assert_eq!(by_stream.recv(s).unwrap().input, t);
        }
        assert_eq!(by_stream.recv(s), Err(ServeError::Evicted));
        assert_eq!(by_stream.recv(s), Err(ServeError::UnknownStream));
    }
    assert_eq!(by_stream.recv(idle), Err(ServeError::Evicted));
    assert_eq!(by_stream.open_streams(), 0);

    let mut seen = vec![0usize; any_streams.len()];
    for _ in 0..TOKENS * any_streams.len() {
        let (id, result) = any.recv_any(RECV_TIMEOUT).unwrap();
        let slot = any_streams.iter().position(|&s| s == id).unwrap();
        assert_eq!(result.input, seen[slot]);
        seen[slot] += 1;
    }
    assert_eq!(any.recv_any(RECV_TIMEOUT), Err(ServeError::UnknownStream));
    assert_eq!(any.open_streams(), 0);
}

/// Resident set size of this process in bytes (`None` off Linux).
fn rss_bytes() -> Option<usize> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: usize = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// What one soak worker (one client, one thread) saw.
#[derive(Default)]
struct Seen {
    ids: Vec<StreamId>,
    cycles: usize,
    slow_evictions: usize,
    ttl_evictions: usize,
}

const CAPACITY: usize = 4;

/// At least `cycles` open → send → recv → close cycles, `slow`
/// slow-consumer evictions spread among them, and `idle` streams left to
/// the TTL sweep for the whole run. A cycle whose stream crossed the TTL
/// before its token was served (a starved worker) is retried, as in
/// `idle_sessions_are_ttl_evicted_and_recv_reports_it`.
fn churn(client: &mut Client, seen: &mut Seen, cycles: usize, slow: usize, idle: usize) {
    let idle: Vec<StreamId> = (0..idle).map(|_| client.open().unwrap()).collect();
    seen.ids.extend(&idle);
    // The slow consumer in flight, and how many more cycles must
    // complete on its shard before it is certainly evicted: it submitted
    // 2 × CAPACITY tokens ahead of those cycles' (per-shard FIFO), the
    // engine serves a ready session one token per step, and every cycle
    // needs a step of its own — so after that many the worker has tried
    // all of them, hit the bound and evicted. No sleep, no stats poll.
    let mut slow_pending: Option<(StreamId, usize)> = None;
    let (mut done, mut slow_done) = (0, 0);
    while done < cycles || slow_pending.is_some() {
        let s = client.open().unwrap();
        seen.ids.push(s);
        match client.send(s, done % 20).and_then(|()| client.recv(s)) {
            Ok(result) => {
                assert_eq!(result.input, done % 20);
                client.close(s).unwrap();
                done += 1;
            }
            Err(ServeError::Evicted | ServeError::UnknownStream) => continue,
            Err(e) => panic!("unexpected cycle error: {e:?}"),
        }
        match &mut slow_pending {
            Some((stalled, left)) if stalled.shard() == s.shard() => {
                *left -= 1;
                if *left == 0 {
                    // Its first CAPACITY results were set aside by the
                    // cycles' `recv`s; behind them sits the eviction.
                    // (Fewer only if the TTL got to the stream before
                    // its tokens did.)
                    let mut got = 0;
                    let evicted = loop {
                        match client.recv(*stalled) {
                            Ok(_) => got += 1,
                            Err(e) => break e,
                        }
                    };
                    assert_eq!(evicted, ServeError::Evicted);
                    assert!(got <= CAPACITY, "{got} results past a bound of {CAPACITY}");
                    seen.slow_evictions += 1;
                    slow_pending = None;
                }
            }
            Some(_) => {}
            None if slow_done < slow && done * slow >= slow_done * cycles => {
                // Submit past the bound and do not receive.
                let stalled = client.open().unwrap();
                seen.ids.push(stalled);
                for t in 0..2 * CAPACITY {
                    client.send(stalled, t).unwrap();
                }
                slow_pending = Some((stalled, 2 * CAPACITY));
                slow_done += 1;
            }
            None => {}
        }
    }
    seen.cycles += done;
    for s in idle {
        assert_eq!(client.recv(s), Err(ServeError::Evicted));
        seen.ttl_evictions += 1;
    }
}

#[test]
fn every_way_out_of_a_session_clears_every_map() {
    let _serial = serial();
    const CYCLES: usize = 20_000;
    const SLOW: usize = 200;
    const IDLE: usize = 50;
    let server = Server::start(
        model(),
        ServeConfig::for_threshold(0.2)
            .with_shards(2)
            .with_result_capacity(CAPACITY)
            .with_session_ttl(Duration::from_millis(30)),
    );
    let mut clients = [
        server.client().with_recv_timeout(RECV_TIMEOUT),
        server.client().with_recv_timeout(RECV_TIMEOUT),
    ];
    let mut seen = [Seen::default(), Seen::default()];
    // The id lists are the one thing that must grow; reserved up front,
    // they cost the second half 16 B per id and no reallocation.
    for seen in &mut seen {
        seen.ids.reserve(CYCLES);
    }
    let half = |clients: &mut [Client; 2], seen: &mut [Seen; 2]| {
        std::thread::scope(|scope| {
            // 13 + 12 idle streams per half: 50 TTL evictions in all.
            for ((client, seen), idle) in clients.iter_mut().zip(seen.iter_mut()).zip([13, 12]) {
                scope.spawn(move || churn(client, seen, CYCLES / 4, SLOW / 4, idle));
            }
        });
        rss_bytes()
    };
    let first = half(&mut clients, &mut seen);
    let second = half(&mut clients, &mut seen);

    let cycles: usize = seen.iter().map(|s| s.cycles).sum();
    let slow: usize = seen.iter().map(|s| s.slow_evictions).sum();
    let ttl: usize = seen.iter().map(|s| s.ttl_evictions).sum();
    assert!(cycles >= CYCLES, "{cycles} cycles");
    assert_eq!((slow, ttl), (SLOW, IDLE));

    // Closes are asynchronous: wait for the shard queues to drain.
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.stats().open_sessions() > 0 {
        assert!(
            Instant::now() < deadline,
            "sessions leaked: {}",
            server.stats()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.stats();
    assert!(stats.evicted_sessions() >= (slow + ttl) as u64);
    assert_eq!(stats.queue_depth(), 0);

    // Never-reused keys: every id ever handed out is distinct, and every
    // one of them is stale now — for its own client and the other one.
    let all: HashSet<StreamId> = seen.iter().flat_map(|s| &s.ids).copied().collect();
    assert_eq!(all.len(), seen.iter().map(|s| s.ids.len()).sum::<usize>());
    assert!(all.len() >= CYCLES + SLOW + ttl);
    for (own, seen) in seen.iter().enumerate() {
        for &id in &seen.ids {
            for client in [own, 1 - own] {
                assert_eq!(clients[client].send(id, 1), Err(ServeError::UnknownStream));
                assert_eq!(clients[client].recv(id), Err(ServeError::UnknownStream));
            }
        }
    }
    assert_eq!(clients[0].open_streams() + clients[1].open_streams(), 0);

    if let (Some(first), Some(second)) = (first, second) {
        let grown = second.saturating_sub(first);
        assert!(
            grown <= 1 << 20,
            "RSS grew {grown} B over the second {} cycles ({first} → {second}): \
             something a session owned outlived it",
            CYCLES / 2
        );
    }
    server.shutdown();
}
