//! Behavioral contracts of the serving layer: backpressure, TTL
//! eviction, deadline accounting, stale handles, stats, shutdown.

use std::time::Duration;
use zskip_runtime::{EngineError, FrozenCharLm, FrozenQuantizedCharLm};
use zskip_serve::{LoadConfig, LoadGenerator, ServeConfig, ServeError, Server, StreamId};

fn model() -> FrozenCharLm {
    FrozenCharLm::random(20, 16, 5)
}

#[test]
fn round_trip_and_stats() {
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(2));
    let mut client = server.client();
    let a = client.open().unwrap();
    let b = client.open().unwrap();
    for t in 0..5 {
        client.send(a, t).unwrap();
        client.send(b, t + 5).unwrap();
    }
    for _ in 0..5 {
        assert_eq!(client.recv(a).unwrap().logits.len(), 20);
        assert_eq!(client.recv(b).unwrap().logits.len(), 20);
    }
    let stats = server.stats();
    assert_eq!(stats.shards.len(), 2);
    assert_eq!(stats.submitted(), 10);
    assert_eq!(stats.delivered(), 10);
    assert_eq!(stats.open_sessions(), 2);
    assert!(stats.steps() > 0);
    // Every submitted request was dequeued (its result arrived), so the
    // depth gauge must be back to zero — and must not have underflowed.
    assert_eq!(stats.queue_depth(), 0);
    client.close(a).unwrap();
    client.close(b).unwrap();
    server.shutdown();
}

#[test]
fn results_arrive_in_submit_order() {
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(1));
    let mut client = server.client();
    let s = client.open().unwrap();
    let tokens: Vec<usize> = (0..12).map(|t| (t * 3 + 1) % 20).collect();
    for &t in &tokens {
        client.send(s, t).unwrap();
    }
    for &t in &tokens {
        assert_eq!(client.recv(s).unwrap().input, t);
    }
    server.shutdown();
}

#[test]
fn recv_any_returns_the_next_result_from_any_stream() {
    // One driver thread owns several streams; recv_any surfaces whichever
    // stream produced a result, without the driver polling each one.
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(2));
    let mut client = server.client();
    let streams: Vec<_> = (0..3).map(|_| client.open().unwrap()).collect();

    // Only the middle stream speaks: recv_any must attribute the result
    // to it.
    client.send(streams[1], 4).unwrap();
    let (id, result) = client.recv_any(Duration::from_secs(5)).unwrap();
    assert_eq!(id, streams[1]);
    assert_eq!(result.input, 4);

    // All streams speak: three recv_any calls drain one result each, and
    // every stream is represented exactly once (the rotating cursor keeps
    // a chatty stream from shadowing the rest).
    for (i, &s) in streams.iter().enumerate() {
        client.send(s, i).unwrap();
    }
    let mut seen: Vec<StreamId> = (0..3)
        .map(|_| client.recv_any(Duration::from_secs(5)).unwrap().0)
        .collect();
    seen.sort_unstable();
    let mut expected = streams.clone();
    expected.sort_unstable();
    assert_eq!(seen, expected);
    server.shutdown();
}

#[test]
fn recv_any_times_out_and_reports_an_empty_stream_set() {
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(1));
    let mut client = server.client();
    // No streams at all: nothing could ever arrive.
    assert_eq!(
        client.recv_any(Duration::from_millis(10)),
        Err(ServeError::UnknownStream)
    );
    // Streams open but silent: the timeout fires.
    let _s = client.open().unwrap();
    assert_eq!(
        client.recv_any(Duration::from_millis(30)),
        Err(ServeError::RecvTimeout)
    );
    server.shutdown();
}

#[test]
fn recv_any_drops_evicted_streams_and_keeps_waiting_on_the_rest() {
    // One stream is TTL-evicted while another still produces: recv_any
    // must forget the dead stream (like recv does) and deliver from the
    // live one.
    let server = Server::start(
        model(),
        ServeConfig::for_threshold(0.2)
            .with_shards(1)
            .with_session_ttl(Duration::from_millis(30)),
    );
    let mut client = server.client();
    let dead = client.open().unwrap();
    std::thread::sleep(Duration::from_millis(200)); // `dead` expires
    let (id, live, result) = (0..50)
        .find_map(|_| {
            let live = client.open().unwrap();
            // Under scheduler starvation even this fresh stream can
            // cross the 30 ms TTL before its submit is processed, which
            // recv_any correctly reports (UnknownStream once every
            // stream is gone) — reopen and retry; the property under
            // test is that a dead member stream never wedges the wait.
            match client
                .send(live, 2)
                .and_then(|()| client.recv_any(Duration::from_secs(5)))
            {
                Ok((id, result)) => Some((id, live, result)),
                Err(ServeError::UnknownStream | ServeError::Evicted) => None,
                Err(e) => panic!("unexpected recv_any error: {e:?}"),
            }
        })
        .expect("one retry survives the TTL");
    assert_eq!(id, live);
    assert_eq!(result.input, 2);
    // The evicted stream was dropped from the client during a wait (or,
    // if no sweep ever reached it, its next recv observes the dropped
    // channel) — either way the handle fails loudly.
    assert!(matches!(
        client.recv(dead),
        Err(ServeError::UnknownStream | ServeError::Evicted)
    ));
    server.shutdown();
}

#[test]
fn recv_any_wakes_on_delivery_not_on_a_polling_interval() {
    // The receive path is notification-driven: the worker signals the
    // client's wakeup channel on every delivery, so a blocked recv_any
    // wakes when the result exists — not up to a park interval later.
    // The old implementation swept every 200 µs, so 150 send→recv_any
    // round trips (each recv_any issued before the worker can have
    // stepped, i.e. each one parks) structurally cost ≥ ~30 ms in parks
    // alone; the wakeup path completes the whole loop in ~1–2 ms.
    //
    // Wall-clock assertions on shared CI hosts are noisy: a single
    // descheduling spike can blow any single attempt's budget. The old
    // implementation's cost is structural (every attempt parks), so a
    // best-of-several policy discriminates cleanly: one attempt inside
    // budget proves the notification path; park-and-sweep can never
    // produce one.
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(1));
    let mut client = server.client();
    let s = client.open().unwrap();
    // Warm the path (thread spawn, first-step scratch growth).
    client.send(s, 1).unwrap();
    client.recv_any(Duration::from_secs(5)).unwrap();

    const ROUND_TRIPS: usize = 150;
    const ATTEMPTS: usize = 5;
    let budget = Duration::from_micros(200 * ROUND_TRIPS as u64);
    let mut best = Duration::MAX;
    for _ in 0..ATTEMPTS {
        let start = std::time::Instant::now();
        for t in 0..ROUND_TRIPS {
            client.send(s, t % 20).unwrap();
            let (id, result) = client.recv_any(Duration::from_secs(5)).unwrap();
            assert_eq!(id, s);
            assert_eq!(result.input, t % 20);
        }
        best = best.min(start.elapsed());
        if best < budget {
            break;
        }
    }
    assert!(
        best < budget,
        "best of {ATTEMPTS} × {ROUND_TRIPS} send→recv_any round trips took {best:?} — \
         ≥ {budget:?} means the receive path is parking on an interval \
         instead of waking on delivery"
    );
    server.shutdown();
}

#[test]
fn send_all_accounts_and_delivers_like_per_input_sends() {
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(1));
    let mut client = server.client();
    let s = client.open().unwrap();
    let tokens: Vec<usize> = (0..9).map(|t| (t * 5 + 2) % 20).collect();
    client.send_all(s, &tokens).unwrap();
    for &t in &tokens {
        assert_eq!(client.recv(s).unwrap().input, t);
    }
    let stats = server.stats();
    assert_eq!(stats.submitted(), tokens.len() as u64);
    assert_eq!(stats.delivered(), tokens.len() as u64);

    // Validation is all-or-nothing and up front: one bad token rejects
    // the whole burst before anything reaches the queue.
    assert_eq!(
        client.send_all(s, &[1, 2, 999]),
        Err(ServeError::Engine(EngineError::InvalidInput))
    );
    assert_eq!(server.stats().submitted(), tokens.len() as u64);

    // Empty bursts and stale handles behave like `send`.
    client.send_all(s, &[]).unwrap();
    client.close(s).unwrap();
    assert_eq!(client.send_all(s, &[1]), Err(ServeError::UnknownStream));
    server.shutdown();
}

#[test]
fn try_send_reports_backpressure_on_a_full_queue() {
    // Capacity-1 queue, and the worker is likely parked between requests;
    // flooding with try_send must eventually see a full queue rather than
    // buffer without bound.
    let server = Server::start(
        model(),
        ServeConfig::for_threshold(0.2)
            .with_shards(1)
            .with_queue_capacity(1),
    );
    let mut client = server.client();
    let s = client.open().unwrap();
    let mut saw_backpressure = false;
    for t in 0..200 {
        match client.try_send(s, t % 20) {
            Ok(()) => {}
            Err(ServeError::Backpressure) => {
                saw_backpressure = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(
        saw_backpressure,
        "200 try_sends never hit a capacity-1 queue"
    );
    // Blocking send still gets through.
    client.send(s, 3).unwrap();
    server.shutdown();
}

#[test]
fn idle_sessions_are_ttl_evicted_and_recv_reports_it() {
    let server = Server::start(
        model(),
        ServeConfig::for_threshold(0.2)
            .with_shards(1)
            .with_session_ttl(Duration::from_millis(30)),
    );
    let mut client = server.client().with_recv_timeout(Duration::from_secs(2));
    // Even a fresh stream can cross the 30 ms TTL before its first
    // submit is processed when the scheduler starves the worker — the
    // same race `recv_any_drops_evicted_streams…` retries around. The
    // property under test is eviction *reporting*, not first-try luck,
    // so retry until one stream completes a round trip.
    let mut opened = 0u64;
    let s = (0..50)
        .find_map(|_| {
            let s = client.open().unwrap();
            opened += 1;
            match client.send(s, 1).and_then(|()| client.recv(s)) {
                Ok(_) => Some(s),
                Err(ServeError::Evicted | ServeError::UnknownStream) => None,
                Err(e) => panic!("unexpected round-trip error: {e:?}"),
            }
        })
        .expect("one retry beats the TTL");
    // Go idle past the TTL. The sweep runs on the worker's own clock,
    // so poll for the eviction instead of trusting a single sleep —
    // every opened session (survivor and failed retries) must go.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().open_sessions() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "TTL sweep never evicted the idle sessions"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(client.recv(s), Err(ServeError::Evicted));
    // The handle is forgotten client-side too.
    assert_eq!(client.recv(s), Err(ServeError::UnknownStream));
    let stats = server.stats();
    assert_eq!(stats.evicted_sessions(), opened);
    assert_eq!(stats.open_sessions(), 0);
    server.shutdown();
}

#[test]
fn deadline_misses_are_counted_but_tokens_still_served() {
    // A zero-ish deadline: every delivery is "late", yet every token is
    // processed (the deadline is an SLO alarm, not a drop policy).
    let server = Server::start(
        model(),
        ServeConfig::for_threshold(0.2)
            .with_shards(1)
            .with_token_deadline(Duration::from_nanos(1)),
    );
    let mut client = server.client();
    let s = client.open().unwrap();
    for t in 0..6 {
        client.send(s, t).unwrap();
    }
    for _ in 0..6 {
        client.recv(s).unwrap();
    }
    let stats = server.stats();
    assert_eq!(stats.delivered(), 6);
    assert_eq!(stats.deadline_misses(), 6);
    server.shutdown();
}

#[test]
fn stale_and_foreign_handles_fail_loudly() {
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(2));
    let mut client = server.client();
    let s = client.open().unwrap();
    client.close(s).unwrap();
    assert_eq!(client.send(s, 1), Err(ServeError::UnknownStream));
    assert_eq!(client.close(s), Err(ServeError::UnknownStream));
    assert!(matches!(client.recv(s), Err(ServeError::UnknownStream)));
    // Out-of-vocab tokens are rejected client-side with the engine error.
    let s2 = client.open().unwrap();
    assert_eq!(
        client.send(s2, 999),
        Err(ServeError::Engine(EngineError::InvalidInput))
    );
    server.shutdown();
}

#[test]
fn recv_timeout_fires_when_nothing_was_submitted() {
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(1));
    let mut client = server.client().with_recv_timeout(Duration::from_millis(30));
    let s = client.open().unwrap();
    assert_eq!(client.recv(s), Err(ServeError::RecvTimeout));
    server.shutdown();
}

#[test]
fn slow_consumers_are_evicted_not_buffered_without_bound() {
    // A stream that submits without ever recv-ing fills its bounded
    // result channel and is evicted — backpressure holds end-to-end.
    let server = Server::start(
        model(),
        ServeConfig::for_threshold(0.2)
            .with_shards(1)
            .with_result_capacity(4),
    );
    let mut client = server.client().with_recv_timeout(Duration::from_secs(2));
    let s = client.open().unwrap();
    for t in 0..20 {
        client.send(s, t % 20).unwrap();
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().evicted_sessions() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(server.stats().evicted_sessions(), 1);
    // The buffered results (exactly the channel capacity) drain, then
    // the eviction surfaces.
    let mut got = 0;
    loop {
        match client.recv(s) {
            Ok(_) => got += 1,
            Err(ServeError::Evicted) => break,
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert_eq!(got, 4);
    server.shutdown();
}

#[test]
fn dropping_a_client_closes_its_sessions() {
    // No TTL configured: cleanup must come from the client's Drop, not
    // the eviction safety net.
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(2));
    {
        let mut client = server.client();
        for _ in 0..6 {
            client.open().unwrap();
        }
        assert_eq!(client.open_streams(), 6);
    } // client dropped without closing anything
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().open_sessions() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        server.stats().open_sessions(),
        0,
        "dropped client leaked sessions"
    );
    server.shutdown();
}

#[test]
fn shutdown_flushes_tokens_the_engine_already_accepted() {
    // A send that returned Ok must produce a result even when shutdown
    // lands right behind it in the queue: shutdown stops intake, not
    // in-flight work.
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(1));
    let mut client = server.client();
    let s = client.open().unwrap();
    for t in 0..4 {
        client.send(s, t).unwrap();
    }
    server.shutdown(); // joins the worker; results were flushed first
    for t in 0..4 {
        assert_eq!(client.recv(s).unwrap().input, t);
    }
}

#[test]
fn shutdown_terminates_under_sustained_traffic() {
    // A client that never stops sending must not be able to hold
    // shutdown open: the Shutdown marker stops intake, later submits are
    // rejected, and the worker joins.
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(1));
    let mut flooder = server.client();
    let s = flooder.open().unwrap();
    let driver = std::thread::spawn(move || {
        let mut sent = 0u64;
        while flooder.send(s, (sent % 20) as usize).is_ok() {
            sent += 1;
        }
        sent
    });
    std::thread::sleep(Duration::from_millis(50));
    server.shutdown(); // must return despite the continuous sends
    let sent = driver.join().unwrap();
    assert!(sent > 0, "flooder never got a send through");
}

/// A quantized model bakes its pruning threshold in; serving it at
/// another one must fail where the operator sees it — in `start`, on the
/// caller's thread — not as a shard worker dying under its clients.
#[test]
#[should_panic(expected = "engine threshold 0.2 != frozen quantized threshold 0.3")]
fn mismatched_quantized_threshold_panics_in_the_caller() {
    let model = FrozenQuantizedCharLm::random(8, 6, 0.3, 1);
    let _ = Server::start(model, ServeConfig::for_threshold(0.2).with_shards(2));
}

#[test]
fn server_shutdown_surfaces_as_server_closed() {
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(1));
    let mut client = server.client();
    let s = client.open().unwrap();
    server.shutdown();
    assert_eq!(client.send(s, 1), Err(ServeError::ServerClosed));
    assert!(client.open().is_err());
}

#[test]
fn load_generator_sustains_mixed_traffic() {
    let server = Server::start(model(), ServeConfig::for_threshold(0.2).with_shards(2));
    let report = LoadGenerator::new(LoadConfig {
        streams: 100,
        tokens_per_round: 2,
        rounds: 3,
        churn: 0.3,
        seed: 11,
        deadline: Some(Duration::from_secs(60)),
    })
    .run(&server)
    .unwrap();
    assert_eq!(report.tokens, 600);
    assert!(report.opened > 100, "churn produced no reopens");
    assert_eq!(report.closed, report.opened);
    // One latency sample per received token; a 60 s deadline cannot miss.
    assert_eq!(report.token_latency.count(), 600);
    assert!(report.token_latency.p999() > 0);
    assert_eq!(report.deadline_misses, 0);
    assert_eq!(report.worst_stream_miss_rate, 0.0);
    // Closes are asynchronous: wait for the shard queues to drain before
    // checking that nothing leaked.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while server.stats().open_sessions() > 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.stats();
    assert_eq!(stats.delivered(), 600);
    assert_eq!(stats.open_sessions(), 0, "load run leaked sessions");
    // Both shards saw traffic (placement hashing spreads 100+ streams).
    for shard in &stats.shards {
        assert!(shard.delivered > 0, "shard {} starved", shard.shard);
    }
    server.shutdown();
}
