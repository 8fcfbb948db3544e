//! Integration: the distributed Primary/Secondary mode over localhost
//! TCP, exercising the wire protocol end to end.

use std::net::{TcpListener, TcpStream};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};
use std::thread;

use diablo::chains::{Chain, FaultPlan, RunOverlay};
use diablo::core::primary::BenchmarkOptions;
use diablo::core::wire::{
    read_message, run_secondary, serve_primary, write_message, Message, WireTx,
};
use diablo::core::Report;
use diablo::net::DeploymentKind;
use diablo::sim::SimTime;

/// The telemetry recorder is one per process and every run resets it: a
/// test that reads a counter of its runs holds this alone, and every
/// other test shares it.
static RECORDER: RwLock<()> = RwLock::new(());

fn shared() -> RwLockReadGuard<'static, ()> {
    RECORDER.read().unwrap_or_else(PoisonError::into_inner)
}

const SPEC: &str = r#"
workloads:
  - number: 4
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 100 } }
          load:
            0: 50
            10: 0
"#;

fn run_distributed(n_secondaries: usize) -> (diablo::core::Report, Vec<String>) {
    let options = BenchmarkOptions::default();
    run_distributed_on(Chain::Quorum, SPEC, &options, n_secondaries)
}

fn run_distributed_on(
    chain: Chain,
    spec: &str,
    options: &BenchmarkOptions,
    n_secondaries: usize,
) -> (diablo::core::Report, Vec<String>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handles: Vec<_> = (0..n_secondaries)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || run_secondary(&addr, &format!("zone-{i}")))
        })
        .collect();
    let report = serve_primary(
        &listener,
        chain,
        DeploymentKind::Testnet,
        spec,
        "tcp-test",
        options,
        n_secondaries,
    )
    .expect("primary");
    let stats = handles
        .into_iter()
        .map(|h| h.join().expect("join").expect("secondary"))
        .collect();
    (report, stats)
}

#[test]
fn two_secondaries_full_run() {
    let _recorder = shared();
    let (report, stats) = run_distributed(2);
    assert_eq!(report.secondaries, 2);
    assert_eq!(report.clients, 4);
    // 4 clients × 50 TPS × 10 s.
    assert_eq!(report.result.submitted(), 2_000);
    assert!(
        report.result.commit_ratio() > 0.9,
        "{}",
        report.result.summary()
    );
    assert_eq!(stats.len(), 2);
    for s in &stats {
        assert!(
            s.contains("1000 sent"),
            "each secondary plans half the clients: {s}"
        );
    }
}

#[test]
fn four_secondaries_same_totals_as_one() {
    let _recorder = shared();
    let (one, _) = run_distributed(1);
    let (four, _) = run_distributed(4);
    assert_eq!(one.result.submitted(), four.result.submitted());
    assert_eq!(one.result.committed(), four.result.committed());
}

#[test]
fn dead_secondary_yields_a_partial_aggregation() {
    let _recorder = shared();
    // One live Secondary and one that dies right after its assignment
    // (Hello → Assign → dropped connection). The Primary must detect
    // the death, discard the dead worker's share and aggregate the
    // live worker's results instead of hanging.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let live = {
        let addr = addr.clone();
        thread::spawn(move || run_secondary(&addr, "survivor"))
    };
    let dying = thread::spawn(move || {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        write_message(
            &mut stream,
            &Message::Hello {
                tag: "doomed".to_string(),
            },
        )
        .expect("hello");
        match read_message(&mut stream).expect("assign") {
            Message::Assign { .. } => {} // crash before planning anything
            other => panic!("expected Assign, got {other:?}"),
        }
    });

    let report = serve_primary(
        &listener,
        Chain::Quorum,
        DeploymentKind::Testnet,
        SPEC,
        "tcp-partial",
        &BenchmarkOptions::default(),
        2,
    )
    .expect("primary must not hang on a dead secondary");
    dying.join().expect("dying thread");
    let live_stats = live.join().expect("join").expect("survivor");

    assert_eq!(report.secondaries, 2);
    assert_eq!(
        report.lost_secondaries.len(),
        1,
        "exactly one worker died: {:?}",
        report.lost_secondaries
    );
    // Only the live worker's 2 clients submitted: 2 × 50 TPS × 10 s.
    assert_eq!(report.result.submitted(), 1_000);
    assert!(
        report.result.commit_ratio() > 0.9,
        "{}",
        report.result.summary()
    );
    assert!(live_stats.contains("1000 sent"), "{live_stats}");
    // The partial aggregation is called out in the stats text.
    assert!(
        report.stats_text().contains("died mid-benchmark"),
        "{}",
        report.stats_text()
    );
}

#[test]
fn garbage_from_one_secondary_costs_only_its_share() {
    let _recorder = shared();
    // The sibling of the test above: the second worker says a valid
    // Hello, takes its assignment and then sends a `Plan` frame no
    // transaction can be made from (`kind = 9`). That used to return
    // `Err` from `serve_primary` and abandon the live worker
    // mid-session; it is the worker's death, like silence.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();

    let live = {
        let addr = addr.clone();
        thread::spawn(move || run_secondary(&addr, "survivor"))
    };
    let babbling = thread::spawn(move || {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let hello = Message::Hello {
            tag: "babbler".to_string(),
        };
        write_message(&mut stream, &hello).expect("hello");
        match read_message(&mut stream).expect("assign") {
            Message::Assign { .. } => {}
            other => panic!("expected Assign, got {other:?}"),
        }
        let nonsense = WireTx {
            at_us: 1_000,
            sender: 1,
            kind: 9,
            dapp: 0,
            seq: 0,
            entry: 0,
            args: [0, 0],
            argc: 0,
        };
        write_message(
            &mut stream,
            &Message::Plan {
                txs: vec![nonsense],
            },
        )
        .expect("plan");
        // Stay connected until the Primary hangs up: it must not wait
        // for this worker to go away by itself.
        let _ = read_message(&mut stream);
    });

    let report = serve_primary(
        &listener,
        Chain::Quorum,
        DeploymentKind::Testnet,
        SPEC,
        "tcp-garbage",
        &BenchmarkOptions::default(),
        2,
    )
    .expect("one worker's protocol violation is not the Primary's failure");
    let live_stats = live.join().expect("join").expect("survivor");
    babbling.join().expect("babbling thread");

    assert_eq!(report.secondaries, 2);
    assert_eq!(
        report.lost_secondaries.len(),
        1,
        "{:?}",
        report.lost_secondaries
    );
    assert_eq!(report.result.submitted(), 1_000);
    assert!(
        report.result.commit_ratio() > 0.9,
        "{}",
        report.result.summary()
    );
    assert!(live_stats.contains("1000 sent"), "{live_stats}");
    assert!(
        report.stats_text().contains("died mid-benchmark"),
        "{}",
        report.stats_text()
    );
}

#[test]
fn killed_secondary_truncates_its_share() {
    let _recorder = shared();
    // A declared `kill-secondary` fault: worker 1 dies (in simulation)
    // at t = 5 s of a 10 s workload. Its transactions from 5 s on leave
    // the plan, while the worker itself — alive on the wire — still
    // gets one outcome per planned transaction.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let handles: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            thread::spawn(move || run_secondary(&addr, &format!("zone-{i}")))
        })
        .collect();
    let options = BenchmarkOptions {
        run: RunOverlay {
            faults: FaultPlan::builder()
                .kill_secondary(1, SimTime::from_secs(5))
                .build(),
            ..RunOverlay::none()
        },
        ..BenchmarkOptions::default()
    };
    let report = serve_primary(
        &listener,
        Chain::Quorum,
        DeploymentKind::Testnet,
        SPEC,
        "tcp-killed",
        &options,
        2,
    )
    .expect("primary");
    for h in handles {
        h.join().expect("join").expect("secondary");
    }
    assert_eq!(report.lost_secondaries, vec![1]);
    // Worker 0 submits its full 1000; worker 1 only the first half.
    assert_eq!(report.result.submitted(), 1_500);
}

/// Two behaviors per client at rates whose spacings divide the tick, so
/// every client submits at the same instants and the two behaviors of a
/// client meet at every tick start; few enough signers that Diem's
/// per-sender cap decides fates by who comes first among equals.
const TIES_SPEC: &str = r#"
workloads:
  - number: 5
    client:
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 3 } }
          load:
            0: 1000
            8: 0
        - interaction: !transfer
            from: { sample: !account { number: 7 } }
          load:
            0: 50
            8: 0
"#;

#[test]
fn records_equal_local_mode_at_every_secondary_count() {
    // Secondaries stream their plans client by client and the Primary
    // merges the concatenation's runs. Wherever instants
    // tie across clients or behaviors, the order must be the one
    // `run_local` gets from sorting whole ranges: (client, planning
    // order). Records are positional, so a reordering shows as a
    // different status or latency at some index.
    for n in [1, 2, 3, 4] {
        let options = BenchmarkOptions {
            secondaries: n,
            ..BenchmarkOptions::default()
        };
        let (tcp, _) = run_distributed_on(Chain::Diem, TIES_SPEC, &options, n);
        let local = diablo::core::run_local(
            Chain::Diem,
            DeploymentKind::Testnet,
            TIES_SPEC,
            "tcp-test",
            &options,
        )
        .expect("local");

        let fates = |report: &diablo::core::Report| -> Vec<_> {
            let records = &report.result.records;
            records
                .iter()
                .map(|r| (r.submitted, r.decided, r.status))
                .collect()
        };
        let (tcp, local) = (fates(&tcp), fates(&local));
        // 5 clients × (1,000 + 50) TPS × 8 s.
        assert_eq!(local.len(), 42_000);
        assert!(
            local.windows(2).filter(|w| w[0].0 == w[1].0).count() > 1_000,
            "the spec must tie instants"
        );
        let dropped = local
            .iter()
            .filter(|r| r.2 == diablo::chains::TxStatus::DroppedPerSender)
            .count();
        assert!(
            dropped > 4_000 && dropped < 38_000,
            "fates must depend on order: {dropped} dropped per sender"
        );
        if let Some(at) = (0..local.len()).find(|&i| tcp.get(i) != Some(&local[i])) {
            panic!(
                "{n} secondaries: record {at} is {:?} over TCP, {:?} locally",
                tcp.get(at),
                local[at]
            );
        }
        assert_eq!(tcp.len(), local.len());
    }

    // A declared kill cuts Secondary 1's share alike in both Primaries,
    // and both publish what it cut as one `secondary.killed_txs`, or
    // nothing when it cut nothing: a kill inside the workload, and one
    // after its end.
    let _alone = RECORDER.write().unwrap_or_else(PoisonError::into_inner);
    for kill in [4, 60] {
        let options = BenchmarkOptions {
            run: RunOverlay {
                faults: FaultPlan::builder()
                    .kill_secondary(1, SimTime::from_secs(kill))
                    .build(),
                ..RunOverlay::none()
            },
            secondaries: 3,
        };
        let (tcp, _) = run_distributed_on(Chain::Diem, TIES_SPEC, &options, 3);
        let local = diablo::core::run_local(
            Chain::Diem,
            DeploymentKind::Testnet,
            TIES_SPEC,
            "tcp-test",
            &options,
        )
        .expect("local");
        let fates = |report: &Report| -> Vec<_> {
            let records = &report.result.records;
            records
                .iter()
                .map(|r| (r.submitted, r.decided, r.status))
                .collect()
        };
        assert!(
            fates(&tcp) == fates(&local),
            "kill at {kill} s: records differ"
        );
        let killed = 42_000 - local.result.records.len() as u64;
        assert_eq!(killed > 0, kill < 8, "kill at {kill} s cut {killed}");
        let want = (killed > 0 && diablo::telemetry::enabled()).then_some(killed);
        let counter = |report: &Report| report.telemetry.counter("secondary.killed_txs");
        assert_eq!(counter(&tcp), want, "kill at {kill} s over TCP");
        assert_eq!(counter(&local), want, "kill at {kill} s locally");
        assert_eq!(tcp.lost_secondaries, vec![1]);
        assert_eq!(local.lost_secondaries, vec![1]);
    }
}

#[test]
fn a_plan_shipped_latest_first_runs_whole() {
    // The Primary merges the runs it finds in what a Secondary ships; it
    // does not take a share for sorted. This Secondary ships its plan
    // latest first, in two frames, and every transaction runs.
    let _recorder = shared();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let backwards = thread::spawn(move || {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        let hello = Message::Hello {
            tag: "backwards".to_string(),
        };
        write_message(&mut stream, &hello).expect("hello");
        match read_message(&mut stream).expect("assign") {
            Message::Assign { .. } => {}
            other => panic!("expected Assign, got {other:?}"),
        }
        let transfer = |k: u64| WireTx {
            at_us: (600 - k) * 10_000,
            sender: (k % 100) as u32,
            kind: 0,
            dapp: 0,
            seq: 0,
            entry: 0,
            args: [0, 0],
            argc: 0,
        };
        for frame in [0..300, 300..600] {
            let txs = frame.map(transfer).collect();
            write_message(&mut stream, &Message::Plan { txs }).expect("plan");
        }
        write_message(&mut stream, &Message::PlanDone).expect("plan done");
        let mut outcomes = 0;
        loop {
            match read_message(&mut stream).expect("outcomes") {
                Message::Outcomes { txs } => outcomes += txs.len(),
                Message::OutcomesDone => break,
                other => panic!("expected Outcomes, got {other:?}"),
            }
        }
        let text = String::new();
        write_message(&mut stream, &Message::Stats { text }).expect("stats");
        let snapshot = Default::default();
        write_message(&mut stream, &Message::Telemetry { snapshot }).expect("telemetry");
        assert_eq!(read_message(&mut stream).expect("done"), Message::Done);
        outcomes
    });

    let report = serve_primary(
        &listener,
        Chain::Quorum,
        DeploymentKind::Testnet,
        SPEC,
        "tcp-backwards",
        &BenchmarkOptions::default(),
        1,
    )
    .expect("primary");
    assert_eq!(backwards.join().expect("backwards"), 600);
    assert!(report.lost_secondaries.is_empty());
    assert_eq!(report.result.submitted(), 600);
}

#[test]
fn distributed_matches_local_mode() {
    let _recorder = shared();
    let (tcp, _) = run_distributed(2);
    let local = diablo::core::run_local(
        Chain::Quorum,
        DeploymentKind::Testnet,
        SPEC,
        "tcp-test",
        &BenchmarkOptions::default(),
    )
    .expect("local");
    assert_eq!(tcp.result.submitted(), local.result.submitted());
    assert_eq!(tcp.result.committed(), local.result.committed());
    let diff = (tcp.result.avg_latency_secs() - local.result.avg_latency_secs()).abs();
    assert!(
        diff < 1e-9,
        "identical plans must produce identical latencies"
    );
}

/// Two DApps in one spec: the simulated backend deploys one.
const TWO_DAPPS_SPEC: &str = r#"
workloads:
  - number: 2
    client:
      behavior:
        - interaction: !invoke
            from: { sample: !account { number: 10 } }
            contract: { sample: !contract { name: "nasdaq" } }
            function: "buyApple"
          load:
            0: 10
            6: 0
        - interaction: !invoke
            from: { sample: !account { number: 10 } }
            contract: { sample: !contract { name: "dota" } }
            function: "update(1, 1)"
          load:
            0: 10
            6: 0
"#;

#[test]
fn the_primary_refuses_a_spec_local_mode_refuses() {
    let _recorder = shared();
    let options = BenchmarkOptions::default();
    let local = diablo::core::run_local(
        Chain::Quorum,
        DeploymentKind::Testnet,
        TWO_DAPPS_SPEC,
        "two-dapps",
        &options,
    )
    .expect_err("local mode refuses two DApps");
    assert!(local.contains("one DApp per benchmark"), "{local}");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let secondary = thread::spawn(move || run_secondary(&addr, "zone-0"));
    let tcp = serve_primary(
        &listener,
        Chain::Quorum,
        DeploymentKind::Testnet,
        TWO_DAPPS_SPEC,
        "two-dapps",
        &options,
        1,
    )
    .expect_err("the Primary refuses it before accepting anyone");
    assert_eq!(tcp, local);
    // Nobody served the Secondary: accept it and hang up.
    drop(listener.accept().expect("the secondary connects"));
    assert!(secondary.join().expect("join").is_err());
}
