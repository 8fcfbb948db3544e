//! Allocation budget of planning.
//!
//! `plan_range` knows how many interactions a client will trigger
//! before it triggers the first, so a client's run is allocated once at
//! its final size, and `take_plan` merges the runs into one vector of
//! exactly the plan's size. Planning used to cost several times the
//! plan: every run doubled its way up, the runs were copied into one
//! vector, and that vector's sort took scratch of its own. This test
//! pins what is left, and that an idle curve costs nothing however long
//! it lasts. It has a process of its own because it installs a counting
//! global allocator, and one test, so that no other thread allocates
//! while it measures.

use std::time::{Duration, Instant};

use diablo_chains::PlannedTx;
use diablo_core::abstraction::SimConnector;
use diablo_core::secondary::{declare_resources, plan_range};
use diablo_core::spec::BenchmarkSpec;
use diablo_testkit::alloc::{measure, Cost, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `spec_native`'s shape: 4 clients x 250 TPS x 120 s of transfers.
const SPEC: &str = r#"
workloads:
  - number: 4
    client:
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 2000 } }
          load:
            0: 250
            120: 0
"#;

/// One client idle for a billion seconds.
const IDLE: &str = r#"
workloads:
  - number: 1
    client:
      view: { sample: !endpoint [ ".*" ] }
      behavior:
        - interaction: !transfer
            from: { sample: !account { number: 2 } }
          load:
            0: 0
            1000000000: 0
"#;

fn plan(text: &str, clients: u32) -> (Vec<PlannedTx>, Cost) {
    let spec = BenchmarkSpec::parse(text).expect("the spec parses");
    measure(|| {
        let mut conn = SimConnector::new("quorum");
        declare_resources(&spec, &mut conn).expect("accounts only");
        plan_range(&spec, (0, clients), &mut conn).expect("every client");
        conn.take_plan()
    })
}

#[test]
fn planning_allocates_the_runs_and_the_plan_once_each() {
    // A curve is expanded from its breakpoints: planning an idle
    // billion seconds allocates nothing sized by the duration.
    let start = Instant::now();
    let (idle, cost) = plan(IDLE, 1);
    assert!(idle.is_empty());
    assert!(cost.bytes <= 4096, "{} bytes allocated to plan nothing", cost.bytes);
    assert!(start.elapsed() < Duration::from_secs(1), "{:?}", start.elapsed());

    let (plan, cost) = plan(SPEC, 4);
    assert_eq!(plan.len(), 120_000);
    assert!(plan.is_sorted_by_key(|t| t.at));
    assert!(cost.calls <= 40, "{} allocations for four clients", cost.calls);

    // The runs and the merged plan, plus the clients' curves and the
    // transfer interactions built on the way.
    let per_tx = 2 * std::mem::size_of::<PlannedTx>() + 8;
    assert!(
        cost.bytes <= per_tx * plan.len(),
        "{} bytes allocated for {} planned transactions ({} each, bound {per_tx})",
        cost.bytes,
        plan.len(),
        cost.bytes / plan.len()
    );
    assert!(
        cost.peak <= per_tx * plan.len(),
        "{} bytes live at once for {} planned transactions",
        cost.peak,
        plan.len()
    );
}
