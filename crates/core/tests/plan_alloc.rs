//! Allocation budget of planning.
//!
//! `plan_range` knows how many interactions a client will trigger
//! before it triggers the first, so a client's run is allocated once at
//! its final size, and `take_plan` merges the runs into one vector of
//! exactly the plan's size. Planning used to cost several times the
//! plan: every run doubled its way up, the runs were copied into one
//! vector, and that vector's sort took scratch of its own. This test
//! pins what is left. It has a process of its own because it installs a
//! counting global allocator.

use diablo_chains::PlannedTx;
use diablo_core::abstraction::SimConnector;
use diablo_core::secondary::{declare_resources, plan_range};
use diablo_core::spec::BenchmarkSpec;
use diablo_testkit::alloc::{measure, Counting};

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

#[test]
fn planning_allocates_the_runs_and_the_plan_once_each() {
    let spec = BenchmarkSpec::parse(SPEC).expect("the spec parses");
    let (plan, cost) = measure(|| {
        let mut conn = SimConnector::new("quorum");
        declare_resources(&spec, &mut conn).expect("accounts only");
        plan_range(&spec, (0, 4), &mut conn).expect("four clients");
        conn.take_plan()
    });
    assert_eq!(plan.len(), 120_000);
    assert!(plan.is_sorted_by_key(|t| t.at));
    assert!(cost.calls <= 40, "{} allocations for four clients", cost.calls);

    // The runs and the merged plan, plus the clients' tick tables and
    // the transfer interactions built on the way.
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
