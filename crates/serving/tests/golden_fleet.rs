//! Fleet routing determinism: three open-loop replicas per routing
//! policy, each pinned by its golden-table row.

mod golden_table;

golden_table::golden_tests! {
    session_affinity => "fleet/open-affinity",
    round_robin => "fleet/open-round-robin",
    least_loaded => "fleet/open-least-loaded",
}
