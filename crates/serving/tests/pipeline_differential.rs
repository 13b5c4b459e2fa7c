//! Disaggregated-pipeline determinism: the routed, open- and closed-loop,
//! contended-link and autoscaling disagg cells, each pinned by its
//! golden-table row.

mod golden_table;

golden_table::golden_tests! {
    routing_rr_ll_matches_pre_pipeline => "disagg/routing-rr-ll",
    routing_ll_ll_matches_pre_pipeline => "disagg/routing-ll-ll",
    chatbot_open_loop_matches_pre_pipeline => "disagg/chatbot-open",
    agent_closed_loop_matches_pre_pipeline => "disagg/agent-closed",
    contended_pcie_cell_matches_pre_pipeline => "disagg/pcie-serial",
    autoscale_flip_matches_pre_pipeline => "disagg/flip-2p2d",
}
