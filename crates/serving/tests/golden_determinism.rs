//! Serving determinism: one replica at high offered load on a small KV
//! pool, per workload and scheduler, each pinned by its golden-table row.

mod golden_table;

golden_table::golden_tests! {
    chatbot_fcfs => "serving/chatbot-fcfs",
    chatbot_deepest => "serving/chatbot-deepest",
    agent_fcfs => "serving/agent-fcfs",
    agent_deepest => "serving/agent-deepest",
    mixed_fcfs => "serving/mixed-fcfs",
    mixed_deepest => "serving/mixed-deepest",
}
