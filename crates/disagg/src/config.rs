//! Disaggregated-serving configuration: pool sizes, interconnect, and
//! routing policies.

use agentsim_gpu::{FlipCostModel, LinkSpec};
use agentsim_llm::EngineConfig;
use agentsim_session::{validate_load, ClientModel, QueueDiscipline, Workload};
use agentsim_simkit::SimDuration;

use crate::autoscale::AutoscalePolicy;

/// The disaggregated driver's traffic description: the workload enum
/// every driver shares, so a what-if comparison changes *only* the
/// serving topology. Kept as an alias for existing callers; new code
/// names [`Workload`].
pub type DisaggWorkload = Workload;

/// How a call is assigned to a replica within one pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolRouting {
    /// Rotate across the pool's replicas.
    RoundRobin,
    /// Pick the replica with the least work in flight (queued + running;
    /// for decode pools, KV transfers still in the air count too).
    LeastLoaded,
}

impl std::fmt::Display for PoolRouting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PoolRouting::RoundRobin => "round-robin",
            PoolRouting::LeastLoaded => "least-loaded",
        })
    }
}

/// Configuration of one disaggregated (or colocated-baseline) run.
#[derive(Debug, Clone)]
pub struct DisaggConfig {
    /// Engine configuration of the prefill pool's replicas (every
    /// replica, in colocated mode). The driver overrides the role per
    /// pool ([`agentsim_llm::EngineRole::Prefill`] /
    /// [`agentsim_llm::EngineRole::Decode`]), or leaves every replica
    /// [`agentsim_llm::EngineRole::Colocated`] when `decode_replicas`
    /// is zero.
    pub prefill_engine: EngineConfig,
    /// Engine configuration of the decode pool's replicas. Usually
    /// identical to `prefill_engine` (set both via
    /// [`DisaggConfig::engine`]), but heterogeneous splits — e.g.
    /// bandwidth-rich decode hardware — may differ. A replica keeps its
    /// pool-of-birth hardware across autoscaler role flips; only the
    /// role changes.
    pub decode_engine: EngineConfig,
    /// Replicas in the prefill pool (every replica, in colocated mode).
    pub prefill_replicas: u32,
    /// Replicas in the decode pool. Zero selects the colocated baseline:
    /// no role split, no transfers, same driver and arrivals.
    pub decode_replicas: u32,
    /// The KV-migration interconnect (one ingress link per decode
    /// replica). Ignored in colocated mode.
    pub link: LinkSpec,
    /// How new calls pick a prefill replica.
    pub prefill_routing: PoolRouting,
    /// How migrated calls pick a decode replica.
    pub decode_routing: PoolRouting,
    /// Traffic description.
    pub workload: Workload,
    /// Offered load, requests per second.
    pub qps: f64,
    /// Requests (sessions) to issue.
    pub num_requests: u64,
    /// Root seed. Shares the colocated drivers' derivation so a
    /// disaggregated and a colocated run at the same seed see identical
    /// arrival processes and task draws.
    pub seed: u64,
    /// Who submits the turns, and when.
    pub client: ClientModel,
    /// Pool autoscaling policy ([`AutoscalePolicy::Disabled`] keeps the
    /// static split).
    pub autoscale: AutoscalePolicy,
    /// The reconfiguration gap a replica pays per role flip.
    pub flip_cost: FlipCostModel,
    /// Coordinator-side admission gate: the most prefill-leg calls
    /// allowed in flight at once. New LLM ops queue at the coordinator
    /// until capacity frees; `None` (the default) submits immediately and
    /// is bit-identical to the pre-gate driver. Must be at least 1.
    pub max_inflight_prefill: Option<u32>,
    /// Ordering of the coordinator dispatch queue (only meaningful with
    /// an admission gate, which is what makes the queue non-empty).
    /// [`QueueDiscipline::DeadlineDrop`] additionally sheds sessions
    /// whose deadline already passed at dequeue time, before they cost
    /// any GPU work.
    pub discipline: QueueDiscipline,
    /// Per-session deadline, measured from the session's arrival. The
    /// disaggregated driver never cancels work already on an engine —
    /// the deadline acts purely at the coordinator dispatch queue, so it
    /// requires [`QueueDiscipline::DeadlineDrop`] (and vice versa).
    pub deadline: Option<SimDuration>,
    /// Layer chunks each KV migration ships as (pipelined against the
    /// prefill that produced them). `1` (the default) is the serial
    /// whole-footprint transfer, bit-identical to the pre-pipeline
    /// driver. Clamped to the model's layer count at sim construction —
    /// a transfer cannot be split finer than the layers that exist.
    pub transfer_chunks: u32,
}

impl DisaggConfig {
    /// A 1-prefill + 1-decode split over NVLink, default 8B replicas.
    pub fn new(workload: Workload, qps: f64, num_requests: u64) -> Self {
        validate_load(qps, num_requests);
        DisaggConfig {
            prefill_engine: EngineConfig::a100_llama8b(),
            decode_engine: EngineConfig::a100_llama8b(),
            prefill_replicas: 1,
            decode_replicas: 1,
            link: LinkSpec::nvlink4(),
            prefill_routing: PoolRouting::RoundRobin,
            decode_routing: PoolRouting::LeastLoaded,
            workload,
            qps,
            num_requests,
            seed: 0,
            client: ClientModel::OpenLoopPoisson,
            autoscale: AutoscalePolicy::Disabled,
            flip_cost: FlipCostModel::warm(),
            max_inflight_prefill: None,
            discipline: QueueDiscipline::Fifo,
            deadline: None,
            transfer_chunks: 1,
        }
    }

    /// The colocated baseline at iso-GPU count: `replicas` role-free
    /// engines, no transfers, same arrivals. What-if comparisons hold
    /// everything else fixed.
    pub fn colocated(workload: Workload, replicas: u32, qps: f64, num_requests: u64) -> Self {
        assert!(replicas > 0, "need at least one replica");
        let mut cfg = DisaggConfig::new(workload, qps, num_requests);
        cfg.prefill_replicas = replicas;
        cfg.decode_replicas = 0;
        cfg
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the engine configuration of *both* pools (role is
    /// ignored; the driver assigns roles per pool).
    pub fn engine(mut self, engine: EngineConfig) -> Self {
        self.prefill_engine = engine.clone();
        self.decode_engine = engine;
        self
    }

    /// Replaces the prefill pool's engine configuration only.
    pub fn prefill_engine(mut self, engine: EngineConfig) -> Self {
        self.prefill_engine = engine;
        self
    }

    /// Replaces the decode pool's engine configuration only.
    pub fn decode_engine(mut self, engine: EngineConfig) -> Self {
        self.decode_engine = engine;
        self
    }

    /// Sets pool sizes: `prefill` + `decode` replicas.
    pub fn pools(mut self, prefill: u32, decode: u32) -> Self {
        assert!(prefill > 0, "need at least one prefill replica");
        self.prefill_replicas = prefill;
        self.decode_replicas = decode;
        self
    }

    /// Sets the KV-migration interconnect.
    pub fn link(mut self, link: LinkSpec) -> Self {
        link.validate();
        self.link = link;
        self
    }

    /// Sets the prefill-side routing policy.
    pub fn prefill_routing(mut self, routing: PoolRouting) -> Self {
        self.prefill_routing = routing;
        self
    }

    /// Sets the decode-side routing policy.
    pub fn decode_routing(mut self, routing: PoolRouting) -> Self {
        self.decode_routing = routing;
        self
    }

    /// Replaces the client model.
    pub fn client(mut self, client: ClientModel) -> Self {
        self.client = client;
        self
    }

    /// Sets the pool-autoscaling policy. Requires a decode pool — the
    /// colocated baseline has no roles to flip.
    pub fn autoscale(mut self, policy: AutoscalePolicy) -> Self {
        self.autoscale = policy;
        self
    }

    /// Sets the per-flip reconfiguration cost model.
    pub fn flip_cost(mut self, model: FlipCostModel) -> Self {
        model.validate().expect("invalid flip cost model");
        self.flip_cost = model;
        self
    }

    /// No-op, kept so existing callers still build: the disagg driver runs one
    /// sequential event loop, and thread count never changed a result.
    #[deprecated(note = "the disagg driver is sequential; thread count never changed a result")]
    pub fn threads(self, _threads: u32) -> Self {
        self
    }

    /// Caps prefill-leg calls in flight; further ops queue at the
    /// coordinator until capacity frees.
    pub fn max_inflight_prefill(mut self, limit: u32) -> Self {
        assert!(limit >= 1, "the admission gate needs capacity for a call");
        self.max_inflight_prefill = Some(limit);
        self
    }

    /// Ships each KV migration as up to `chunks` layer chunks pipelined
    /// against prefill progress. `1` keeps the serial transfer.
    pub fn transfer_chunks(mut self, chunks: u32) -> Self {
        assert!(chunks >= 1, "transfer chunks must be >= 1");
        self.transfer_chunks = chunks;
        self
    }

    /// Sets the coordinator dispatch-queue discipline.
    pub fn discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// Sets the per-session deadline (from arrival) honoured by
    /// [`QueueDiscipline::DeadlineDrop`].
    pub fn deadline(mut self, deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "a deadline must be positive");
        self.deadline = Some(deadline);
        self
    }

    /// Cross-field validation, called by the simulator constructor.
    ///
    /// # Panics
    ///
    /// Panics when [`QueueDiscipline::DeadlineDrop`] is configured
    /// without a deadline, or a deadline without `DeadlineDrop` — this
    /// driver has no cancellation path, so a deadline nothing reads (or
    /// a drop rule with nothing to compare against) is a config error.
    pub fn validate_overload(&self) {
        match (self.discipline, self.deadline) {
            (QueueDiscipline::DeadlineDrop, None) => {
                panic!("DeadlineDrop needs a deadline to compare against")
            }
            (QueueDiscipline::Fifo | QueueDiscipline::Lifo, Some(_)) => {
                panic!("a disagg deadline is only acted on by DeadlineDrop")
            }
            _ => {}
        }
    }

    /// Whether this run is the colocated baseline (no role split).
    pub fn is_colocated(&self) -> bool {
        self.decode_replicas == 0
    }

    /// Total GPUs-worth of replicas (the iso-GPU budget of a what-if).
    pub fn total_replicas(&self) -> u32 {
        self.prefill_replicas + self.decode_replicas
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_split_one_one_over_nvlink() {
        let cfg = DisaggConfig::new(Workload::Chatbot, 1.0, 10);
        assert_eq!(cfg.prefill_replicas, 1);
        assert_eq!(cfg.decode_replicas, 1);
        assert!(!cfg.is_colocated());
        assert_eq!(cfg.total_replicas(), 2);
        assert_eq!(cfg.link.name, LinkSpec::nvlink4().name);
    }

    #[test]
    fn colocated_mode_has_no_decode_pool() {
        let cfg = DisaggConfig::colocated(Workload::Chatbot, 2, 1.0, 10);
        assert!(cfg.is_colocated());
        assert_eq!(cfg.total_replicas(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one prefill replica")]
    fn empty_prefill_pool_rejected() {
        let _ = DisaggConfig::new(Workload::Chatbot, 1.0, 1).pools(0, 1);
    }

    #[test]
    fn overload_knobs_default_off() {
        let cfg = DisaggConfig::new(Workload::Chatbot, 1.0, 10);
        assert!(cfg.max_inflight_prefill.is_none());
        assert!(cfg.deadline.is_none());
        assert_eq!(cfg.discipline, QueueDiscipline::Fifo);
        cfg.validate_overload();
    }

    #[test]
    #[should_panic(expected = "needs a deadline")]
    fn deadline_drop_without_deadline_rejected() {
        DisaggConfig::new(Workload::Chatbot, 1.0, 10)
            .discipline(QueueDiscipline::DeadlineDrop)
            .validate_overload();
    }

    #[test]
    #[should_panic(expected = "only acted on by DeadlineDrop")]
    fn deadline_without_deadline_drop_rejected() {
        DisaggConfig::new(Workload::Chatbot, 1.0, 10)
            .deadline(SimDuration::from_secs(10))
            .validate_overload();
    }

    #[test]
    #[should_panic(expected = "positive finite qps")]
    fn non_finite_load_rejected() {
        let _ = DisaggConfig::new(Workload::Chatbot, f64::NAN, 10);
    }

    #[test]
    #[should_panic(expected = "capacity for a call")]
    fn zero_wide_gate_rejected() {
        let _ = DisaggConfig::new(Workload::Chatbot, 1.0, 10).max_inflight_prefill(0);
    }

    #[test]
    fn autoscale_defaults_off_with_warm_flips() {
        let cfg = DisaggConfig::new(Workload::Chatbot, 1.0, 10);
        assert!(matches!(cfg.autoscale, AutoscalePolicy::Disabled));
        assert_eq!(cfg.flip_cost, FlipCostModel::warm());
        let cfg = cfg
            .autoscale(AutoscalePolicy::Pinned)
            .flip_cost(FlipCostModel::zero());
        assert!(matches!(cfg.autoscale, AutoscalePolicy::Pinned));
        assert!(cfg.flip_cost.flip_time().is_zero());
    }
}
