//! Multi-replica fleet serving: several engine replicas behind a router.
//!
//! The paper's datacenter projections (§VI) assume fleets of replicas;
//! this module asks the follow-on systems question: *how should agent
//! requests be routed across replicas?* Because an agent session's
//! iterative calls share a growing prefix, routing is not
//! load-balancing-neutral — sending call *k+1* to a different replica
//! than call *k* forfeits the prefix-cache state the paper shows is
//! critical (its Fig. 15). Closed-loop clients sharpen the question
//! further: a user population re-submitting turns under stable session
//! ids gives affinity routing cross-*turn* state to preserve, not just
//! cross-call.
//!
//! # Overload resilience
//!
//! With an [`OverloadPolicy`] attached, the fleet additionally models how
//! real serving stacks behave past saturation: clients abandon turns
//! after a deadline, the server optionally cancels the abandoned work
//! (engines release KV and stop burning steps), front-ends retry with
//! exponential backoff, and a per-replica admission controller bounds
//! concurrency with a pluggable dispatch-queue discipline. Admission is
//! gated at the door: only an attempt's *first* op waits for a slot —
//! once a session has consumed engine time, its continuation ops submit
//! immediately, because making admitted work queue behind fresh
//! arrivals leaves sessions half-served at their deadline with nothing
//! to show for the GPU time already spent. The default
//! policy ([`OverloadPolicy::none`]) reproduces the historical
//! no-deadline behaviour bit-for-bit.
//!
//! # Role-split pools
//!
//! Pools of [`EngineRole::Prefill`] and [`EngineRole::Decode`] engines
//! make a disaggregated fleet: calls route across the prefill members,
//! migrate at their first token, cross [`FleetConfig::link`] (as a chunk
//! train with [`FleetConfig::transfer_chunks`]) to the least-loaded
//! decode member, and decode there. A [`PoolController`]
//! ([`FleetConfig::autoscale`]) may flip one replica at a time between
//! roles: it drains (landing committed inbound KV), pays the
//! [`FlipCostModel`] gap, and joins the other pool. Admission applies at
//! prefill replicas, whose slot frees at migration. Colocated fleets
//! skip all of this.

use std::collections::{HashMap, VecDeque};

use agentsim_agents::{AgentConfig, AgentKind, Cognition};
use agentsim_disagg::{
    AutoscalePolicy, CallRecord, DisaggReport, FlipDirection, FlipRecord, LinkStats,
    PoolController, PoolObservation, TransferScheduler,
};
use agentsim_gpu::{FlipCostModel, LinkSpec};
use agentsim_kvcache::{EvictionPolicy, TokenBuf};
use agentsim_llm::{
    Engine, EngineConfig, EngineObserver, EngineRole, LlmCompletion, MigratedRequest, ModelTier,
    RequestId,
};
use agentsim_metrics::Samples;
use agentsim_session::{
    seeds, validate_load, AdmissionController, AdmissionPolicy, Arrival, ArrivalProcess, CallDone,
    CascadePolicy, ClientModel, LlmSubmit, OverloadPolicy, QueueDiscipline, SessionCmd,
    SessionRunner, Workload,
};
use agentsim_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use agentsim_tools::ToolExecutor;
use agentsim_workloads::{Benchmark, Task, TaskGenerator};

use crate::report::FleetReport;

/// How the router assigns each LLM call to a replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// All calls of a session go to one replica (hash by session id):
    /// keeps every iterative call's prefix warm.
    SessionAffinity,
    /// Calls rotate across replicas regardless of session: classic
    /// stateless load balancing, destroys cross-call prefix reuse.
    RoundRobin,
    /// Each call goes to the replica with the fewest in-flight requests.
    LeastLoaded,
}

impl std::fmt::Display for Routing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Routing::SessionAffinity => "session-affinity",
            Routing::RoundRobin => "round-robin",
            Routing::LeastLoaded => "least-loaded",
        })
    }
}

/// One homogeneous group of replicas inside a (possibly heterogeneous)
/// fleet: an engine spec, a count, and the agent configuration whose
/// model quality matches the model the pool serves.
#[derive(Debug, Clone)]
pub struct ReplicaPool {
    /// Engine configuration cloned per replica of this pool.
    pub engine: EngineConfig,
    /// Number of replicas in the pool.
    pub replicas: u32,
    /// Agent configuration for turns served by this pool (its
    /// `model_quality` should describe the pool's model).
    pub agent: AgentConfig,
}

impl ReplicaPool {
    /// A pool of `replicas` copies of `engine`, with the agent config
    /// inferred from the engine's [`ModelTier`] (8B quality for
    /// [`ModelTier::Small`], 70B for [`ModelTier::Large`]).
    pub fn new(engine: EngineConfig, replicas: u32) -> Self {
        assert!(replicas > 0, "pool needs at least one replica");
        let agent = match engine.tier {
            ModelTier::Small => AgentConfig::default_8b(),
            ModelTier::Large => AgentConfig::default_70b(),
        };
        ReplicaPool {
            engine,
            replicas,
            agent,
        }
    }

    /// Returns a copy with a different agent configuration.
    pub fn with_agent(mut self, agent: AgentConfig) -> Self {
        self.agent = agent;
        self
    }
}

/// Configuration of a fleet run. A one-replica fleet is the paper's
/// §IV-C shared-replica server ([`crate::ServingConfig`] builds one).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Replica pools, ordered cheap-to-premium. Replicas are numbered
    /// contiguously in pool order; a single pool reproduces the
    /// historical homogeneous fleet exactly.
    pub pools: Vec<ReplicaPool>,
    /// Routing policy (applied *within* a tier's pool — the cascade
    /// policy picks the tier, the routing policy picks the replica).
    pub routing: Routing,
    /// Traffic description. Agent turns on tier `t` run with
    /// `pools[t].agent`, the fleet's one source of truth for the agent
    /// configuration: an agent or mixed workload's own `config` must
    /// equal pool 0's (checked at build). Chatbot turns always run on
    /// tier 0 and never escalate.
    pub workload: Workload,
    /// Tier selection and failure-driven escalation across pools.
    /// [`CascadePolicy::none`] (the default) keeps every turn on tier 0,
    /// reproducing the historical single-tier behaviour bit-for-bit.
    pub cascade: CascadePolicy,
    /// Offered load, requests/second (fleet-wide, open-loop clients).
    pub qps: f64,
    /// Turns to issue.
    pub num_requests: u64,
    /// Root seed.
    pub seed: u64,
    /// Who submits the turns, and when.
    pub client: ClientModel,
    /// Deadlines, retries, admission control (default: none of them).
    pub overload: OverloadPolicy,
    /// Carry each session's conversation across turns: a follow-up turn's
    /// prompts are prefixed with the session's prior final context, so
    /// cross-turn KV reuse (and the offload tiers that preserve it through
    /// think time) becomes possible. Off by default — turns are
    /// independent tasks.
    pub carry_context: bool,
    /// The KV-migration interconnect of a role-split fleet (one ingress
    /// link per replica). Unused by colocated fleets.
    pub link: LinkSpec,
    /// Layer chunks each KV migration ships as, pipelined against the
    /// prefill that produced them. `1` (the default) is the serial
    /// whole-footprint transfer. Clamped at build to the prefill model's
    /// layer count — a transfer cannot be split finer than its layers.
    pub transfer_chunks: u32,
    /// Role-flip autoscaling of a role-split fleet
    /// ([`AutoscalePolicy::Disabled`] keeps the static split; colocated
    /// fleets must leave it disabled).
    pub autoscale: AutoscalePolicy,
    /// The reconfiguration gap a replica pays per role flip.
    pub flip_cost: FlipCostModel,
    /// Root-stream key: [`seeds::FLEET_ROOT`], or [`seeds::SERVING_ROOT`]
    /// for a [`crate::ServingConfig`] or [`crate::DisaggConfig`], whose
    /// runs share their streams.
    pub(crate) root: u64,
}

impl FleetConfig {
    /// ReAct/HotpotQA on `replicas` default 8B replicas — single-pool
    /// sugar over [`FleetConfig::pooled`].
    pub fn react_hotpotqa(replicas: u32, routing: Routing, qps: f64, num_requests: u64) -> Self {
        Self::pooled(
            vec![ReplicaPool::new(EngineConfig::a100_llama8b(), replicas)],
            routing,
            qps,
            num_requests,
        )
    }

    /// ReAct/HotpotQA across an explicit set of replica pools, ordered
    /// cheap-to-premium. [`FleetConfig::workload`] swaps the traffic.
    pub fn pooled(pools: Vec<ReplicaPool>, routing: Routing, qps: f64, num_requests: u64) -> Self {
        assert!(!pools.is_empty(), "fleet needs at least one pool");
        validate_load(qps, num_requests);
        FleetConfig {
            workload: Workload::Agent {
                kind: AgentKind::React,
                benchmark: Benchmark::HotpotQa,
                config: pools[0].agent,
            },
            pools,
            routing,
            cascade: CascadePolicy::none(),
            qps,
            num_requests,
            seed: 0,
            client: ClientModel::OpenLoopPoisson,
            overload: OverloadPolicy::none(),
            carry_context: false,
            link: LinkSpec::nvlink4(),
            transfer_chunks: 1,
            autoscale: AutoscalePolicy::Disabled,
            flip_cost: FlipCostModel::warm(),
            root: seeds::FLEET_ROOT,
        }
    }

    /// Total replicas across all pools.
    pub fn total_replicas(&self) -> u32 {
        self.pools.iter().map(|p| p.replicas).sum()
    }

    /// Applies `f` to every pool's engine configuration (e.g. to shrink
    /// the KV pool or attach offload tiers fleet-wide).
    pub fn map_engines(mut self, f: impl Fn(EngineConfig) -> EngineConfig) -> Self {
        for pool in &mut self.pools {
            pool.engine = f(pool.engine.clone());
        }
        self
    }

    /// Replaces the traffic description. An agent or mixed workload's
    /// `config` must equal `pools[0].agent`.
    pub fn workload(mut self, workload: Workload) -> Self {
        self.workload = workload;
        self
    }

    /// Attaches a cascade policy (tier selection and escalation).
    pub fn cascade(mut self, cascade: CascadePolicy) -> Self {
        self.cascade = cascade;
        self
    }

    /// Enables cross-turn conversation carry (see
    /// [`FleetConfig::carry_context`]).
    pub fn with_context_carry(mut self) -> Self {
        self.carry_context = true;
        self
    }

    /// Sets the root seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the client model.
    pub fn client(mut self, client: ClientModel) -> Self {
        self.client = client;
        self
    }

    /// Attaches an overload policy (deadlines, retries, admission
    /// control). Validated against the client model at build time.
    pub fn overload(mut self, overload: OverloadPolicy) -> Self {
        self.overload = overload;
        self
    }

    /// Sets the KV-migration interconnect of a role-split fleet.
    pub fn link(mut self, link: LinkSpec) -> Self {
        link.validate();
        self.link = link;
        self
    }

    /// Ships each KV migration as up to `chunks` layer chunks pipelined
    /// against prefill progress. `1` keeps the serial transfer.
    pub fn transfer_chunks(mut self, chunks: u32) -> Self {
        assert!(chunks >= 1, "transfer chunks must be >= 1");
        self.transfer_chunks = chunks;
        self
    }

    /// Sets the role-flip autoscaling policy of a role-split fleet.
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

    /// No-op, kept so existing callers still build: the fleet runs one
    /// sequential event loop, and thread count never changed a result.
    #[deprecated(note = "the fleet driver is sequential; thread count never changed a result")]
    pub fn threads(self, _threads: u32) -> Self {
        self
    }
}

#[derive(Debug)]
enum Event {
    Arrival(Arrival),
    StepDone(usize),
    ToolsDone { sid: u64, epoch: u64 },
    DeadlineExpired { sid: u64, epoch: u64 },
    TransferDone(u64),
    FlipDone(usize),
}

/// One live delivery attempt of a turn: its session state machine plus
/// the driver's bookkeeping. Boxed in its slot, so the slot table costs
/// a pointer per session however many turns the client issues.
struct Attempt {
    runner: SessionRunner,
    /// Global turn index (for retry re-issue).
    turn: u64,
    /// Delivery attempt (0 = client-issued).
    attempt: u32,
    /// Pool tier this attempt runs on (index into `config.pools`).
    tier: usize,
    /// Failure-driven escalations this turn has consumed so far.
    escalations: u32,
    /// When the turn's current delivery attempt first started (carried
    /// across escalations so cascade latency spans the whole chain).
    started_at: SimTime,
    /// Occupancy counter of the slot, guarding stale wake-ups.
    epoch: u64,
    /// Absolute expiry of this attempt, if the run has deadlines.
    deadline: Option<SimTime>,
    /// The deadline passed but the attempt was left running (no
    /// cancellation): its remaining work is wasted.
    expired: bool,
    /// The attempt's first op was admitted to an engine: later ops
    /// bypass the admission queue (gate at the door, then run to done).
    started: bool,
    /// Engine calls currently in flight, as `(replica, id)`.
    calls: Vec<(usize, RequestId)>,
    /// The session's engine-side context — last submitted prompt plus
    /// its generated output — and that call's generation seed. Tracked
    /// only when offload hints are enabled, and only for single-call
    /// ops (a fan-out has no one context to predict for).
    kv_ctx: Option<(TokenBuf, u64)>,
    /// Replica holding that context.
    kv_replica: usize,
}

/// An op waiting in a replica's dispatch queue for an admission slot.
struct PendingOp {
    sid: u64,
    /// Slot epoch at enqueue time; a mismatch at dispatch means the
    /// attempt was torn down and the op must be dropped.
    epoch: u64,
    deadline: Option<SimTime>,
    calls: Vec<LlmSubmit>,
    priority: u32,
}

/// The role machinery of a fleet with Prefill/Decode pools (see the
/// [module docs](self)). Colocated fleets carry none of it.
struct Roles {
    /// Live decode members (global indices, ascending). The live prefill
    /// members are the fleet's one routing tier.
    decode: Vec<usize>,
    /// Decode replicas before any flip.
    initial_decode: usize,
    transfers: TransferScheduler,
    /// Transfer id → `(session, call seq, prefill replica)`.
    in_transit: HashMap<u64, (u64, u32, usize)>,
    /// A decode leg's `(replica, id)` → its call's prefill leg.
    legs: HashMap<(usize, RequestId), Leg>,
    controller: Option<Box<dyn PoolController>>,
    flip: Option<FlipInProgress>,
    flips: Vec<FlipRecord>,
    /// Reused buffer for [`Engine::take_migrations_into`].
    scratch: Vec<MigratedRequest>,
}

/// A migrated call's prefill leg, held until its decode leg completes:
/// the call's record as far as the prefill side and the link know it.
/// It keeps no tokens; the context moved on to the decode engine.
struct Leg(CallRecord);

impl Leg {
    fn new(
        session: u64,
        prefill_replica: usize,
        m: &MigratedRequest,
        submitted: SimTime,
        transfer_wait: SimDuration,
    ) -> Self {
        Leg(CallRecord {
            session,
            prefill_replica: prefill_replica as u32,
            decode_replica: None,
            arrived: m.arrived,
            prefill_started: m.started,
            released: m.released,
            decode_submitted: Some(submitted),
            decode_started: None,
            finished: m.released,
            prompt_tokens: m.prompt_tokens,
            cached_tokens: m.cached_tokens,
            output_tokens: m.generated,
            prefill_time: m.prefill_time,
            decode_time: SimDuration::ZERO,
            transfer_wait,
            kv_bytes: m.kv_bytes,
            preemptions: m.preemptions,
        })
    }

    /// The call's cross-pool record, stitched from both legs.
    fn record(self, replica: usize, c: &LlmCompletion) -> CallRecord {
        debug_assert!(
            c.prefill_time.is_zero(),
            "decode pools never run prefill steps"
        );
        CallRecord {
            decode_replica: Some(replica as u32),
            decode_started: Some(c.started),
            finished: c.finished,
            output_tokens: c.output_tokens,
            decode_time: c.decode_time,
            preemptions: self.0.preemptions + c.preemptions,
            ..self.0
        }
    }
}

/// Delivers a next-invocation prediction for the tracked context `ctx`
/// to the `engine` holding it (KV offload hierarchies under
/// invocation-distance eviction). The chain hashes come from `ctx`'s
/// memo at the engine's own block size, since pools may differ.
fn hint_ctx(engine: &mut Engine, ctx: &TokenBuf, now: SimTime, at: SimTime) {
    let hashes = ctx.chain_hashes_cached(engine.config().block_size as usize);
    // `hint_next_use` prunes stale predictions even for an empty list.
    if !hashes.is_empty() {
        engine.hint_next_use(&hashes, now, at);
    }
}

/// The record of a call that finished on the replica that prefilled it.
fn local_record(session: u64, replica: usize, c: &LlmCompletion) -> CallRecord {
    CallRecord {
        session,
        prefill_replica: replica as u32,
        decode_replica: None,
        arrived: c.arrived,
        prefill_started: c.started,
        // First token lands at the end of the prefill phase; clamp for
        // single-token calls whose first token is also the last.
        released: (c.started + c.prefill_time).min(c.finished),
        decode_submitted: None,
        decode_started: None,
        finished: c.finished,
        prompt_tokens: c.prompt_tokens,
        cached_tokens: c.cached_tokens,
        output_tokens: c.output_tokens,
        prefill_time: c.prefill_time,
        decode_time: c.decode_time,
        transfer_wait: SimDuration::ZERO,
        kv_bytes: 0,
        preemptions: c.preemptions,
    }
}

/// A role flip in progress: the victim has left its member list and is
/// draining (or, once `drained` is set, sitting out the reconfiguration
/// gap until its [`Event::FlipDone`]).
struct FlipInProgress {
    replica: usize,
    direction: FlipDirection,
    requested: SimTime,
    drained: Option<SimTime>,
}

/// Checks a fleet's role composition, in one place, and says whether it
/// is role-split. Rejects autoscaling without roles, a role-split fleet
/// that mixes in a colocated pool, lacks a role or serves two agent
/// configs, and every feature whose behaviour across a KV migration is
/// undefined.
fn check_roles(config: &FleetConfig) -> bool {
    let has = |role| config.pools.iter().any(|p| p.engine.role == role);
    if !has(EngineRole::Prefill) && !has(EngineRole::Decode) {
        assert!(
            matches!(config.autoscale, AutoscalePolicy::Disabled),
            "pool autoscaling requires a decode pool (a colocated fleet has no roles to flip)"
        );
        return false;
    }
    assert!(
        has(EngineRole::Prefill) && has(EngineRole::Decode) && !has(EngineRole::Colocated),
        "a role-split fleet needs Prefill and Decode pools and no Colocated pool"
    );
    assert!(
        config
            .pools
            .iter()
            .all(|p| p.agent == config.pools[0].agent),
        "a role-split fleet serves one model: every pool's agent config must match"
    );
    assert!(
        !config.overload.cancel_on_expiry,
        "a role-split fleet cannot cancel on expiry (or retry): cancelling a call \
         mid-migration is undefined"
    );
    assert!(
        config.cascade == CascadePolicy::none(),
        "a role-split fleet has one routing tier: cascades need colocated pools"
    );
    assert!(
        matches!(config.autoscale, AutoscalePolicy::Disabled)
            || config.overload.admission == AdmissionPolicy::AcceptAll,
        "autoscaling a role-split fleet needs accept-all admission: a draining \
         replica's queued ops have nowhere to go"
    );
    true
}

/// The fleet simulator. Build with [`FleetSim::new`], consume with
/// [`FleetSim::run`].
pub struct FleetSim {
    config: FleetConfig,
    engines: Vec<Engine>,
    tools: ToolExecutor,
    queue: EventQueue<Event>,
    client: Box<dyn ArrivalProcess>,
    /// The live attempt per session slot.
    slots: Vec<Option<Box<Attempt>>>,
    /// Occupancy counter per session slot; bumped at each arrival so
    /// events addressed to a torn-down attempt can be recognized.
    epochs: Vec<u64>,
    owner: HashMap<(usize, RequestId), (u64, u32)>,
    /// Ops waiting for an admission slot, per replica.
    dispatch: Vec<VecDeque<PendingOp>>,
    /// Engine calls held by each replica's dispatch queue (counted into
    /// the least-loaded routing metric; always 0 under accept-all).
    dispatch_calls: Vec<usize>,
    /// Engine calls admitted and not yet completed, per replica.
    in_flight: Vec<usize>,
    admission: Vec<Box<dyn AdmissionController>>,
    root_rng: SimRng,
    /// Pool index of each replica (replicas are numbered contiguously in
    /// pool order).
    pool_of: Vec<usize>,
    /// Replicas each routing tier spreads calls over, ascending: one tier
    /// per pool, or the live prefill members of a role-split fleet.
    tiers: Vec<Vec<usize>>,
    /// Round-robin cursor per tier (tier-local rotation).
    rr_counters: Vec<usize>,
    /// Migration and role-flip state (role-split fleets only).
    roles: Option<Box<Roles>>,
    /// Every finished call's record, when a [`crate::DisaggSim`] asks.
    records: Option<Vec<CallRecord>>,
    /// Whether to feed next-invocation predictions to the engines' KV
    /// offload hierarchies (offload configured with
    /// [`EvictionPolicy::InvocationDistance`]).
    hints: bool,
    /// Whether to snapshot per-session contexts (needed by hints and by
    /// conversation carry).
    track_ctx: bool,
    /// Per-session carried conversation: the final context of the
    /// session's last completed turn, prefixed onto its next turn's
    /// prompts when [`FleetConfig::carry_context`] is set (empty when it
    /// is not: nothing else writes it).
    carry: Vec<Option<TokenBuf>>,
    latencies: Vec<f64>,
    agent_latencies: Vec<f64>,
    chatbot_latencies: Vec<f64>,
    /// Per-call time-to-first-token samples (seconds).
    ttfts: Vec<f64>,
    /// Per-call time-per-output-token samples (seconds/token).
    tpots: Vec<f64>,
    completed: u64,
    solved: u64,
    escalated: u64,
    attempts: u64,
    retries: u64,
    abandoned: u64,
    late: u64,
    cancelled: u64,
    dropped: u64,
    /// Service seconds delivered to clients that had already given up.
    wasted_service: f64,
    last_finish: SimTime,
    live: u64,
    max_live: u64,
    /// Reused per-step completion buffer (sequential path hot loop).
    step_scratch: Vec<LlmCompletion>,
}

impl std::fmt::Debug for FleetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSim")
            .field("replicas", &self.engines.len())
            .field("routing", &self.config.routing)
            .finish_non_exhaustive()
    }
}

impl FleetSim {
    /// Builds the fleet (the first arrivals are scheduled; the rest
    /// chain lazily as the run progresses).
    ///
    /// # Panics
    ///
    /// Panics on an invalid load, overload policy, workload or pool agent
    /// config, when an agent or mixed workload's `config` disagrees
    /// with `pools[0].agent`, and on a role-split fleet that lacks a role,
    /// mixes in a colocated pool, or cancels, retries, cascades or limits
    /// admission under autoscaling (undefined across a KV migration).
    pub fn new(config: impl Into<FleetConfig>) -> Self {
        let config = config.into();
        validate_load(config.qps, config.num_requests);
        config.overload.validate(&config.client);
        assert!(!config.pools.is_empty(), "fleet needs at least one pool");
        config.workload.validate();
        if let Some((_, _, agent)) = config.workload.agent() {
            assert!(
                agent == config.pools[0].agent,
                "workload agent config disagrees with pool 0's \
                 (pools[tier].agent is the fleet's agent config)"
            );
        }
        let split = check_roles(&config);
        // Flatten the pools into one contiguous replica index space.
        let mut engines = Vec::new();
        let mut pool_of = Vec::new();
        let mut tiers = Vec::new();
        for (tier, p) in config.pools.iter().enumerate() {
            assert!(p.replicas > 0, "pool {tier} needs at least one replica");
            if let Err(e) = p.agent.validate() {
                panic!("pool {tier}: invalid agent config: {e}");
            }
            let start = engines.len();
            for _ in 0..p.replicas {
                engines.push(Engine::new(p.engine.clone()));
                pool_of.push(tier);
            }
            tiers.push((start..engines.len()).collect::<Vec<_>>());
        }
        let replicas = engines.len();
        let roles = split.then(|| {
            let members = |role| -> Vec<usize> {
                (0..replicas)
                    .filter(|&r| config.pools[pool_of[r]].engine.role == role)
                    .collect()
            };
            tiers = vec![members(EngineRole::Prefill)];
            // A migration cannot be split finer than its model's layers.
            let model = |r: &usize| &config.pools[pool_of[*r]].engine.cluster.model;
            let layers = tiers[0].iter().map(|r| model(r).layers.max(1)).min();
            let decode = members(EngineRole::Decode);
            Box::new(Roles {
                initial_decode: decode.len(),
                decode,
                transfers: TransferScheduler::new(config.link.clone(), replicas)
                    .with_chunks(config.transfer_chunks.min(layers.expect("a prefill pool"))),
                in_transit: HashMap::new(),
                legs: HashMap::new(),
                controller: config.autoscale.build(),
                flip: None,
                flips: Vec::new(),
                scratch: Vec::new(),
            })
        });
        let root_rng = SimRng::seed_from(config.seed ^ config.root);
        let mut client = config.client.build(
            config.qps,
            config.num_requests,
            root_rng.fork(seeds::ARRIVALS),
        );
        let mut queue = EventQueue::new();
        for a in client.initial() {
            queue.push(a.at, Event::Arrival(a));
        }
        let slots = config.client.sessions(config.num_requests) as usize;
        let hints = config.pools.iter().any(|p| {
            p.engine
                .offload
                .as_ref()
                .is_some_and(|o| o.policy == EvictionPolicy::InvocationDistance)
        });
        // An escalated turn re-arrives on the premium tier carrying the
        // conversation it built on the cheap one, so cascade runs track
        // contexts even without hints or explicit carry.
        let cascade_active = config.cascade.escalate_on_failure && config.pools.len() > 1;
        FleetSim {
            engines,
            tools: ToolExecutor::new(),
            queue,
            client,
            slots: (0..slots).map(|_| None).collect(),
            epochs: vec![0; slots],
            owner: HashMap::new(),
            dispatch: (0..replicas).map(|_| VecDeque::new()).collect(),
            dispatch_calls: vec![0; replicas],
            in_flight: vec![0; replicas],
            admission: (0..replicas)
                .map(|_| config.overload.admission.build())
                .collect(),
            root_rng,
            rr_counters: vec![0; tiers.len()],
            pool_of,
            tiers,
            roles,
            records: None,
            hints,
            track_ctx: hints || config.carry_context || cascade_active,
            carry: if config.carry_context {
                vec![None; slots]
            } else {
                Vec::new()
            },
            latencies: Vec::new(),
            agent_latencies: Vec::new(),
            chatbot_latencies: Vec::new(),
            ttfts: Vec::new(),
            tpots: Vec::new(),
            completed: 0,
            solved: 0,
            escalated: 0,
            attempts: 0,
            retries: 0,
            abandoned: 0,
            late: 0,
            cancelled: 0,
            dropped: 0,
            wasted_service: 0.0,
            last_finish: SimTime::ZERO,
            live: 0,
            max_live: 0,
            step_scratch: Vec::new(),
            config,
        }
    }

    /// Attaches one fresh [`crate::SpanRecorder`] per replica (as each
    /// engine's observer) and returns the handles, indexed by replica.
    /// Combine them with [`crate::chrome_trace`] for a single trace file
    /// with one process track per replica.
    pub fn attach_recorders(&mut self) -> Vec<crate::SpanRecorder> {
        self.engines
            .iter_mut()
            .map(|engine| {
                let recorder = crate::SpanRecorder::new();
                engine.set_observer(Box::new(recorder.clone()));
                recorder
            })
            .collect()
    }

    /// Attaches a fresh [`crate::SpanRecorder`] to a one-replica fleet's
    /// engine and returns a handle to read spans/series/exports after
    /// [`FleetSim::run`].
    ///
    /// # Panics
    ///
    /// Panics unless the fleet has exactly one replica (use
    /// [`FleetSim::attach_recorders`]).
    pub fn attach_recorder(&mut self) -> crate::SpanRecorder {
        let recorder = crate::SpanRecorder::new();
        self.set_observer(Box::new(recorder.clone()));
        recorder
    }

    /// Attaches an arbitrary observer to a one-replica fleet's engine
    /// (replacing any prior one). Use [`agentsim_llm::FanoutObserver`] to
    /// combine several sinks — e.g. a recorder plus a streaming
    /// [`crate::SpanStreamWriter`].
    ///
    /// # Panics
    ///
    /// Panics unless the fleet has exactly one replica.
    pub fn set_observer(&mut self, observer: Box<dyn EngineObserver>) {
        assert_eq!(
            self.engines.len(),
            1,
            "set_observer needs a one-replica fleet"
        );
        self.set_replica_observer(0, observer);
    }

    /// Replaces replica `replica`'s engine observer, by global index.
    /// Under autoscaling the role a replica serves varies over the run;
    /// the observer stream carries the role timeline via
    /// [`agentsim_llm::EngineEvent::RoleChanged`].
    pub(crate) fn set_replica_observer(
        &mut self,
        replica: usize,
        observer: Box<dyn EngineObserver>,
    ) {
        self.engines[replica].set_observer(observer);
    }

    /// Keeps every finished call's [`CallRecord`] for
    /// [`FleetSim::into_disagg_report`].
    pub(crate) fn record_calls(&mut self) {
        self.records = Some(Vec::new());
    }

    /// Initial replica counts as `(prefill, decode)`; a colocated fleet
    /// counts every replica as prefill.
    pub(crate) fn pool_sizes(&self) -> (usize, usize) {
        let n = self.engines.len();
        self.roles
            .as_ref()
            .map_or((n, 0), |r| (n - r.initial_decode, r.initial_decode))
    }

    /// Runs to completion and reports.
    pub fn run(mut self) -> FleetReport {
        self.run_events();
        self.into_report()
    }

    /// The event loop: runs every event, then checks the end state.
    pub(crate) fn run_events(&mut self) {
        while let Some((now, event)) = self.queue.pop() {
            match event {
                Event::Arrival(a) => self.on_arrival(a, now),
                Event::StepDone(r) => self.on_step_done(r, now),
                Event::ToolsDone { sid, epoch } => self.on_tools_done_event(sid, epoch, now),
                Event::DeadlineExpired { sid, epoch } => self.on_deadline(sid, epoch, now),
                Event::TransferDone(tid) => self.on_transfer_done(tid, now),
                Event::FlipDone(r) => self.on_flip_done(r, now),
            }
            self.drain_all(now);
            if self.roles.is_some() {
                self.autoscale(now);
            }
            for r in 0..self.engines.len() {
                self.kick(r, now);
            }
        }
        self.check_end_state();
    }

    /// Every turn must resolve exactly once, every attempt must end
    /// exactly one way, and no engine, queue or counter may hold work.
    fn check_end_state(&self) {
        assert_eq!(self.live, 0, "no session left live");
        assert!(self.owner.is_empty(), "no engine call left owned");
        assert!(
            self.dispatch.iter().all(VecDeque::is_empty),
            "no op left at dispatch"
        );
        assert!(
            self.in_flight.iter().all(|&n| n == 0),
            "in-flight accounting leaked"
        );
        for e in &self.engines {
            assert_eq!(e.kv().live_sequences(), 0, "KV sequence leaked");
            e.kv().check_invariants().expect("KV invariants at run end");
        }
        if let Some(roles) = &self.roles {
            assert_eq!(roles.transfers.outstanding(), 0, "no transfer left behind");
            assert!(roles.legs.is_empty(), "no decode leg left owned");
            assert!(roles.flip.is_none(), "no flip left in progress");
        }
        let expected = self.config.client.total_turns(self.config.num_requests);
        if self.config.overload.deadline.is_some() {
            assert_eq!(
                self.completed + self.abandoned,
                expected,
                "every turn must resolve on-time or abandoned"
            );
            assert_eq!(
                self.attempts,
                self.completed + self.late + self.cancelled + self.escalated,
                "every attempt must finish, finish late, be cancelled, or escalate"
            );
            assert_eq!(
                self.attempts,
                expected + self.retries + self.escalated,
                "attempts are initial turns plus retries plus escalations"
            );
        } else {
            assert_eq!(self.completed, expected, "all turns must finish");
            assert_eq!(
                self.attempts,
                expected + self.escalated,
                "attempts are turns plus escalations"
            );
        }
    }

    /// Routes one LLM op within `tier`'s pool. The cascade policy picks
    /// the tier; the routing policy picks the replica inside it.
    fn route(&mut self, sid: u64, tier: usize) -> usize {
        let members = &self.tiers[tier];
        let n = members.len();
        match self.config.routing {
            Routing::SessionAffinity => members[(sid as usize) % n],
            Routing::RoundRobin => {
                // Post-increment: the first dispatch lands on the pool's
                // first replica. (Pre-incrementing skewed dispatch order
                // so replica 0 was systematically served last.)
                let local = self.rr_counters[tier] % n;
                self.rr_counters[tier] = (local + 1) % n;
                members[local]
            }
            Routing::LeastLoaded => members
                .iter()
                .copied()
                .min_by_key(|&r| {
                    self.engines[r].queue_len()
                        + self.engines[r].running_len()
                        + self.dispatch_calls[r]
                })
                .expect("non-empty pool"),
        }
    }

    fn on_arrival(&mut self, a: Arrival, now: SimTime) {
        // Chain the next arrival first, so it precedes any event this
        // one schedules at the same instant. Retries (attempt > 0) are
        // driver-issued and must not advance the client process.
        if a.attempt == 0 {
            if let Some(next) = self.client.after_arrival(now) {
                self.queue.push(next.at, Event::Arrival(next));
            }
        }
        // Chatbot turns stay on tier 0: they have no task to pre-screen.
        let agent = if self.tiers.len() > 1 {
            self.config.workload.agent_turn(&self.root_rng, a.turn)
        } else {
            None
        };
        let tier = agent.map_or(0, |(kind, benchmark, _)| {
            let task = TaskGenerator::new(benchmark, self.config.seed).task(a.turn);
            self.arrival_tier(kind, &task, a.attempt)
        });
        let history = if self.config.carry_context {
            self.carry[a.session as usize].clone()
        } else {
            None
        };
        self.begin_attempt(a.session, a.turn, a.attempt, tier, 0, history, now, now);
    }

    /// The tier a fresh (non-escalated) attempt lands on under the
    /// cascade policy: retries optionally climb one tier per attempt, and
    /// tasks whose latent aptitude exceeds the cheap tier's *best-case*
    /// capability (plus margin) skip straight to the top — every cheap
    /// attempt at them is provably wasted work.
    fn arrival_tier(&self, kind: AgentKind, task: &Task, attempt: u32) -> usize {
        let top = self.tiers.len() - 1;
        if top == 0 {
            return 0;
        }
        let c = &self.config.cascade;
        if c.escalate_retries && attempt > 0 {
            return (attempt as usize).min(top);
        }
        if let Some(margin) = c.aptitude_margin {
            let cheap = &self.config.pools[0].agent;
            let best = Cognition::best_case_capability(kind, cheap, task);
            if Cognition::aptitude(task) + margin > best {
                return top;
            }
        }
        0
    }

    /// Opens one delivery attempt of a turn on `tier` and executes its
    /// first command. Shared by client arrivals, retries, and cascade
    /// escalations (which carry `history` and the original `started_at`
    /// across the re-route).
    #[allow(clippy::too_many_arguments)]
    fn begin_attempt(
        &mut self,
        sid: u64,
        turn: u64,
        attempt: u32,
        tier: usize,
        escalations: u32,
        history: Option<TokenBuf>,
        started_at: SimTime,
        now: SimTime,
    ) {
        self.attempts += 1;
        let (runner, cmd) = self.config.workload.start_session(
            turn,
            self.config.seed,
            &self.root_rng,
            Some(self.config.pools[tier].agent),
            history,
            &self.tools,
            now,
        );
        let s = sid as usize;
        assert!(self.slots[s].is_none(), "session {sid} already live");
        self.epochs[s] += 1;
        let epoch = self.epochs[s];
        let deadline = self.config.overload.deadline.map(|d| now + d);
        self.slots[s] = Some(Box::new(Attempt {
            runner,
            turn,
            attempt,
            tier,
            escalations,
            started_at,
            epoch,
            deadline,
            expired: false,
            started: false,
            calls: Vec::new(),
            kv_ctx: None,
            kv_replica: 0,
        }));
        if let Some(expiry) = deadline {
            self.queue
                .push(expiry, Event::DeadlineExpired { sid, epoch });
        }
        self.live += 1;
        self.max_live = self.max_live.max(self.live);
        self.exec(sid, cmd, now);
    }

    /// Executes a session command against the routed fleet.
    fn exec(&mut self, sid: u64, cmd: SessionCmd, now: SimTime) {
        match cmd {
            SessionCmd::Llm(op) => {
                let (epoch, deadline, started, tier) = {
                    let m = self.slots[sid as usize].as_ref().expect("live attempt");
                    (m.epoch, m.deadline, m.started, m.tier)
                };
                let replica = self.route(sid, tier);
                let entry = PendingOp {
                    sid,
                    epoch,
                    deadline,
                    calls: op.calls,
                    priority: op.priority,
                };
                if started {
                    // Admission gates at the door only: this attempt
                    // already holds engine state, so queueing its next
                    // op behind fresh arrivals would strand the GPU
                    // time it has consumed.
                    self.admit_op(replica, entry, now);
                    return;
                }
                self.dispatch_calls[replica] += entry.calls.len();
                match self.config.overload.discipline {
                    QueueDiscipline::Lifo => self.dispatch[replica].push_front(entry),
                    QueueDiscipline::Fifo | QueueDiscipline::DeadlineDrop => {
                        self.dispatch[replica].push_back(entry)
                    }
                }
                self.drain_dispatch(replica, now);
            }
            SessionCmd::Tools { wake } => {
                let epoch = self.epochs[sid as usize];
                self.queue.push(wake, Event::ToolsDone { sid, epoch });
                // The session's context blocks sit idle until the tools
                // return — tell the offload hierarchy exactly when that is.
                if self.hints {
                    if let Some(m) = &self.slots[sid as usize] {
                        if let Some((ctx, _)) = &m.kv_ctx {
                            hint_ctx(&mut self.engines[m.kv_replica], ctx, now, wake);
                        }
                    }
                }
            }
            SessionCmd::Finish(outcome) => {
                let m = *self.slots[sid as usize].take().expect("live attempt");
                let runner = &m.runner;
                debug_assert!(m.calls.is_empty(), "finished with calls in flight");
                self.live -= 1;
                let c = self.config.cascade;
                // Chatbot turns report unsolved by construction; only an
                // agent's failure says a bigger model might do better.
                if c.escalate_on_failure
                    && runner.is_agent()
                    && !outcome.solved
                    && !m.expired
                    && m.tier + 1 < self.tiers.len()
                    && m.escalations < c.max_escalations
                {
                    // Unsolved on this tier: re-run the turn one tier up.
                    // The conversation built so far (tracked engine-side
                    // context, falling back to the cross-turn carry)
                    // survives the re-route as the new attempt's prefix,
                    // so the premium pool prefills it instead of starting
                    // cold — and its KV hints will land on the new
                    // replica.
                    self.escalated += 1;
                    let history = match m.kv_ctx {
                        Some((ctx, _)) => Some(ctx),
                        None => self.carry.get(sid as usize).cloned().flatten(),
                    };
                    self.begin_attempt(
                        sid,
                        m.turn,
                        m.attempt,
                        m.tier + 1,
                        m.escalations + 1,
                        history,
                        m.started_at,
                        now,
                    );
                    return;
                }
                self.last_finish = self.last_finish.max(now);
                if m.expired {
                    // The turn was already resolved abandoned at its
                    // deadline; this finish delivered nothing.
                    self.late += 1;
                } else {
                    // An escalated turn's latency spans the whole cascade
                    // chain, not just the final attempt's trace.
                    let latency = if m.escalations == 0 {
                        runner.trace().e2e()
                    } else {
                        now - m.started_at
                    };
                    let latency = latency.as_secs_f64();
                    self.latencies.push(latency);
                    if runner.is_agent() {
                        self.agent_latencies.push(latency);
                    } else {
                        self.chatbot_latencies.push(latency);
                    }
                    self.completed += 1;
                    if outcome.solved {
                        self.solved += 1;
                    }
                    if let Some(next) = self.client.after_finish(sid, now) {
                        // A closed-loop user thinking before their next
                        // turn: that turn reopens with this context as
                        // its prefix, at a known future instant.
                        if next.session == sid && self.hints {
                            if let Some((ctx, _)) = &m.kv_ctx {
                                hint_ctx(&mut self.engines[m.kv_replica], ctx, now, next.at);
                            }
                        }
                        self.queue.push(next.at, Event::Arrival(next));
                    }
                    // The conversation so far becomes the next turn's
                    // prefix. A fan-out last op leaves no linear context;
                    // the previous carry then stands.
                    if self.config.carry_context {
                        if let Some((ctx, _)) = m.kv_ctx {
                            self.carry[sid as usize] = Some(ctx);
                        }
                    }
                }
            }
        }
    }

    /// GPU-seconds per service-second on `replica`: the GPU count of its
    /// pool's cluster. A service-second wasted on a 4-GPU 70B replica
    /// burns four GPU-seconds — pricing every replica by pool 0's
    /// hardware undercounts heterogeneous waste.
    fn gpu_weight(&self, replica: usize) -> f64 {
        self.config.pools[self.pool_of[replica]]
            .engine
            .cluster
            .gpu_count as f64
    }

    /// A session's tool batch finished; ignore the wake-up if the attempt
    /// was torn down (and possibly replaced) while the tools ran.
    fn on_tools_done_event(&mut self, sid: u64, epoch: u64, now: SimTime) {
        let s = sid as usize;
        if self.epochs[s] != epoch || self.slots[s].is_none() {
            return;
        }
        let cmd = self.slots[s]
            .as_mut()
            .expect("live attempt")
            .runner
            .on_tools_done(&self.tools, now);
        self.exec(sid, cmd, now);
    }

    /// A turn's deadline expired while its attempt was still live.
    fn on_deadline(&mut self, sid: u64, epoch: u64, now: SimTime) {
        let s = sid as usize;
        if self.epochs[s] != epoch || self.slots[s].is_none() {
            return; // The attempt finished (or was replaced) in time.
        }
        if self.config.overload.cancel_on_expiry {
            let meta = self.slots[s].take().expect("live attempt");
            self.live -= 1;
            self.cancelled += 1;
            let mut penalized: Vec<usize> = Vec::new();
            for (replica, id) in &meta.calls {
                let removed = self.owner.remove(&(*replica, *id));
                debug_assert!(removed.is_some(), "meta.calls tracks live submissions");
                self.in_flight[*replica] -= 1;
                self.engines[*replica].cancel(now, *id);
                if !penalized.contains(replica) {
                    penalized.push(*replica);
                    self.admission[*replica].on_timeout();
                }
            }
            // A queued (never-admitted) op of this attempt is dropped
            // lazily at dispatch: its epoch no longer matches the slot's.
            let retry_at = self
                .config
                .overload
                .retry
                .as_ref()
                .filter(|r| meta.attempt < r.max_retries)
                .map(|r| now + r.backoff(meta.attempt));
            match retry_at {
                Some(at) => {
                    self.retries += 1;
                    self.queue.push(
                        at,
                        Event::Arrival(Arrival {
                            at,
                            session: sid,
                            turn: meta.turn,
                            attempt: meta.attempt + 1,
                        }),
                    );
                }
                None => self.resolve_abandoned(sid, now),
            }
        } else {
            // No cancellation: the attempt keeps running to a late finish,
            // but the client-visible turn resolves abandoned now.
            let calls = {
                let m = self.slots[s].as_mut().expect("live attempt");
                m.expired = true;
                m.calls.clone()
            };
            let mut penalized: Vec<usize> = Vec::new();
            for (replica, _) in calls {
                if !penalized.contains(&replica) {
                    penalized.push(replica);
                    self.admission[replica].on_timeout();
                }
            }
            self.resolve_abandoned(sid, now);
        }
    }

    /// The client gives up on a logical turn.
    fn resolve_abandoned(&mut self, sid: u64, now: SimTime) {
        self.abandoned += 1;
        self.last_finish = self.last_finish.max(now);
        if let Some(next) = self.client.after_finish(sid, now) {
            self.queue.push(next.at, Event::Arrival(next));
        }
    }

    /// Routes one completed engine call back to its session.
    fn handle_completion(&mut self, replica: usize, completion: LlmCompletion, now: SimTime) {
        // Wasted service is priced in GPU-seconds by the replica's own
        // pool hardware, not pool 0's.
        let service = (completion.prefill_time + completion.decode_time).as_secs_f64()
            * self.gpu_weight(replica);
        let Some((sid, seq)) = self.owner.remove(&(replica, completion.id)) else {
            // A cancelled attempt's request that finished in the very step
            // the cancellation raced: the work is done, nobody is
            // listening, and the attempt's teardown already settled the
            // in-flight accounting.
            self.wasted_service += service;
            return;
        };
        let key = (replica, completion.id);
        let leg = self.roles.as_mut().and_then(|r| r.legs.remove(&key));
        let done = match leg {
            None => {
                self.release(replica, sid, completion.id, service);
                self.ttfts
                    .push((completion.queue_time() + completion.prefill_time).as_secs_f64());
                if completion.output_tokens > 1 {
                    self.tpots.push(
                        completion.decode_time.as_secs_f64()
                            / (completion.output_tokens - 1) as f64,
                    );
                }
                if let Some(records) = &mut self.records {
                    records.push(local_record(sid, replica, &completion));
                }
                CallDone::from_completion(completion)
            }
            // A decode leg: its prefill replica's slot freed at migration.
            Some(leg) => {
                if self.slots[sid as usize].as_ref().is_some_and(|m| m.expired) {
                    self.wasted_service += service;
                }
                let record = leg.record(replica, &completion);
                self.ttfts.push(record.ttft().as_secs_f64());
                if let Some(tpot) = record.tpot() {
                    self.tpots.push(tpot.as_secs_f64());
                }
                if let Some(records) = &mut self.records {
                    records.push(record);
                }
                CallDone::tokens_only(completion.output_tokens)
            }
        };
        let m = self.slots[sid as usize].as_mut().expect("live attempt");
        // Extend the tracked context with this call's output so hints
        // cover the blocks the engine appended during decode.
        if let Some((ctx, gen_seed)) = m.kv_ctx.as_mut() {
            for i in 0..done.tokens as u64 {
                ctx.push_generated(*gen_seed, i);
            }
        }
        if let Some(cmd) = m.runner.on_call_done(seq, done, &self.tools, now) {
            self.exec(sid, cmd, now);
        }
    }

    /// Frees a call's in-flight slot on `replica` — at completion, or when
    /// the call migrates off a prefill replica — and signals the replica's
    /// admission controller, unless the client already gave up (the
    /// service is then wasted).
    fn release(&mut self, replica: usize, sid: u64, id: RequestId, service: f64) {
        self.in_flight[replica] -= 1;
        let m = self.slots[sid as usize].as_mut().expect("live attempt");
        m.calls.retain(|&call| call != (replica, id));
        if m.expired {
            self.wasted_service += service;
        } else {
            self.admission[replica].on_success();
        }
    }

    fn on_step_done(&mut self, replica: usize, now: SimTime) {
        let mut completions = std::mem::take(&mut self.step_scratch);
        self.engines[replica].complete_step_into(now, &mut completions);
        // Calls released at their first token, KV ready to move. They are
        // handled after the step's completions: decode placement and the
        // event order of the pinned disagg fingerprints depend on it.
        let mut migrations = match &mut self.roles {
            Some(roles) => {
                let mut out = std::mem::take(&mut roles.scratch);
                self.engines[replica].take_migrations_into(&mut out);
                out
            }
            None => Vec::new(),
        };
        for completion in completions.drain(..) {
            self.handle_completion(replica, completion, now);
        }
        self.step_scratch = completions;
        for migration in migrations.drain(..) {
            self.start_migration(replica, migration, now);
        }
        if let Some(roles) = &mut self.roles {
            roles.scratch = migrations;
        }
    }

    /// Puts a freshly released call's KV on the wire toward the
    /// least-loaded decode member (queued + running + inbound transfers).
    fn start_migration(&mut self, replica: usize, migration: MigratedRequest, now: SimTime) {
        let (sid, seq) = self
            .owner
            .remove(&(replica, migration.id))
            .expect("migration belongs to a call");
        let service = migration.prefill_time.as_secs_f64() * self.gpu_weight(replica);
        self.release(replica, sid, migration.id, service);
        let roles = self.roles.as_mut().expect("role-split fleet");
        let engines = &self.engines;
        let dst = roles
            .decode
            .iter()
            .copied()
            .min_by_key(|&r| {
                engines[r].queue_len()
                    + engines[r].running_len()
                    + roles.transfers.in_flight(r) as usize
            })
            .expect("non-empty decode pool");
        let (tid, arrival) = roles.transfers.schedule(now, dst, migration);
        roles.in_transit.insert(tid, (sid, seq, replica));
        self.queue.push(arrival, Event::TransferDone(tid));
    }

    /// A migration landed: its decode leg joins the destination's queue.
    fn on_transfer_done(&mut self, tid: u64, now: SimTime) {
        let roles = self.roles.as_mut().expect("role-split fleet");
        let (sid, seq, prefill_replica) = roles
            .in_transit
            .remove(&tid)
            .expect("transfer belongs to a call");
        let pt = roles.transfers.complete(tid);
        // A draining destination still accepts this: the KV was committed
        // to it before the drain began, and a flip waits for it to land.
        let leg = Leg::new(sid, prefill_replica, &pt.migration, now, pt.transfer.wait());
        let id = self.engines[pt.dst].submit_prefilled(now, pt.migration);
        roles.legs.insert((pt.dst, id), leg);
        self.owner.insert((pt.dst, id), (sid, seq));
    }

    /// Advances the autoscaler: asks the controller whether to start a
    /// flip, then detects the end of a drain in progress — in the same
    /// pass, so a flip of an already-idle replica completes without
    /// waiting for another event.
    fn autoscale(&mut self, now: SimTime) {
        let roles = self.roles.as_mut().expect("role-split fleet");
        let decision = match roles.controller.as_mut() {
            Some(controller) if roles.flip.is_none() => {
                let (engines, transfers) = (&self.engines, &roles.transfers);
                // (queued, running, inbound transfers) summed over a pool.
                let load = |members: &[usize]| {
                    members.iter().fold((0, 0, 0), |(q, r, t), &m| {
                        let e = &engines[m];
                        let inbound = transfers.in_flight(m) as usize;
                        (q + e.queue_len(), r + e.running_len(), t + inbound)
                    })
                };
                let (prefill_queue, prefill_running, _) = load(&self.tiers[0]);
                let (decode_queue, decode_running, transfers_in_flight) = load(&roles.decode);
                controller.observe(&PoolObservation {
                    now,
                    prefill_replicas: self.tiers[0].len(),
                    decode_replicas: roles.decode.len(),
                    flip_in_progress: false,
                    prefill_queue,
                    prefill_running,
                    decode_queue,
                    decode_running,
                    transfers_in_flight,
                })
            }
            _ => None,
        };
        if let Some(direction) = decision {
            self.start_flip(direction, now);
        }
        let roles = self.roles.as_mut().expect("role-split fleet");
        if let Some(flip) = roles.flip.as_mut().filter(|f| f.drained.is_none()) {
            let r = flip.replica;
            if !self.engines[r].has_work() && roles.transfers.in_flight(r) == 0 {
                flip.drained = Some(now);
                let at = now + self.config.flip_cost.flip_time();
                self.queue.push(at, Event::FlipDone(r));
            }
        }
    }

    /// Starts draining the least-loaded source-pool replica toward the
    /// other pool. Infeasible requests (source pool at one replica) are
    /// dropped, deterministically.
    fn start_flip(&mut self, direction: FlipDirection, now: SimTime) {
        let roles = self.roles.as_mut().expect("role-split fleet");
        let source = match direction {
            FlipDirection::PrefillToDecode => &mut self.tiers[0],
            FlipDirection::DecodeToPrefill => &mut roles.decode,
        };
        if source.len() <= 1 {
            return;
        }
        // Least-loaded victim drains fastest; ties break to the lowest
        // index so the choice is deterministic.
        let engines = &self.engines;
        let victim = source
            .iter()
            .copied()
            .min_by_key(|&r| {
                let load = engines[r].queue_len()
                    + engines[r].running_len()
                    + roles.transfers.in_flight(r) as usize;
                (load, r)
            })
            .expect("non-empty source pool");
        source.retain(|&r| r != victim);
        self.engines[victim].begin_drain();
        roles.flip = Some(FlipInProgress {
            replica: victim,
            direction,
            requested: now,
            drained: None,
        });
    }

    /// The reconfiguration gap ended: the drained replica joins the
    /// target pool in its new role.
    fn on_flip_done(&mut self, replica: usize, now: SimTime) {
        let roles = self.roles.as_mut().expect("role-split fleet");
        let flip = roles.flip.take().expect("flip completion without a flip");
        assert_eq!(flip.replica, replica, "flip completion for wrong replica");
        let (role, members) = match flip.direction {
            FlipDirection::PrefillToDecode => (EngineRole::Decode, &mut roles.decode),
            FlipDirection::DecodeToPrefill => (EngineRole::Prefill, &mut self.tiers[0]),
        };
        self.engines[replica].finish_drain(now, role);
        let pos = members.partition_point(|&r| r < replica);
        members.insert(pos, replica);
        roles.flips.push(FlipRecord {
            replica: replica as u32,
            direction: flip.direction,
            requested: flip.requested,
            drained: flip.drained.expect("flip completed before draining"),
            completed: now,
        });
    }

    /// Moves queued ops onto `replica`'s engine while its admission
    /// controller has room. Under accept-all this admits everything
    /// immediately, reproducing the historical direct-submit behaviour.
    fn drain_dispatch(&mut self, replica: usize, now: SimTime) {
        while let Some(idx) = self.select_dispatch(replica) {
            let calls_len = self.dispatch[replica][idx].calls.len();
            let limit = self.admission[replica].limit();
            // Head-of-line exception: an idle replica always admits its
            // next op whole, so a multi-call op larger than the current
            // limit cannot deadlock the queue.
            if !(self.in_flight[replica] == 0 || self.in_flight[replica] + calls_len <= limit) {
                break;
            }
            let op = self.dispatch[replica].remove(idx).expect("selected index");
            self.dispatch_calls[replica] -= calls_len;
            self.admit_op(replica, op, now);
        }
    }

    /// Submits an op's calls to `replica`'s engine, recording ownership
    /// and in-flight accounting. Marks the owning attempt started so its
    /// later ops bypass the admission queue.
    fn admit_op(&mut self, replica: usize, op: PendingOp, now: SimTime) {
        let calls_len = op.calls.len();
        // Snapshot the context before the prompt moves into the engine:
        // it seeds the next-invocation hints this op's tool calls and
        // turn boundaries will emit.
        // Room for the call's output, which completion appends.
        let kv_ctx = if self.track_ctx && calls_len == 1 {
            let call = &op.calls[0];
            let ctx = call.prompt.clone_reserving(call.out_tokens as usize);
            Some((ctx, call.gen_seed))
        } else {
            None
        };
        let mut submitted = Vec::with_capacity(calls_len);
        for (seq, call) in op.calls.into_iter().enumerate() {
            let id = self.engines[replica].submit_with_priority(
                now,
                call.prompt,
                call.out_tokens,
                call.gen_seed,
                op.priority,
            );
            self.owner.insert((replica, id), (op.sid, seq as u32));
            submitted.push((replica, id));
        }
        self.in_flight[replica] += calls_len;
        let m = self.slots[op.sid as usize].as_mut().expect("live attempt");
        m.started = true;
        m.calls.extend(submitted);
        if self.track_ctx {
            // A fan-out op invalidates the tracked context outright.
            m.kv_ctx = kv_ctx;
            m.kv_replica = replica;
        }
    }

    /// Picks the next dispatchable op index for `replica` under the
    /// configured discipline, dropping dead entries along the way.
    fn select_dispatch(&mut self, replica: usize) -> Option<usize> {
        let mut i = 0;
        while i < self.dispatch[replica].len() {
            let op = &self.dispatch[replica][i];
            let sid = op.sid as usize;
            // Stale: the attempt was torn down (and maybe retried) since
            // this op was queued.
            let stale = self.epochs[sid] != op.epoch || self.slots[sid].is_none();
            // Deadline-drop: never start work for a client that already
            // gave up. Only reachable without cancellation (with it, the
            // teardown makes the op stale instead).
            let expired = !stale
                && self.config.overload.discipline == QueueDiscipline::DeadlineDrop
                && self.slots[sid].as_ref().is_some_and(|m| m.expired);
            if stale || expired {
                let op = self.dispatch[replica].remove(i).expect("index in range");
                self.dispatch_calls[replica] -= op.calls.len();
                self.dropped += 1;
                if expired {
                    // An op at dispatch has no sibling calls in flight
                    // (sessions issue one op at a time), so dropping it
                    // is the whole teardown of the expired attempt.
                    self.slots[sid].take();
                    self.live -= 1;
                    self.cancelled += 1;
                }
                continue;
            }
            i += 1;
        }
        let queue = &self.dispatch[replica];
        if queue.is_empty() {
            return None;
        }
        match self.config.overload.discipline {
            QueueDiscipline::Fifo | QueueDiscipline::Lifo => Some(0),
            // Earliest deadline first; ties broken in FIFO order
            // (min_by_key keeps the first minimum).
            QueueDiscipline::DeadlineDrop => (0..queue.len())
                .min_by_key(|&i| queue[i].deadline.expect("deadline-drop requires deadlines")),
        }
    }

    /// Drains every replica's dispatch queue; called after each event so
    /// completions that freed admission slots pull queued work in.
    fn drain_all(&mut self, now: SimTime) {
        for replica in 0..self.dispatch.len() {
            if !self.dispatch[replica].is_empty() {
                self.drain_dispatch(replica, now);
            }
        }
    }

    fn kick(&mut self, replica: usize, now: SimTime) {
        if let Some(end) = self.engines[replica].start_step_if_idle(now) {
            self.queue.push(end, Event::StepDone(replica));
        }
    }

    fn into_report(self) -> FleetReport {
        let mut latencies: Samples = self.latencies.iter().copied().collect();
        let p50_s = latencies.try_median().unwrap_or(f64::NAN);
        let p95_s = latencies.try_p95().unwrap_or(f64::NAN);
        let mut ttfts: Samples = self.ttfts.iter().copied().collect();
        let ttft_p50_s = ttfts.try_median().unwrap_or(f64::NAN);
        let ttft_p95_s = ttfts.try_p95().unwrap_or(f64::NAN);
        let mut tpots: Samples = self.tpots.iter().copied().collect();
        let tpot_p50_s = tpots.try_median().unwrap_or(f64::NAN);
        let tpot_p99_s = tpots.try_percentile(99.0).unwrap_or(f64::NAN);
        let (mut hits, mut lookups) = (0u64, 0u64);
        let mut energy_wh = 0.0;
        let mut wasted_gpu_s = self.wasted_service;
        let mut utilization = Vec::with_capacity(self.engines.len());
        let (mut preemptions, mut evictions) = (0u64, 0u64);
        let (mut kv_avg_bytes, mut kv_max_bytes) = (0.0, 0u64);
        let (mut demoted, mut promoted, mut promoted_tokens, mut dropped) = (0u64, 0u64, 0u64, 0);
        let (mut host_bytes, mut nvme_bytes) = (0u64, 0u64);
        // Integer-microsecond sums converted once at the end: replica
        // iteration order is fixed, but integer accumulation makes the
        // order moot anyway.
        let (mut host_busy, mut host_wait) = (SimDuration::ZERO, SimDuration::ZERO);
        let (mut nvme_busy, mut nvme_wait) = (SimDuration::ZERO, SimDuration::ZERO);
        for (r, e) in self.engines.iter().enumerate() {
            let kv = e.kv().stats();
            hits += kv.hit_tokens;
            lookups += kv.hit_tokens + kv.miss_tokens;
            energy_wh += e.metrics().energy_within(self.last_finish).watt_hours();
            utilization.push(e.metrics().utilization(self.last_finish));
            preemptions += e.metrics().preemptions;
            evictions += kv.evictions;
            let block_bytes = self.config.pools[self.pool_of[r]]
                .engine
                .kv_bytes_per_block();
            kv_avg_bytes += kv.used_blocks.average(self.last_finish) * block_bytes as f64;
            kv_max_bytes = kv_max_bytes.max(kv.used_blocks.peak() * block_bytes);
            wasted_gpu_s += e.metrics().wasted().as_secs_f64() * self.gpu_weight(r);
            demoted += kv.demoted_blocks_host + kv.demoted_blocks_nvme;
            promoted += kv.promoted_blocks_host + kv.promoted_blocks_nvme;
            promoted_tokens += kv.promoted_tokens;
            dropped += kv.offload_dropped_blocks;
            host_bytes += e.host_link().map_or(0, |l| l.bytes_moved());
            nvme_bytes += e.nvme_link().map_or(0, |l| l.bytes_moved());
            if let Some(l) = e.host_link() {
                host_busy += l.busy_time();
                host_wait += l.wait_time();
            }
            if let Some(l) = e.nvme_link() {
                nvme_busy += l.busy_time();
                nvme_wait += l.wait_time();
            }
        }
        let makespan = self.last_finish.as_secs_f64();
        let samples = |v: Vec<f64>| -> Samples { v.into_iter().collect() };
        FleetReport {
            offered_qps: self.config.qps,
            completed: self.completed,
            solved: self.solved,
            escalated: self.escalated,
            makespan: SimDuration::from_micros(self.last_finish.as_micros()),
            agent_latencies: samples(self.agent_latencies),
            chatbot_latencies: samples(self.chatbot_latencies),
            preemptions,
            evictions,
            kv_avg_bytes: kv_avg_bytes / self.engines.len() as f64,
            kv_max_bytes,
            p50_s,
            p95_s,
            kv_hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
            energy_wh,
            utilization,
            throughput: if makespan > 0.0 {
                (self.completed + self.late) as f64 / makespan
            } else {
                0.0
            },
            goodput: if makespan > 0.0 {
                self.completed as f64 / makespan
            } else {
                0.0
            },
            attempts: self.attempts,
            retries: self.retries,
            abandoned: self.abandoned,
            late: self.late,
            cancelled: self.cancelled,
            dropped: self.dropped,
            wasted_gpu_s,
            latencies,
            max_live_sessions: self.max_live,
            ttft_p50_s,
            ttft_p95_s,
            tpot_p50_s,
            tpot_p99_s,
            offload_demoted_blocks: demoted,
            offload_promoted_blocks: promoted,
            offload_promoted_tokens: promoted_tokens,
            offload_dropped_blocks: dropped,
            offload_host_bytes: host_bytes,
            offload_nvme_bytes: nvme_bytes,
            offload_host_busy_s: host_busy.as_secs_f64(),
            offload_host_wait_s: host_wait.as_secs_f64(),
            offload_nvme_busy_s: nvme_busy.as_secs_f64(),
            offload_nvme_wait_s: nvme_wait.as_secs_f64(),
        }
    }

    /// The disaggregated view of a finished run (requires
    /// [`FleetSim::record_calls`] before the run): the fleet report plus
    /// per-pool utilization, per-call records, links and flips.
    pub(crate) fn into_disagg_report(mut self) -> DisaggReport {
        let (prefill_replicas, decode_replicas) = self.pool_sizes();
        let calls = self.records.take().expect("DisaggSim records every call");
        let migrated_calls = calls.iter().filter(|c| c.migrated()).count() as u64;
        let roles = self.roles.take();
        // Float sums follow final pool membership, prefill members then
        // decode members. After a flip that is not index order.
        let everyone: Vec<usize>;
        let (prefill, decode): (&[usize], &[usize]) = match &roles {
            Some(roles) => (&self.tiers[0], &roles.decode),
            None => {
                everyone = (0..self.engines.len()).collect();
                (&everyone, &[])
            }
        };
        let mut energy_wh = 0.0;
        let mut utilization = |members: &[usize]| -> Vec<f64> {
            members
                .iter()
                .map(|&r| {
                    let m = self.engines[r].metrics();
                    energy_wh += m.energy_within(self.last_finish).watt_hours();
                    m.utilization(self.last_finish)
                })
                .collect()
        };
        let prefill_utilization = utilization(prefill);
        let decode_utilization = utilization(decode);
        let makespan_s = self.last_finish.as_micros() as f64 / 1e6;
        let (links, transferred_bytes, transfer_wait, flips) = match roles {
            None => (Vec::new(), 0, SimDuration::ZERO, Vec::new()),
            Some(roles) => {
                debug_assert_eq!(migrated_calls, roles.transfers.completed());
                let links = roles
                    .transfers
                    .links()
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.transfers() > 0)
                    .map(|(r, l)| LinkStats {
                        replica: r as u32,
                        transfers: l.transfers(),
                        chunks: l.chunks(),
                        bytes: l.bytes_moved(),
                        busy_s: l.busy_time().as_secs_f64(),
                        wait_s: l.wait_time().as_secs_f64(),
                        utilization: if makespan_s > 0.0 {
                            l.busy_time().as_secs_f64() / makespan_s
                        } else {
                            0.0
                        },
                    })
                    .collect();
                let bytes = roles.transfers.total_bytes();
                (links, bytes, roles.transfers.total_wait(), roles.flips)
            }
        };
        let fleet = self.into_report();
        DisaggReport {
            offered_qps: fleet.offered_qps,
            prefill_replicas: prefill_replicas as u32,
            decode_replicas: decode_replicas as u32,
            completed: fleet.completed,
            solved: fleet.solved,
            abandoned: fleet.abandoned,
            dropped: fleet.dropped,
            makespan: fleet.makespan,
            latencies: fleet.latencies,
            p50_s: fleet.p50_s,
            p95_s: fleet.p95_s,
            calls,
            migrated_calls,
            transferred_bytes,
            transfer_wait,
            prefill_utilization,
            decode_utilization,
            energy_wh,
            kv_hit_rate: fleet.kv_hit_rate,
            offload_demoted_blocks: fleet.offload_demoted_blocks,
            offload_promoted_blocks: fleet.offload_promoted_blocks,
            offload_promoted_tokens: fleet.offload_promoted_tokens,
            offload_dropped_blocks: fleet.offload_dropped_blocks,
            preemptions: fleet.preemptions,
            flips,
            links,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentsim_session::RetryPolicy;

    fn run(routing: Routing, replicas: u32) -> FleetReport {
        FleetSim::new(FleetConfig::react_hotpotqa(replicas, routing, 2.0, 40).seed(3)).run()
    }

    fn run_closed(routing: Routing, replicas: u32, concurrency: u32, turns: u64) -> FleetReport {
        let cfg = FleetConfig::react_hotpotqa(replicas, routing, 2.0, turns)
            .seed(3)
            .client(ClientModel::ClosedLoop {
                concurrency,
                think_time: SimDuration::from_secs(2),
            });
        FleetSim::new(cfg).run()
    }

    fn run_overload(policy: OverloadPolicy, qps: f64) -> FleetReport {
        FleetSim::new(
            FleetConfig::react_hotpotqa(2, Routing::LeastLoaded, qps, 30)
                .seed(11)
                .overload(policy),
        )
        .run()
    }

    #[test]
    fn round_robin_dispatch_order_starts_at_replica_zero() {
        let mut sim = FleetSim::new(FleetConfig::react_hotpotqa(3, Routing::RoundRobin, 1.0, 3));
        let order: Vec<usize> = (0..7).map(|sid| sim.route(sid, 0)).collect();
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0], "post-increment rotation");
    }

    #[test]
    fn session_affinity_pins_sessions_to_replicas() {
        let mut sim = FleetSim::new(FleetConfig::react_hotpotqa(
            4,
            Routing::SessionAffinity,
            1.0,
            3,
        ));
        for sid in 0..16u64 {
            assert_eq!(sim.route(sid, 0), (sid % 4) as usize);
            // Repeated calls of the same session stay put.
            assert_eq!(sim.route(sid, 0), (sid % 4) as usize);
        }
    }

    #[test]
    fn least_loaded_picks_an_idle_replica_first() {
        let mut sim = FleetSim::new(FleetConfig::react_hotpotqa(3, Routing::LeastLoaded, 1.0, 3));
        // All replicas idle: ties break toward the lowest index.
        assert_eq!(sim.route(9, 0), 0);
    }

    #[test]
    fn fleet_completes_all_requests() {
        let r = run(Routing::SessionAffinity, 3);
        assert_eq!(r.completed, 40);
        assert_eq!(r.utilization.len(), 3);
        assert!(r.throughput > 0.0);
        assert_eq!(
            r.goodput.to_bits(),
            r.throughput.to_bits(),
            "no deadline: goodput is throughput"
        );
        assert_eq!(r.attempts, 40);
        assert_eq!(r.abandoned + r.late + r.cancelled + r.retries, 0);
        assert_eq!(r.wasted_gpu_s, 0.0);
    }

    #[test]
    fn affinity_beats_round_robin_on_hit_rate() {
        // Iterative calls only reuse their history prefix if they land on
        // the same replica.
        let affinity = run(Routing::SessionAffinity, 4);
        let rr = run(Routing::RoundRobin, 4);
        assert!(
            affinity.kv_hit_rate > rr.kv_hit_rate + 0.1,
            "affinity {:.2} vs round-robin {:.2}",
            affinity.kv_hit_rate,
            rr.kv_hit_rate
        );
    }

    #[test]
    fn all_policies_are_deterministic() {
        for routing in [
            Routing::SessionAffinity,
            Routing::RoundRobin,
            Routing::LeastLoaded,
        ] {
            let a = run(routing, 2);
            let b = run(routing, 2);
            assert_eq!(a.p95_s, b.p95_s, "{routing} must be deterministic");
            assert_eq!(a.kv_hit_rate, b.kv_hit_rate);
        }
    }

    #[test]
    fn more_replicas_raise_capacity() {
        let one = FleetSim::new(
            FleetConfig::react_hotpotqa(1, Routing::SessionAffinity, 6.0, 60).seed(4),
        )
        .run();
        let four = FleetSim::new(
            FleetConfig::react_hotpotqa(4, Routing::SessionAffinity, 6.0, 60).seed(4),
        )
        .run();
        assert!(
            four.throughput > one.throughput,
            "4 replicas {:.2} vs 1 replica {:.2} QPS",
            four.throughput,
            one.throughput
        );
        assert!(four.p95_s < one.p95_s);
    }

    #[test]
    fn closed_loop_concurrency_never_exceeds_population() {
        let r = run_closed(Routing::SessionAffinity, 2, 3, 18);
        assert_eq!(r.completed, 18);
        assert!(
            r.max_live_sessions <= 3,
            "live sessions {} exceeded the population",
            r.max_live_sessions
        );
        assert!(r.max_live_sessions >= 1);
    }

    #[test]
    fn closed_loop_is_deterministic() {
        let a = run_closed(Routing::LeastLoaded, 2, 4, 16);
        let b = run_closed(Routing::LeastLoaded, 2, 4, 16);
        assert_eq!(a.p95_s.to_bits(), b.p95_s.to_bits());
        assert_eq!(a.kv_hit_rate.to_bits(), b.kv_hit_rate.to_bits());
        assert_eq!(a.max_live_sessions, b.max_live_sessions);
    }

    #[test]
    fn closed_loop_affinity_beats_round_robin_on_hit_rate() {
        // Multi-turn session reuse gives affinity routing cross-turn
        // replica state to exploit; round-robin scatters it.
        let affinity = run_closed(Routing::SessionAffinity, 4, 8, 40);
        let rr = run_closed(Routing::RoundRobin, 4, 8, 40);
        assert!(
            affinity.kv_hit_rate > rr.kv_hit_rate + 0.1,
            "affinity {:.2} vs round-robin {:.2}",
            affinity.kv_hit_rate,
            rr.kv_hit_rate
        );
    }

    #[test]
    fn deadline_without_cancellation_finishes_late() {
        // A deadline tight enough that some turns miss it, no
        // cancellation: every expired attempt still runs to completion,
        // so late == abandoned and the engines burn wasted service.
        let r = run_overload(
            OverloadPolicy::none().deadline(SimDuration::from_secs(20)),
            8.0,
        );
        assert_eq!(r.completed + r.abandoned, 30);
        assert_eq!(r.attempts, 30);
        assert!(r.abandoned > 0, "the deadline must bind at this load");
        assert_eq!(r.late, r.abandoned, "uncancelled attempts finish late");
        assert!(r.wasted_gpu_s > 0.0);
        assert!(r.goodput <= r.throughput);
    }

    #[test]
    fn cancellation_tears_expired_attempts_down() {
        let r = run_overload(
            OverloadPolicy::none()
                .deadline(SimDuration::from_secs(20))
                .cancel_on_expiry(),
            8.0,
        );
        assert_eq!(r.completed + r.abandoned, 30);
        assert!(r.cancelled > 0, "the deadline must bind at this load");
        assert_eq!(r.late, 0, "cancelled attempts never finish");
        assert_eq!(r.attempts, r.completed + r.cancelled);
        assert!(r.wasted_gpu_s > 0.0, "partial service of cancelled work");
    }

    #[test]
    fn retries_reissue_expired_turns() {
        let r = run_overload(
            OverloadPolicy::none()
                .deadline(SimDuration::from_secs(20))
                .cancel_on_expiry()
                .retry(RetryPolicy::standard()),
            8.0,
        );
        assert!(r.retries > 0, "the deadline must bind at this load");
        assert_eq!(r.attempts, 30 + r.retries);
        assert_eq!(r.attempts, r.completed + r.late + r.cancelled);
        assert_eq!(r.completed + r.abandoned, 30, "retries never double-count");
    }

    #[test]
    fn overload_policies_are_deterministic() {
        let policy = || {
            OverloadPolicy::none()
                .deadline(SimDuration::from_secs(20))
                .cancel_on_expiry()
                .retry(RetryPolicy::standard())
                .admission(AdmissionPolicy::aimd_default())
                .discipline(QueueDiscipline::DeadlineDrop)
        };
        let a = run_overload(policy(), 8.0);
        let b = run_overload(policy(), 8.0);
        assert_eq!(a.goodput.to_bits(), b.goodput.to_bits());
        assert_eq!(a.wasted_gpu_s.to_bits(), b.wasted_gpu_s.to_bits());
        assert_eq!(
            (a.completed, a.retries, a.cancelled, a.dropped),
            (b.completed, b.retries, b.cancelled, b.dropped)
        );
    }

    /// Closed-loop multi-turn traffic over KV-starved replicas: long
    /// think times let other sessions thrash each user's context out of
    /// HBM between turns.
    fn run_tiered(offload: Option<agentsim_llm::OffloadConfig>) -> FleetReport {
        let mut cfg = FleetConfig::react_hotpotqa(2, Routing::SessionAffinity, 2.0, 24)
            .seed(5)
            .client(ClientModel::ClosedLoop {
                concurrency: 6,
                think_time: SimDuration::from_secs(30),
            })
            .with_context_carry()
            .map_engines(|e| e.with_kv_fraction(0.15));
        if let Some(off) = offload {
            cfg = cfg.map_engines(|e| e.with_offload(off.clone()));
        }
        FleetSim::new(cfg).run()
    }

    fn distance_tiers() -> agentsim_llm::OffloadConfig {
        agentsim_llm::OffloadConfig::tiers(2048, 8192)
            .with_policy(agentsim_kvcache::EvictionPolicy::InvocationDistance)
    }

    #[test]
    fn invocation_distance_hints_beat_blind_lru_offload() {
        let lru = run_tiered(Some(agentsim_llm::OffloadConfig::tiers(2048, 8192)));
        let dist = run_tiered(Some(distance_tiers()));
        assert_eq!(lru.completed, dist.completed);
        assert!(
            dist.ttft_p95_s < lru.ttft_p95_s,
            "knowing who returns next must shorten TTFT: {:.3} !< {:.3}",
            dist.ttft_p95_s,
            lru.ttft_p95_s
        );
        assert!(
            dist.kv_hit_rate >= lru.kv_hit_rate,
            "{:.3} !>= {:.3}",
            dist.kv_hit_rate,
            lru.kv_hit_rate
        );
    }

    #[test]
    fn offload_tiers_absorb_cache_thrash() {
        let plain = run_tiered(None);
        let tiered = run_tiered(Some(distance_tiers()));
        assert_eq!(tiered.completed, plain.completed);
        assert!(
            tiered.offload_demoted_blocks > 0,
            "pool pressure must spill"
        );
        assert!(
            tiered.offload_promoted_tokens > 0,
            "evicted contexts must come back from the tiers"
        );
        assert!(tiered.offload_host_bytes > 0, "transfers move real bytes");
        assert!(
            tiered.kv_hit_rate > plain.kv_hit_rate,
            "promoted prefixes count as hits: {:.3} !> {:.3}",
            tiered.kv_hit_rate,
            plain.kv_hit_rate
        );
        assert!(
            tiered.ttft_p95_s < plain.ttft_p95_s,
            "promotion beats recompute on TTFT: {:.3} !< {:.3}",
            tiered.ttft_p95_s,
            plain.ttft_p95_s
        );
    }

    #[test]
    fn zero_capacity_tiers_match_no_offload_bit_for_bit() {
        let plain = run_tiered(None);
        let hollow = run_tiered(Some(agentsim_llm::OffloadConfig::tiers(0, 0)));
        assert_eq!(plain.completed, hollow.completed);
        assert_eq!(plain.p95_s.to_bits(), hollow.p95_s.to_bits());
        assert_eq!(plain.ttft_p95_s.to_bits(), hollow.ttft_p95_s.to_bits());
        assert_eq!(plain.kv_hit_rate.to_bits(), hollow.kv_hit_rate.to_bits());
        assert_eq!(plain.energy_wh.to_bits(), hollow.energy_wh.to_bits());
        assert_eq!(hollow.offload_host_bytes, 0);
        assert_eq!(hollow.offload_nvme_bytes, 0);
    }

    #[test]
    fn offloaded_runs_are_deterministic_across_reruns() {
        let a = run_tiered(Some(distance_tiers()));
        let b = run_tiered(Some(distance_tiers()));
        assert_eq!(a.p95_s.to_bits(), b.p95_s.to_bits());
        assert_eq!(a.ttft_p95_s.to_bits(), b.ttft_p95_s.to_bits());
        assert_eq!(a.kv_hit_rate.to_bits(), b.kv_hit_rate.to_bits());
        assert_eq!(a.offload_demoted_blocks, b.offload_demoted_blocks);
        assert_eq!(a.offload_promoted_tokens, b.offload_promoted_tokens);
        assert_eq!(a.offload_host_bytes, b.offload_host_bytes);
    }

    /// Two cheap 8B replicas plus one 4xH100 70B replica.
    fn hetero_cfg(cascade: CascadePolicy) -> FleetConfig {
        FleetConfig::pooled(
            vec![
                ReplicaPool::new(EngineConfig::a100_llama8b(), 2),
                ReplicaPool::new(EngineConfig::h100x4_llama70b(), 1),
            ],
            Routing::SessionAffinity,
            2.0,
            32,
        )
        .seed(9)
        .cascade(cascade)
    }

    #[test]
    fn single_pool_sugar_equals_explicit_pool_bit_for_bit() {
        let sugar = run(Routing::SessionAffinity, 3);
        let pooled = FleetSim::new(
            FleetConfig::pooled(
                vec![ReplicaPool::new(EngineConfig::a100_llama8b(), 3)],
                Routing::SessionAffinity,
                2.0,
                40,
            )
            .seed(3),
        )
        .run();
        assert_eq!(sugar.completed, pooled.completed);
        assert_eq!(sugar.p50_s.to_bits(), pooled.p50_s.to_bits());
        assert_eq!(sugar.p95_s.to_bits(), pooled.p95_s.to_bits());
        assert_eq!(sugar.kv_hit_rate.to_bits(), pooled.kv_hit_rate.to_bits());
        assert_eq!(sugar.energy_wh.to_bits(), pooled.energy_wh.to_bits());
        assert_eq!(sugar.wasted_gpu_s.to_bits(), pooled.wasted_gpu_s.to_bits());
    }

    /// Pure failure-driven escalation: no aptitude pre-screen, so every
    /// turn starts cheap and only observed failure re-routes it.
    fn escalate_only() -> CascadePolicy {
        CascadePolicy {
            escalate_on_failure: true,
            aptitude_margin: None,
            max_escalations: u32::MAX,
            escalate_retries: false,
        }
    }

    #[test]
    fn cascade_escalates_unsolved_turns_to_the_premium_tier() {
        let flat = FleetSim::new(hetero_cfg(CascadePolicy::none())).run();
        let casc = FleetSim::new(hetero_cfg(escalate_only())).run();
        assert_eq!(flat.completed, 32);
        assert_eq!(casc.completed, 32);
        assert_eq!(flat.escalated, 0, "an inert policy never re-routes");
        assert!(casc.escalated > 0, "some 8B failures must escalate");
        assert_eq!(casc.attempts, 32 + casc.escalated);
        assert!(
            casc.solved > flat.solved,
            "the 70B pool must rescue turns the 8B tier failed: {} !> {}",
            casc.solved,
            flat.solved
        );
    }

    #[test]
    fn aptitude_prescreen_skips_doomed_cheap_attempts() {
        // The cognition pre-screen routes tasks the cheap tier provably
        // cannot solve straight to the top tier, so it reaches (at
        // least) the accuracy of post-hoc escalation while re-running
        // fewer turns.
        let reactive = FleetSim::new(hetero_cfg(escalate_only())).run();
        let screened = FleetSim::new(hetero_cfg(CascadePolicy::standard())).run();
        assert!(screened.solved >= reactive.solved);
        assert!(
            screened.escalated < reactive.escalated,
            "pre-screening must replace most failure-driven re-routes: {} !< {}",
            screened.escalated,
            reactive.escalated
        );
        assert!(
            screened.utilization[2] > 0.0,
            "pre-screened turns land on the premium replica directly"
        );
    }

    #[test]
    fn inert_cascade_over_two_pools_keeps_the_premium_tier_idle() {
        let flat = FleetSim::new(hetero_cfg(CascadePolicy::none())).run();
        assert_eq!(
            flat.utilization[2], 0.0,
            "tier 0 routing never touches the premium replica"
        );
        assert!(flat.utilization[0] > 0.0);
    }

    #[test]
    fn heterogeneous_cascade_is_deterministic_across_reruns() {
        let a = FleetSim::new(hetero_cfg(escalate_only())).run();
        let b = FleetSim::new(hetero_cfg(escalate_only())).run();
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.solved, b.solved);
        assert_eq!(a.escalated, b.escalated);
        assert_eq!(a.p95_s.to_bits(), b.p95_s.to_bits());
        assert_eq!(a.tpot_p99_s.to_bits(), b.tpot_p99_s.to_bits());
        assert_eq!(a.kv_hit_rate.to_bits(), b.kv_hit_rate.to_bits());
        assert_eq!(a.wasted_gpu_s.to_bits(), b.wasted_gpu_s.to_bits());
    }

    fn mixed(agent_fraction: f64) -> Workload {
        Workload::Mixed {
            agent_fraction,
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: AgentConfig::default_8b(),
        }
    }

    #[test]
    fn cascade_never_escalates_or_prescreens_chatbot_turns() {
        // Over two pools each turn escalates at most once, so more
        // escalations than agent turns would mean chatbot turns (which
        // report unsolved by construction) were escalated too.
        let r = FleetSim::new(hetero_cfg(escalate_only()).workload(mixed(0.5))).run();
        assert_eq!(r.completed, 32);
        assert!(
            !r.chatbot_latencies.is_empty(),
            "some chatbot turns arrived"
        );
        assert!(r.escalated > 0, "unsolved agent turns still escalate");
        assert!(
            r.escalated <= r.agent_latencies.len() as u64,
            "{} escalations from {} agent turns",
            r.escalated,
            r.agent_latencies.len()
        );
        // Pure chatbot traffic under the full cascade: nothing escalates,
        // nothing is pre-screened onto the premium tier.
        let chat = FleetSim::new(hetero_cfg(CascadePolicy::standard()).workload(mixed(0.0))).run();
        assert_eq!(chat.escalated, 0);
        assert!(chat.agent_latencies.is_empty());
        assert_eq!(chat.utilization[2], 0.0, "chatbot turns stay on tier 0");
    }

    #[test]
    fn mixed_traffic_on_a_multi_replica_fleet() {
        let run = || {
            FleetSim::new(
                FleetConfig::react_hotpotqa(3, Routing::LeastLoaded, 2.0, 40)
                    .seed(4)
                    .workload(mixed(0.4)),
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.completed, 40);
        assert!(!a.agent_latencies.is_empty() && !a.chatbot_latencies.is_empty());
        assert_eq!(
            a.agent_latencies.len() + a.chatbot_latencies.len(),
            a.completed as usize,
            "every turn is classified exactly once"
        );
        assert_eq!(a.solved, b.solved);
        assert_eq!(a.p50_s.to_bits(), b.p50_s.to_bits());
        assert_eq!(a.p95_s.to_bits(), b.p95_s.to_bits());
        assert_eq!(a.kv_hit_rate.to_bits(), b.kv_hit_rate.to_bits());
        assert_eq!(a.energy_wh.to_bits(), b.energy_wh.to_bits());
        assert_eq!(a.makespan, b.makespan);
    }

    #[test]
    #[should_panic(expected = "disagrees with pool 0")]
    fn workload_agent_config_must_match_pool_zero() {
        let workload = Workload::Agent {
            kind: AgentKind::React,
            benchmark: Benchmark::HotpotQa,
            config: AgentConfig::default_70b(),
        };
        FleetSim::new(
            FleetConfig::react_hotpotqa(2, Routing::RoundRobin, 1.0, 4).workload(workload),
        );
    }

    #[test]
    #[should_panic(expected = "agent_fraction NaN")]
    fn invalid_workload_is_rejected_at_build() {
        FleetSim::new(
            FleetConfig::react_hotpotqa(1, Routing::RoundRobin, 1.0, 4).workload(mixed(f64::NAN)),
        );
    }

    /// A role-split fleet of `prefill` + `decode` default 8B replicas.
    fn split_cfg(prefill: u32, decode: u32) -> FleetConfig {
        let pool = |role, n| ReplicaPool::new(EngineConfig::a100_llama8b().with_role(role), n);
        FleetConfig::pooled(
            vec![
                pool(EngineRole::Prefill, prefill),
                pool(EngineRole::Decode, decode),
            ],
            Routing::LeastLoaded,
            2.0,
            12,
        )
        .seed(12)
    }

    #[test]
    fn role_split_fleet_carries_context_under_a_closed_loop() {
        let cfg = |carry: bool| {
            let cfg = split_cfg(1, 2).client(ClientModel::ClosedLoop {
                concurrency: 4,
                think_time: SimDuration::from_secs(2),
            });
            if carry {
                cfg.with_context_carry()
            } else {
                cfg
            }
        };
        let a = crate::DisaggSim::new(cfg(true)).run();
        let b = crate::DisaggSim::new(cfg(true)).run();
        assert_eq!(a.completed, 12, "every turn completes");
        assert!(a.migrated_calls > 0);
        assert_eq!(
            a.transferred_bytes,
            a.calls.iter().map(|c| c.kv_bytes).sum::<u64>(),
            "link bytes are the calls' KV footprints"
        );
        for c in &a.calls {
            assert_eq!(c.span().total(), c.e2e(), "five phases partition e2e");
        }
        assert_eq!(a.calls, b.calls, "reruns are bit-identical");
        assert_eq!(a.p95_s.to_bits(), b.p95_s.to_bits());
        assert_eq!(a.energy_wh.to_bits(), b.energy_wh.to_bits());
        // Carried conversations lengthen follow-up prompts.
        let prompt = |r: &agentsim_disagg::DisaggReport| -> u64 {
            r.calls.iter().map(|c| u64::from(c.prompt_tokens)).sum()
        };
        let plain = crate::DisaggSim::new(cfg(false)).run();
        assert!(prompt(&a) > prompt(&plain), "carry grows prompts");
        // The same fleet also reports through the colocated report.
        let fleet = FleetSim::new(cfg(true)).run();
        assert_eq!(fleet.completed, 12);
        assert_eq!(fleet.p95_s.to_bits(), a.p95_s.to_bits());
    }

    #[test]
    #[should_panic(expected = "cannot cancel on expiry")]
    fn role_split_rejects_cancel_on_expiry() {
        FleetSim::new(
            split_cfg(1, 1).overload(
                OverloadPolicy::none()
                    .deadline(SimDuration::from_secs(20))
                    .cancel_on_expiry(),
            ),
        );
    }

    #[test]
    #[should_panic(expected = "cannot cancel on expiry (or retry)")]
    fn role_split_rejects_retry() {
        FleetSim::new(
            split_cfg(1, 1).overload(
                OverloadPolicy::none()
                    .deadline(SimDuration::from_secs(20))
                    .cancel_on_expiry()
                    .retry(RetryPolicy::standard()),
            ),
        );
    }

    #[test]
    #[should_panic(expected = "one routing tier")]
    fn role_split_rejects_cascade() {
        FleetSim::new(split_cfg(1, 1).cascade(CascadePolicy::standard()));
    }

    #[test]
    #[should_panic(expected = "no Colocated pool")]
    fn role_split_rejects_a_colocated_pool() {
        let mut cfg = split_cfg(1, 1);
        cfg.pools
            .push(ReplicaPool::new(EngineConfig::a100_llama8b(), 1));
        FleetSim::new(cfg);
    }

    #[test]
    #[should_panic(expected = "needs Prefill and Decode pools")]
    fn role_split_rejects_a_missing_role() {
        let mut cfg = split_cfg(1, 1);
        cfg.pools.pop();
        FleetSim::new(cfg);
    }

    #[test]
    #[should_panic(expected = "serves one model")]
    fn role_split_rejects_mismatched_agents() {
        let mut cfg = split_cfg(1, 1);
        cfg.pools[1].agent = AgentConfig::default_70b();
        FleetSim::new(cfg);
    }

    #[test]
    #[should_panic(expected = "needs accept-all admission")]
    fn role_split_autoscaling_rejects_admission_limits() {
        FleetSim::new(
            split_cfg(2, 2)
                .autoscale(AutoscalePolicy::Pinned)
                .overload(OverloadPolicy::none().admission(AdmissionPolicy::aimd_default())),
        );
    }

    #[test]
    fn lifo_discipline_admits_newest_work_first() {
        // Just a liveness check: the run terminates and the accounting
        // telescopes under a non-FIFO discipline with a tight limiter.
        let r = run_overload(
            OverloadPolicy::none()
                .deadline(SimDuration::from_secs(25))
                .cancel_on_expiry()
                .admission(AdmissionPolicy::Aimd {
                    initial: 2.0,
                    min: 1.0,
                    max: 8.0,
                    increase: 1.0,
                    decrease: 0.5,
                })
                .discipline(QueueDiscipline::Lifo),
            8.0,
        );
        assert_eq!(r.completed + r.abandoned, 30);
        assert_eq!(r.attempts, r.completed + r.late + r.cancelled);
    }
}
