//! Client models: who submits work to the server, and when.
//!
//! The paper's serving sections (and most LLM-serving benchmarks) assume
//! an *open-loop* client — a Poisson process that keeps firing regardless
//! of how the server is doing. Real agent deployments are largely
//! *closed-loop*: a bounded user population where each user waits for
//! their current task to finish, thinks, and submits the next one from
//! the **same session**, so affinity routing and prefix caching carry
//! state across turns.
//!
//! The fleet driver consumes these through the [`ArrivalProcess`]
//! trait: a lazy generator that is asked for the next arrival when the
//! previous one fires ([`ArrivalProcess::after_arrival`]) or when a turn
//! completes ([`ArrivalProcess::after_finish`]), instead of pre-loading
//! `num_requests` events into the queue at t = 0.

use agentsim_simkit::dist::{Exponential, Sample};
use agentsim_simkit::{SimDuration, SimRng, SimTime};

/// One client submission, produced by an [`ArrivalProcess`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Arrival {
    /// When the request enters the system.
    pub at: SimTime,
    /// Stable session identity (drives routing affinity and the slot a
    /// driver stores session state in). Open-loop clients use a fresh
    /// session per arrival; closed-loop clients reuse one per user.
    pub session: u64,
    /// Global turn index, unique across the whole run (drives task
    /// selection and per-turn RNG forks, so a closed-loop user solves a
    /// *different* task each turn).
    pub turn: u64,
    /// Which delivery attempt of this logical turn this is. Client
    /// processes always issue attempt 0; drivers re-issue the same turn
    /// with `attempt + 1` when a deadline expires under a retry policy
    /// (see [`RetryPolicy`](crate::RetryPolicy)).
    pub attempt: u32,
}

/// Declarative description of the client population. Cheap to clone;
/// the driver builds the stateful arrival process from it.
#[derive(Debug, Clone, Default)]
pub enum ClientModel {
    /// Poisson arrivals at the configured QPS, one single-turn session
    /// per arrival, regardless of server state (the paper's §IV-C
    /// methodology, and this simulator's historical behaviour —
    /// bit-identical to the old pre-scheduled loop).
    #[default]
    OpenLoopPoisson,
    /// A fixed population of `concurrency` users. Each user submits a
    /// task, waits for it to finish, thinks for an exponentially
    /// distributed time with mean `think_time`, then submits the next
    /// task under the **same session id** — so at most `concurrency`
    /// turns are ever in flight, and per-session server state (routing
    /// affinity, prefix cache) is exercised across turns.
    ClosedLoop {
        /// Number of concurrent users (the population size).
        concurrency: u32,
        /// Mean think time between a turn finishing and the next
        /// submission. Zero means immediate re-submission.
        think_time: SimDuration,
    },
    /// Replays a recorded arrival trace: entry `i` is the gap between
    /// arrival `i-1` and arrival `i` (the first gap is measured from
    /// t = 0). One single-turn session per arrival; the trace length
    /// overrides the configured request count.
    TraceReplay {
        /// Inter-arrival gaps, in arrival order.
        gaps: Vec<SimDuration>,
    },
}

impl ClientModel {
    /// Number of session slots a driver must allocate for a run issuing
    /// up to `num_requests` turns.
    pub fn sessions(&self, num_requests: u64) -> u64 {
        match self {
            ClientModel::OpenLoopPoisson => num_requests,
            ClientModel::ClosedLoop { concurrency, .. } => (*concurrency as u64).min(num_requests),
            ClientModel::TraceReplay { gaps } => gaps.len() as u64,
        }
    }

    /// Total turns the process will issue (drivers assert they complete
    /// exactly this many).
    pub fn total_turns(&self, num_requests: u64) -> u64 {
        match self {
            ClientModel::OpenLoopPoisson | ClientModel::ClosedLoop { .. } => num_requests,
            ClientModel::TraceReplay { gaps } => gaps.len() as u64,
        }
    }

    /// Instantiates the stateful process. `rng` must be the driver's
    /// arrival stream (`root.fork(seeds::ARRIVALS)`); open-loop draws
    /// from it directly, which keeps gap sequences bit-identical to the
    /// historical pre-scheduled loop.
    pub(crate) fn build(
        &self,
        qps: f64,
        num_requests: u64,
        rng: SimRng,
    ) -> Box<dyn ArrivalProcess> {
        match self {
            ClientModel::OpenLoopPoisson => Box::new(OpenLoopPoisson {
                gaps: Exponential::with_rate(qps),
                rng,
                last: SimTime::ZERO,
                issued: 0,
                total: num_requests,
            }),
            ClientModel::ClosedLoop {
                concurrency,
                think_time,
            } => {
                let population = (*concurrency as u64).min(num_requests);
                Box::new(ClosedLoop {
                    think: (!think_time.is_zero())
                        .then(|| Exponential::with_mean(think_time.as_secs_f64())),
                    rng,
                    population,
                    gaps_drawn: vec![0; population as usize],
                    issued: 0,
                    total: num_requests,
                })
            }
            ClientModel::TraceReplay { gaps } => Box::new(TraceReplay {
                gaps: gaps.clone(),
                last: SimTime::ZERO,
                issued: 0,
            }),
        }
    }
}

/// The stateful arrival generator a driver steps its run with.
pub(crate) trait ArrivalProcess: std::fmt::Debug {
    /// Arrivals to seed the event queue with at t = 0 (one for open
    /// loop / replay; the whole population's first turns for closed
    /// loop).
    fn initial(&mut self) -> Vec<Arrival>;

    /// Called when an arrival fires: the next arrival to schedule, if
    /// any (open loop / replay chain here; closed loop is driven by
    /// completions instead).
    fn after_arrival(&mut self, now: SimTime) -> Option<Arrival>;

    /// Called when session `session`'s turn completes at `now`: the
    /// user's next submission, if any.
    fn after_finish(&mut self, session: u64, now: SimTime) -> Option<Arrival>;
}

#[derive(Debug)]
struct OpenLoopPoisson {
    gaps: Exponential,
    rng: SimRng,
    last: SimTime,
    issued: u64,
    total: u64,
}

impl OpenLoopPoisson {
    fn next(&mut self) -> Option<Arrival> {
        if self.issued >= self.total {
            return None;
        }
        let i = self.issued;
        self.issued += 1;
        self.last += SimDuration::from_secs_f64(self.gaps.sample(&mut self.rng));
        Some(Arrival {
            at: self.last,
            session: i,
            turn: i,
            attempt: 0,
        })
    }
}

impl ArrivalProcess for OpenLoopPoisson {
    fn initial(&mut self) -> Vec<Arrival> {
        self.next().into_iter().collect()
    }

    fn after_arrival(&mut self, _now: SimTime) -> Option<Arrival> {
        self.next()
    }

    fn after_finish(&mut self, _session: u64, _now: SimTime) -> Option<Arrival> {
        None
    }
}

#[derive(Debug)]
struct ClosedLoop {
    /// `None` when think time is zero (no sampling, immediate turn).
    think: Option<Exponential>,
    rng: SimRng,
    population: u64,
    /// Per-user count of think gaps drawn, so each draw comes from a
    /// fresh key of the user's private sub-stream.
    gaps_drawn: Vec<u64>,
    issued: u64,
    total: u64,
}

impl ClosedLoop {
    /// Draws user `u`'s next think gap. Each user thinks on a private
    /// sub-stream (`rng.fork(u)` does not advance the parent) keyed by
    /// their own draw count, so one user's think sequence is independent
    /// of how the others' turns interleave — the whole run stays a pure
    /// function of the seed.
    fn think_gap(&mut self, user: u64) -> SimDuration {
        let nth = self.gaps_drawn[user as usize];
        self.gaps_drawn[user as usize] += 1;
        match &self.think {
            Some(dist) => {
                let mut rng = self.rng.fork(user).fork(nth);
                SimDuration::from_secs_f64(dist.sample(&mut rng))
            }
            None => SimDuration::ZERO,
        }
    }

    fn issue(&mut self, user: u64, at: SimTime) -> Arrival {
        let turn = self.issued;
        self.issued += 1;
        Arrival {
            at,
            session: user,
            turn,
            attempt: 0,
        }
    }
}

impl ArrivalProcess for ClosedLoop {
    fn initial(&mut self) -> Vec<Arrival> {
        // Every user thinks before their first submission too, so the
        // population ramps in staggered rather than stampeding at t = 0.
        (0..self.population)
            .map(|u| {
                let gap = self.think_gap(u);
                self.issue(u, SimTime::ZERO + gap)
            })
            .collect()
    }

    fn after_arrival(&mut self, _now: SimTime) -> Option<Arrival> {
        None
    }

    fn after_finish(&mut self, session: u64, now: SimTime) -> Option<Arrival> {
        if self.issued >= self.total {
            return None;
        }
        let gap = self.think_gap(session);
        Some(self.issue(session, now + gap))
    }
}

#[derive(Debug)]
struct TraceReplay {
    gaps: Vec<SimDuration>,
    last: SimTime,
    issued: u64,
}

impl TraceReplay {
    fn next(&mut self) -> Option<Arrival> {
        let gap = *self.gaps.get(self.issued as usize)?;
        let i = self.issued;
        self.issued += 1;
        self.last += gap;
        Some(Arrival {
            at: self.last,
            session: i,
            turn: i,
            attempt: 0,
        })
    }
}

impl ArrivalProcess for TraceReplay {
    fn initial(&mut self) -> Vec<Arrival> {
        self.next().into_iter().collect()
    }

    fn after_arrival(&mut self, _now: SimTime) -> Option<Arrival> {
        self.next()
    }

    fn after_finish(&mut self, _session: u64, _now: SimTime) -> Option<Arrival> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(7).fork(crate::seeds::ARRIVALS)
    }

    #[test]
    fn open_loop_matches_pre_scheduled_gaps() {
        // The lazy chain must reproduce the historical eager loop draw
        // for draw.
        let gaps = Exponential::with_rate(4.0);
        let mut eager_rng = rng();
        let mut t = SimTime::ZERO;
        let eager: Vec<SimTime> = (0..20)
            .map(|_| {
                t += SimDuration::from_secs_f64(gaps.sample(&mut eager_rng));
                t
            })
            .collect();

        let mut p = ClientModel::OpenLoopPoisson.build(4.0, 20, rng());
        let mut lazy = p.initial();
        while let Some(a) = p.after_arrival(lazy.last().unwrap().at) {
            lazy.push(a);
        }
        assert_eq!(lazy.len(), 20);
        for (i, a) in lazy.iter().enumerate() {
            assert_eq!(a.at, eager[i], "arrival {i}");
            assert_eq!(a.session, i as u64);
            assert_eq!(a.turn, i as u64);
        }
        assert!(p.after_finish(0, t).is_none());
    }

    #[test]
    fn closed_loop_respects_population_and_turn_budget() {
        let model = ClientModel::ClosedLoop {
            concurrency: 3,
            think_time: SimDuration::from_secs(5),
        };
        assert_eq!(model.sessions(10), 3);
        assert_eq!(model.total_turns(10), 10);
        let mut p = model.build(1.0, 10, rng());
        let first = p.initial();
        assert_eq!(first.len(), 3, "one initial turn per user");
        let mut issued = first.len() as u64;
        let mut in_flight: Vec<Arrival> = first;
        // Finish turns round-robin; each finish yields at most one new
        // turn for the same session, until the budget is spent.
        while let Some(done) = in_flight.pop() {
            if let Some(next) = p.after_finish(done.session, done.at + SimDuration::from_secs(30)) {
                assert_eq!(next.session, done.session, "session id is reused");
                assert!(next.at >= done.at, "next turn is after the finish");
                issued += 1;
                in_flight.insert(0, next);
            }
        }
        assert_eq!(issued, 10, "exactly the turn budget is issued");
    }

    #[test]
    fn closed_loop_population_larger_than_budget_is_clamped() {
        let model = ClientModel::ClosedLoop {
            concurrency: 64,
            think_time: SimDuration::ZERO,
        };
        assert_eq!(model.sessions(5), 5);
        let mut p = model.build(1.0, 5, rng());
        assert_eq!(p.initial().len(), 5);
        assert!(p.after_finish(0, SimTime::ZERO).is_none());
    }

    #[test]
    fn zero_think_time_resubmits_immediately() {
        let model = ClientModel::ClosedLoop {
            concurrency: 1,
            think_time: SimDuration::ZERO,
        };
        let mut p = model.build(1.0, 3, rng());
        let first = p.initial();
        assert_eq!(first[0].at, SimTime::ZERO);
        let t = SimTime::from_secs_f64(9.0);
        let next = p.after_finish(0, t).expect("budget remains");
        assert_eq!(next.at, t, "no think gap");
        assert_eq!(next.turn, 1, "turns are globally unique");
    }

    #[test]
    fn closed_loop_is_deterministic() {
        let model = ClientModel::ClosedLoop {
            concurrency: 4,
            think_time: SimDuration::from_secs(2),
        };
        let run = || {
            let mut p = model.build(1.0, 12, rng());
            let mut all = p.initial();
            let mut i = 0;
            while let Some(a) = {
                let done = all[i % all.len()];
                p.after_finish(done.session, done.at + SimDuration::from_secs(1))
            } {
                all.push(a);
                i += 1;
            }
            all.iter()
                .map(|a| (a.at, a.session, a.turn))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn trace_replay_walks_the_gaps() {
        let model = ClientModel::TraceReplay {
            gaps: vec![
                SimDuration::from_secs(1),
                SimDuration::from_secs(2),
                SimDuration::from_secs(3),
            ],
        };
        assert_eq!(model.total_turns(999), 3, "trace length wins");
        let mut p = model.build(1.0, 999, rng());
        let first = p.initial();
        assert_eq!(first[0].at, SimTime::from_secs_f64(1.0));
        let second = p.after_arrival(first[0].at).unwrap();
        assert_eq!(second.at, SimTime::from_secs_f64(3.0));
        let third = p.after_arrival(second.at).unwrap();
        assert_eq!(third.at, SimTime::from_secs_f64(6.0));
        assert!(p.after_arrival(third.at).is_none());
    }
}
