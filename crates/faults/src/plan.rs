//! Fault plans: what to break, where, and when — all in virtual time.
//!
//! A [`FaultPlan`] is a *pure description*. It never observes wall-clock
//! time or OS scheduling: every trigger is keyed on virtual time, a
//! per-rank call count, or a per-rank send index, so the same plan replayed
//! on the same program produces the same faults in the same places — on
//! the parked scheduler and the polling one alike.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// How many times the point-to-point layer retries a dropped envelope
/// before declaring the message lost and aborting the run. A
/// [`MsgFaultKind::Drop`] with `count <= MAX_SEND_RETRIES` is therefore
/// always recovered; a larger burst is a fatal, diagnosed loss.
pub const MAX_SEND_RETRIES: u32 = 3;

/// Virtual-time backoff charged for retry `attempt` (0-based) of a dropped
/// send: exponential in the per-message overhead, so the retries are
/// visible in the virtual timeline but never depend on wall clocks.
pub fn retry_backoff_s(base_s: f64, attempt: u32) -> f64 {
    base_s * (1u64 << (attempt + 1)) as f64
}

/// What happens to one planned point-to-point send (collectives ride on
/// the same path, so they are covered too).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum MsgFaultKind {
    /// The envelope is dropped `count` times; each drop costs the sender a
    /// virtual backoff before the retry. More than [`MAX_SEND_RETRIES`]
    /// drops turn into a diagnosed message loss (the sender aborts the
    /// run rather than letting the receiver hang).
    Drop { count: u32 },
    /// A second, marked copy of the envelope is delivered; the receiver
    /// must discard it.
    Duplicate,
    /// The envelope's virtual arrival is pushed `extra_s` seconds into the
    /// future.
    Delay { extra_s: f64 },
}

/// A fault attached to the `nth_send`-th point-to-point send issued by
/// global rank `src` (counting from 0, collective-internal sends
/// included).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MsgFault {
    pub src: usize,
    pub nth_send: u64,
    pub kind: MsgFaultKind,
}

/// When a planned rank crash fires.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CrashWhen {
    /// At the first fault hook where the rank's virtual clock has reached
    /// `t_s`.
    AtTime { t_s: f64 },
    /// At the rank's `calls`-th fault hook (compute / send entry points).
    AtCall { calls: u64 },
}

/// Panic-style death of one rank.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CrashFault {
    pub rank: usize,
    pub when: CrashWhen,
}

/// How a RAPL counter misbehaves from `from_s` onward.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum CounterFaultKind {
    /// The counter accumulates an extra `extra_w` watts of phantom power:
    /// every read of the socket from `from_s` on carries
    /// `extra_w × (t − from_s)` joules it never drew. Nothing reconstructs
    /// them, so the fault is injected and observed but never recovered.
    WrapStorm { extra_w: f64 },
    /// The counter freezes at its value at `from_s`.
    Stuck,
    /// Reads fail outright (a dead powercap sysfs node); the monitor
    /// protocol degrades the node to "unmeasured" when degradation is
    /// enabled.
    Glitch,
}

/// A measurement fault on one `(node, socket)` energy counter.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterFault {
    pub node: usize,
    pub socket: usize,
    pub from_s: f64,
    pub kind: CounterFaultKind,
}

/// A runtime-driven single-column loss for checksum-protected solvers
/// (IMeP: `reduce_table` arms its checksum guard when the plan carries
/// one, and only then): at `level` (counting down), the owner of table
/// column `column` loses that column's data. Plans are portable across
/// problem sizes: consumers reduce `level` / `column` into their own valid
/// range.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ColumnLoss {
    pub level: usize,
    pub column: usize,
}

/// A complete, serialisable fault plan. An empty plan injects nothing; a
/// machine with *no* plan attached pays one branch per hook and is
/// bit-identical in virtual time to a pre-fault-layer build.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Provenance: the seed this plan was generated from (0 for
    /// hand-written plans).
    #[serde(default = "Default::default")]
    pub seed: u64,
    #[serde(default = "Default::default")]
    pub messages: Vec<MsgFault>,
    #[serde(default = "Default::default")]
    pub crashes: Vec<CrashFault>,
    #[serde(default = "Default::default")]
    pub counters: Vec<CounterFault>,
    /// Nodes whose monitoring rank dies during the Figure-2 protocol.
    #[serde(default = "Default::default")]
    pub monitor_deaths: Vec<usize>,
    #[serde(default = "Default::default")]
    pub column_loss: Option<ColumnLoss>,
}

/// The dimensions a seeded plan generator scales its draws to.
#[derive(Clone, Copy, Debug)]
pub struct PlanShape {
    /// World size of the target run.
    pub ranks: usize,
    /// Nodes the run occupies.
    pub nodes: usize,
    /// Matrix dimension (bounds column-loss draws).
    pub n: usize,
}

impl FaultPlan {
    /// Does this plan inject anything at all?
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
            && self.crashes.is_empty()
            && self.counters.is_empty()
            && self.monitor_deaths.is_empty()
            && self.column_loss.is_none()
    }

    /// A seeded chaos plan: a mix of message, crash, measurement, monitor
    /// and column-loss faults. Some draws are fatal by design (crashes,
    /// drop bursts past the retry budget) — chaos batteries assert those
    /// runs abort with a typed cause instead of hanging.
    pub fn seeded(seed: u64, shape: &PlanShape) -> FaultPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA17_7E57);
        let mut plan = Self::recoverable_draws(&mut rng, seed, shape);
        // Chaos extras: with moderate probability, add a genuinely fatal
        // fault so the abort path stays exercised.
        if rng.gen_bool(0.25) {
            plan.crashes.push(CrashFault {
                rank: rng.gen_range(0..shape.ranks),
                when: if rng.gen_bool(0.5) {
                    CrashWhen::AtTime {
                        t_s: rng.gen_range(0.0..0.02),
                    }
                } else {
                    CrashWhen::AtCall {
                        calls: rng.gen_range(1..400u64),
                    }
                },
            });
        }
        if rng.gen_bool(0.15) {
            plan.messages.push(MsgFault {
                src: rng.gen_range(0..shape.ranks),
                nth_send: rng.gen_range(0..50u64),
                kind: MsgFaultKind::Drop {
                    count: MAX_SEND_RETRIES + 1,
                },
            });
        }
        plan
    }

    /// The recoverable share of a [`seeded`](Self::seeded) plan: every
    /// fault it draws is absorbed by a retry, a discard, a degradation or a
    /// checksum recovery.
    fn recoverable_draws(rng: &mut ChaCha8Rng, seed: u64, shape: &PlanShape) -> FaultPlan {
        let mut plan = FaultPlan {
            seed,
            ..Default::default()
        };
        // Early send indices so the faults reliably fire even on short
        // runs; small drop bursts stay inside the retry budget.
        for _ in 0..rng.gen_range(1..=4usize) {
            let kind = match rng.gen_range(0..3u32) {
                0 => MsgFaultKind::Drop {
                    count: rng.gen_range(1..=MAX_SEND_RETRIES),
                },
                1 => MsgFaultKind::Duplicate,
                _ => MsgFaultKind::Delay {
                    extra_s: rng.gen_range(1.0e-6..2.0e-3),
                },
            };
            plan.messages.push(MsgFault {
                src: rng.gen_range(0..shape.ranks),
                nth_send: rng.gen_range(0..40u64),
                kind,
            });
        }
        if rng.gen_bool(0.5) {
            let kind = match rng.gen_range(0..3u32) {
                0 => CounterFaultKind::WrapStorm {
                    extra_w: rng.gen_range(1.0e7..1.0e9),
                },
                1 => CounterFaultKind::Stuck,
                _ => CounterFaultKind::Glitch,
            };
            plan.counters.push(CounterFault {
                node: rng.gen_range(0..shape.nodes),
                socket: rng.gen_range(0..2usize),
                from_s: rng.gen_range(0.0..0.01),
                kind,
            });
        }
        // At most one monitoring rank dies, and only when more than one
        // node exists, so at least one node stays measured.
        if shape.nodes > 1 && rng.gen_bool(0.3) {
            plan.monitor_deaths.push(rng.gen_range(0..shape.nodes));
        }
        if shape.n > 0 && rng.gen_bool(0.4) {
            plan.column_loss = Some(ColumnLoss {
                level: rng.gen_range(0..shape.n),
                column: rng.gen_range(0..2 * shape.n),
            });
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> PlanShape {
        PlanShape {
            ranks: 16,
            nodes: 2,
            n: 64,
        }
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..20 {
            assert_eq!(
                FaultPlan::seeded(seed, &shape()),
                FaultPlan::seeded(seed, &shape())
            );
        }
    }

    #[test]
    fn plans_round_trip_through_json() {
        let p = FaultPlan::seeded(11, &shape());
        let text = serde_json::to_string(&p).expect("serialise");
        let back: FaultPlan = serde_json::from_str(&text).expect("parse");
        assert_eq!(p, back);
        // The v1 schema had no fields: an empty document is the default
        // plan, so every field added since must carry a serde default.
        let empty: FaultPlan = serde_json::from_str("{}").expect("parse empty");
        assert_eq!(empty, FaultPlan::default());
        assert!(empty.is_empty());
    }

    #[test]
    fn backoff_is_exponential_and_positive() {
        let base = 1.0e-6;
        assert!(retry_backoff_s(base, 0) > 0.0);
        assert_eq!(
            retry_backoff_s(base, 1) / retry_backoff_s(base, 0),
            2.0,
            "each retry doubles the backoff"
        );
    }
}
