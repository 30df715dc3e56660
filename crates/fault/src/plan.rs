//! Seeded fault plans: the `--fault-plan` spec and its deterministic
//! decision function.

use std::error::Error;
use std::fmt;

/// The kinds of fault a plan can inject. Each kind has its own decision
/// stream: whether `panic` fires at an item is independent of whether
/// `transient` does.
#[derive(Clone, Copy, Debug, Eq, Hash, PartialEq)]
pub enum FaultKind {
    /// A worker attempt panics (contained by the supervised pool).
    Panic,
    /// A worker attempt fails with a retryable error.
    Transient,
    /// An item fails identically on every attempt.
    Permanent,
    /// A worker attempt stalls for [`FaultPlan::slow_ms`] milliseconds.
    Slow,
    /// A checkpoint append is dropped (the item recomputes on resume).
    WriteError,
}

/// All kinds, in spec-key order.
pub const KINDS: [FaultKind; 5] = [
    FaultKind::Panic,
    FaultKind::Transient,
    FaultKind::Permanent,
    FaultKind::Slow,
    FaultKind::WriteError,
];

impl FaultKind {
    /// The spec key (and counter suffix) of this kind.
    pub fn key(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Transient => "transient",
            FaultKind::Permanent => "permanent",
            FaultKind::Slow => "slow",
            FaultKind::WriteError => "write-error",
        }
    }

    fn index(self) -> usize {
        KINDS.iter().position(|&k| k == self).expect("kind listed")
    }
}

/// A malformed `--fault-plan` spec, carrying the offending token.
#[derive(Clone, Debug, Eq, PartialEq)]
pub struct PlanError {
    /// The `key=value` token that failed to parse.
    pub token: String,
    /// What is wrong with it.
    pub message: String,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan token `{}`: {}", self.token, self.message)
    }
}

impl Error for PlanError {}

/// A seeded, deterministic fault schedule. See the crate docs for the
/// spec grammar and the determinism contract.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rates: [f64; KINDS.len()],
    slow_ms: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            rates: [0.0; KINDS.len()],
            slow_ms: 25,
        }
    }
}

impl FaultPlan {
    /// The no-op plan: nothing ever fires.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Parses a comma-separated `key=value` spec. The empty string is
    /// the no-op plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, PlanError> {
        let mut plan = FaultPlan::default();
        for token in spec.split(',') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            let Some((key, value)) = token.split_once('=') else {
                return Err(PlanError {
                    token: token.to_string(),
                    message: "expected key=value".to_string(),
                });
            };
            let bad = |message: String| PlanError {
                token: token.to_string(),
                message,
            };
            match key {
                "seed" => {
                    plan.seed = value
                        .parse()
                        .map_err(|_| bad(format!("bad seed `{value}`")))?;
                }
                "slow-ms" => {
                    plan.slow_ms = value
                        .parse()
                        .map_err(|_| bad(format!("bad millisecond count `{value}`")))?;
                }
                _ => {
                    let Some(kind) = KINDS.iter().find(|k| k.key() == key) else {
                        let known: Vec<&str> = KINDS.iter().map(|k| k.key()).collect();
                        return Err(bad(format!(
                            "unknown key `{key}` (seed, slow-ms, {})",
                            known.join(", ")
                        )));
                    };
                    let rate: f64 = value
                        .parse()
                        .map_err(|_| bad(format!("bad probability `{value}`")))?;
                    if !(0.0..=1.0).contains(&rate) {
                        return Err(bad(format!("probability {rate} outside [0, 1]")));
                    }
                    plan.rates[kind.index()] = rate;
                }
            }
        }
        Ok(plan)
    }

    /// The decision seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured rate of `kind`.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        self.rates[kind.index()]
    }

    /// How long an injected [`FaultKind::Slow`] stall lasts.
    pub fn slow_ms(&self) -> u64 {
        self.slow_ms
    }

    /// Whether this plan can ever fire anything.
    pub fn is_noop(&self) -> bool {
        self.rates.iter().all(|&r| r == 0.0)
    }

    /// Whether `kind` fires at `(site, index, attempt)` — a pure
    /// function of the plan and its arguments. [`FaultKind::Permanent`]
    /// deliberately ignores `attempt`, so a permanently faulted item
    /// fails identically however often it is retried.
    pub fn fires(&self, kind: FaultKind, site: &str, index: u64, attempt: u32) -> bool {
        let rate = self.rate(kind);
        if rate <= 0.0 {
            return false;
        }
        let attempt = match kind {
            FaultKind::Permanent => 0,
            _ => attempt,
        };
        self.unit(kind, site, index, attempt) < rate
    }

    /// A deterministic value in `[0, 1)` for the decision point.
    fn unit(&self, kind: FaultKind, site: &str, index: u64, attempt: u32) -> f64 {
        let h = self.mix(kind, site, index, attempt);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A deterministic u64 for the decision point.
    fn mix(&self, kind: FaultKind, site: &str, index: u64, attempt: u32) -> u64 {
        // FNV-1a over the identifying parts, then a SplitMix64 finalizer
        // so nearby indices decorrelate.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(&self.seed.to_le_bytes());
        eat(kind.key().as_bytes());
        eat(site.as_bytes());
        eat(&index.to_le_bytes());
        eat(&attempt.to_le_bytes());
        let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl fmt::Display for FaultPlan {
    /// The canonical spec string: `seed`, non-zero rates in key order,
    /// `slow-ms` when it differs from the default. `parse` accepts the
    /// output and reconstructs an equal plan.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seed={}", self.seed)?;
        for kind in KINDS {
            let rate = self.rate(kind);
            if rate > 0.0 {
                write!(f, ",{}={rate}", kind.key())?;
            }
        }
        if self.slow_ms != FaultPlan::default().slow_ms {
            write!(f, ",slow-ms={}", self.slow_ms)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_is_noop() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_noop());
        assert_eq!(plan, FaultPlan::none());
        for kind in KINDS {
            for i in 0..64 {
                assert!(!plan.fires(kind, "worker", i, 0));
            }
        }
    }

    #[test]
    fn parse_roundtrips_through_display() {
        let spec = "seed=42,panic=0.1,transient=0.25,slow=0.5,slow-ms=5";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.rate(FaultKind::Panic), 0.1);
        assert_eq!(plan.rate(FaultKind::Transient), 0.25);
        assert_eq!(plan.slow_ms(), 5);
        assert_eq!(plan.rate(FaultKind::Permanent), 0.0);
        let again = FaultPlan::parse(&plan.to_string()).unwrap();
        assert_eq!(plan, again);
    }

    #[test]
    fn parse_rejects_malformed_tokens_with_the_offender() {
        for (spec, needle) in [
            ("panic", "key=value"),
            ("panic=x", "bad probability"),
            ("panic=1.5", "outside [0, 1]"),
            ("seed=banana", "bad seed"),
            ("slow-ms=-3", "bad millisecond"),
            ("tornado=0.5", "unknown key"),
            // Nothing reads through a plan, so these are usage errors,
            // not silent no-ops.
            ("read-error=1", "unknown key"),
            ("seed=1,corrupt=1", "unknown key"),
        ] {
            let e = FaultPlan::parse(spec).expect_err(spec);
            assert!(e.to_string().contains(needle), "{spec}: {e}");
            assert!(!e.token.is_empty());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::parse("seed=1,transient=0.5").unwrap();
        let b = FaultPlan::parse("seed=2,transient=0.5").unwrap();
        let fires_a: Vec<bool> = (0..256)
            .map(|i| a.fires(FaultKind::Transient, "worker", i, 0))
            .collect();
        let again: Vec<bool> = (0..256)
            .map(|i| a.fires(FaultKind::Transient, "worker", i, 0))
            .collect();
        assert_eq!(fires_a, again, "same plan, same decisions");
        let fires_b: Vec<bool> = (0..256)
            .map(|i| b.fires(FaultKind::Transient, "worker", i, 0))
            .collect();
        assert_ne!(fires_a, fires_b, "seed must matter");
        let hits = fires_a.iter().filter(|&&f| f).count();
        assert!((64..192).contains(&hits), "rate 0.5 over 256 draws: {hits}");
    }

    #[test]
    fn kinds_sites_and_attempts_have_independent_streams() {
        let plan = FaultPlan::parse("seed=7,panic=0.5,transient=0.5").unwrap();
        let stream = |kind, site: &str, attempt| -> Vec<bool> {
            (0..128)
                .map(|i| plan.fires(kind, site, i, attempt))
                .collect()
        };
        assert_ne!(
            stream(FaultKind::Panic, "worker", 0),
            stream(FaultKind::Transient, "worker", 0)
        );
        assert_ne!(
            stream(FaultKind::Panic, "worker", 0),
            stream(FaultKind::Panic, "ckpt", 0)
        );
        assert_ne!(
            stream(FaultKind::Panic, "worker", 0),
            stream(FaultKind::Panic, "worker", 1),
            "transient faults vary by attempt — that is what makes retries succeed"
        );
    }

    #[test]
    fn permanent_faults_ignore_the_attempt_number() {
        let plan = FaultPlan::parse("seed=3,permanent=0.5").unwrap();
        for i in 0..128 {
            let first = plan.fires(FaultKind::Permanent, "worker", i, 0);
            for attempt in 1..8 {
                assert_eq!(
                    first,
                    plan.fires(FaultKind::Permanent, "worker", i, attempt),
                    "item {i} attempt {attempt}"
                );
            }
        }
    }

    #[test]
    fn rate_one_always_fires_rate_zero_never() {
        let plan = FaultPlan::parse("panic=1,transient=0").unwrap();
        for i in 0..64 {
            assert!(plan.fires(FaultKind::Panic, "s", i, 0));
            assert!(!plan.fires(FaultKind::Transient, "s", i, 0));
        }
    }
}
