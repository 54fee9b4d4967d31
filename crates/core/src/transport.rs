//! Reliable event transport (§3.6): the switch CPU ships batched events to
//! the backend over TCP. We model the property that matters — every
//! message is delivered exactly once or its failure is *explicitly
//! surfaced* — with a stop-and-wait ARQ upgraded for hostile networks:
//!
//! * **Adaptive RTO** (Jacobson/Karels SRTT + RTTVAR) instead of a fixed
//!   2×RTT timer, so the channel tracks management-network latency.
//! * **Exponential backoff with a ceiling**, so a partitioned link is
//!   probed at a decaying rate instead of hammered, yet recovery after the
//!   partition heals is prompt (the ceiling bounds the probe gap).
//! * **A retry cap**: a fully partitioned link (loss = 1.0, or a
//!   [`FaultPlan`](crate::faults::FaultPlan) partition window outlasting the budget) yields a
//!   `SendFailure` the caller must account for — never an infinite loop
//!   and never silent loss.
//! * **Schedulable faults**: loss is drawn from a seeded
//!   [`LossProcess`] (Bernoulli or bursty Gilbert–Elliott) and hard
//!   partition windows, both from the device's [`FaultPlan`](crate::faults::FaultPlan).

use std::collections::HashMap;

use crate::faults::{streams, LossGen, LossProcess, Window};

/// Delivery record for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Delivery {
    /// Sequence number assigned by the sender.
    pub(crate) seq: u64,
    /// When the backend received it, ns.
    pub(crate) delivered_ns: u64,
    /// Attempts it took (1 = no retransmission).
    pub(crate) attempts: u32,
}

/// A message the channel gave up on after exhausting its retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SendFailure {
    /// Sequence number of the abandoned message.
    pub(crate) seq: u64,
    /// Attempts made (== 1 + retry cap).
    pub(crate) attempts: u32,
    /// When the sender abandoned the message, ns.
    pub(crate) gave_up_ns: u64,
}

/// Default retry budget: enough to ride out transient bursts, small enough
/// that a real partition surfaces as a failure in bounded time.
pub(crate) const DEFAULT_MAX_RETRIES: u32 = 12;

/// Stop-and-wait reliable channel with adaptive RTO and injectable faults.
#[derive(Debug)]
pub(crate) struct ReliableChannel {
    loss: LossGen,
    partitions: Vec<Window>,
    rtt_ns: u64,
    /// Pacing: minimum gap between first transmissions, ns (0 = none).
    pace_gap_ns: u64,
    max_retries: u32,
    /// Smoothed RTT estimate, ns (Jacobson).
    srtt_ns: f64,
    /// RTT variance estimate, ns.
    rttvar_ns: f64,
    next_seq: u64,
    /// The sender's next free transmission slot.
    next_send_ns: u64,
    /// Connection epoch: bumped by [`ReliableChannel::reconnect`] on every
    /// sender restart. Receivers reject traffic from older epochs.
    pub(crate) epoch: u32,
    /// Receiver-pressure hint piggybacked on the most recent ACK (0 = no
    /// pressure): the collector's widening level, applied by the monitor's
    /// control loop to its batch-flush stride. Carried as channel state
    /// because the signal rides the existing ACK path — no extra
    /// messages, and it survives a reconnect (the receiver's pressure does
    /// not reset because the sender restarted).
    pub(crate) rx_backpressure_hint: u32,
    /// Bytes put on the management wire (including retransmissions).
    pub(crate) wire_bytes: u64,
    /// Total transmissions (first attempts + retransmissions).
    pub(crate) transmissions: u64,
    /// Retransmissions only.
    pub(crate) retransmissions: u64,
    /// Messages abandoned after the retry budget.
    pub(crate) failed_sends: u64,
}

impl ReliableChannel {
    /// Fully explicit constructor.
    pub(crate) fn with_process(
        process: LossProcess,
        partitions: Vec<Window>,
        rtt_ns: u64,
        pace_gap_ns: u64,
        seed: u64,
        max_retries: u32,
    ) -> Self {
        let rtt = rtt_ns.max(1);
        ReliableChannel {
            loss: LossGen::new(process, seed, streams::MGMT),
            partitions,
            rtt_ns: rtt,
            pace_gap_ns,
            max_retries,
            srtt_ns: rtt as f64,
            rttvar_ns: rtt as f64 / 2.0,
            next_seq: 0,
            next_send_ns: 0,
            epoch: 0,
            rx_backpressure_hint: 0,
            wire_bytes: 0,
            transmissions: 0,
            retransmissions: 0,
            failed_sends: 0,
        }
    }

    /// Current retransmission timeout: `SRTT + 4·RTTVAR`, floored at the
    /// base RTT (an RTO below one RTT would retransmit before the ACK can
    /// possibly arrive).
    pub(crate) fn rto_ns(&self) -> u64 {
        (self.srtt_ns + 4.0 * self.rttvar_ns).max(self.rtt_ns as f64) as u64
    }

    /// Backoff ceiling: probes during a partition are at most this far
    /// apart, bounding post-partition recovery latency.
    pub(crate) fn rto_max_ns(&self) -> u64 {
        64 * self.rtt_ns
    }

    fn attempt_lost(&mut self, t: u64) -> bool {
        // A partition wins over the stochastic process: nothing crosses.
        crate::faults::in_any_window(&self.partitions, t) || self.loss.lose()
    }

    /// Send one message of `bytes` at `now_ns`. `Ok` carries the delivery;
    /// `Err` means the retry budget ran out (e.g. a partition outlasting
    /// the backoff schedule) and the caller must shed-and-count.
    pub(crate) fn send(&mut self, now_ns: u64, bytes: usize) -> Result<Delivery, SendFailure> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let start = self.next_send_ns.max(now_ns);
        self.next_send_ns = start + self.pace_gap_ns;
        let mut attempts = 0u32;
        let mut t = start;
        let mut rto = self.rto_ns().min(self.rto_max_ns());
        loop {
            attempts += 1;
            self.transmissions += 1;
            self.wire_bytes += bytes as u64;
            if attempts > 1 {
                self.retransmissions += 1;
            }
            if !self.attempt_lost(t) {
                let delivered_ns = t + self.rtt_ns / 2;
                // Karn's algorithm: only first-attempt deliveries produce
                // RTT samples — a retransmitted message's timing is
                // ambiguous and feeding it back inflates SRTT without
                // bound. Jacobson/Karels update:
                // RTTVAR ← 3/4·RTTVAR + 1/4·|SRTT−sample|,
                // SRTT ← 7/8·SRTT + 1/8·sample.
                if attempts == 1 {
                    let sample = self.rtt_ns as f64;
                    self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * (self.srtt_ns - sample).abs();
                    self.srtt_ns = 0.875 * self.srtt_ns + 0.125 * sample;
                }
                return Ok(Delivery { seq, delivered_ns, attempts });
            }
            if attempts > self.max_retries {
                self.failed_sends += 1;
                return Err(SendFailure { seq, attempts, gave_up_ns: t });
            }
            // Partition-aware wait: if this attempt landed inside a known
            // partition whose end is *sooner* than the backed-off RTO,
            // retry right as it lifts (TCP would discover this via the
            // first successful probe; we shortcut the last probe cycle).
            let next_try = t + rto;
            t = match crate::faults::stall_release(&self.partitions, t) {
                Some(release) if release < next_try => release,
                _ => next_try,
            };
            // Exponential backoff, capped.
            rto = (rto * 2).min(self.rto_max_ns());
        }
    }

    /// Reconnect after a sender restart: bump the epoch, reset the RTT
    /// estimator (the old path estimate is stale) and the pacing clock, and
    /// return the new epoch, which the receiver adopts to reject the dead
    /// epoch's retransmits. Cumulative wire counters and the sequence
    /// counter survive — they are measurement, not connection state.
    pub(crate) fn reconnect(&mut self, now_ns: u64) -> u32 {
        self.epoch += 1;
        self.srtt_ns = self.rtt_ns as f64;
        self.rttvar_ns = self.rtt_ns as f64 / 2.0;
        self.next_send_ns = now_ns;
        self.epoch
    }
}

/// Verdict of the receiver-side epoch/sequence gate for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RxVerdict {
    /// First sight of `(epoch, seq)`: deliver to the ledger.
    Accepted,
    /// The message's epoch predates the receiver's current epoch for this
    /// sender — a retransmit from before a restart. It must be rejected
    /// here, not silently delivered into the new epoch's accounting.
    StaleEpoch,
    /// Already seen (same epoch, seq at or below the watermark).
    Duplicate,
}

/// Receiver-side exactly-once gate: per-sender epoch adoption plus a
/// per-epoch sequence watermark. Senders attach `(epoch, seq)` to every
/// message; at-least-once retransmission + this gate = exactly-once
/// accounting.
#[derive(Debug, Clone, Default)]
pub(crate) struct EpochReceiver {
    /// Current (highest ever seen) sender epoch.
    pub(crate) epoch: u32,
    /// Per-epoch next-expected sequence number: `seq < next[epoch]` has
    /// already been accepted.
    next: HashMap<u32, u64>,
    /// Retransmits rejected for carrying a pre-restart epoch.
    pub(crate) stale_epoch_rejected: u64,
    /// Same-epoch duplicates suppressed.
    pub(crate) duplicates_rejected: u64,
}

impl EpochReceiver {
    /// Judge one `(epoch, seq)` pair, updating the gate's state.
    pub(crate) fn accept(&mut self, epoch: u32, seq: u64) -> RxVerdict {
        if epoch < self.epoch {
            self.stale_epoch_rejected += 1;
            return RxVerdict::StaleEpoch;
        }
        self.epoch = epoch;
        let next = self.next.entry(epoch).or_insert(0);
        if seq < *next {
            self.duplicates_rejected += 1;
            return RxVerdict::Duplicate;
        }
        *next = seq + 1;
        RxVerdict::Accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    impl ReliableChannel {
        /// Create a channel with independent Bernoulli loss per attempt.
        /// `loss_prob` is clamped to `[0, 1]`: 1.0 models a fully partitioned
        /// link, where every send fails after the capped retries rather than
        /// panicking or looping forever.
        fn new(loss_prob: f64, rtt_ns: u64, pace_gap_ns: u64, seed: u64) -> Self {
            let p = loss_prob.clamp(0.0, 1.0);
            Self::with_process(
                LossProcess::Bernoulli { p },
                Vec::new(),
                rtt_ns,
                pace_gap_ns,
                seed,
                DEFAULT_MAX_RETRIES,
            )
        }

        /// Create from a device [`FaultPlan`]: management-network loss process
        /// plus hard partition windows.
        fn from_plan(plan: &FaultPlan, rtt_ns: u64, pace_gap_ns: u64, max_retries: u32) -> Self {
            Self::with_process(
                plan.mgmt_loss,
                plan.mgmt_partitions.clone(),
                rtt_ns,
                pace_gap_ns,
                plan.seed,
                max_retries,
            )
        }
    }

    #[test]
    fn lossless_channel_delivers_first_try() {
        let mut ch = ReliableChannel::new(0.0, 1_000, 0, 1);
        let d = ch.send(0, 100).expect("delivered");
        assert_eq!(d.attempts, 1);
        assert_eq!(d.delivered_ns, 500);
        assert_eq!(ch.retransmissions, 0);
    }

    #[test]
    fn sequences_are_monotonic() {
        let mut ch = ReliableChannel::new(0.0, 1_000, 0, 1);
        let a = ch.send(0, 10).expect("delivered");
        let b = ch.send(0, 10).expect("delivered");
        assert_eq!(a.seq, 0);
        assert_eq!(b.seq, 1);
    }

    #[test]
    fn lossy_channel_retransmits_until_delivered() {
        let mut ch = ReliableChannel::new(0.5, 1_000, 0, 42);
        let mut total_attempts = 0u32;
        for _ in 0..200 {
            let d = ch.send(0, 100).expect("50% loss fits in the budget");
            total_attempts += d.attempts;
            assert!(d.attempts >= 1);
        }
        // Expected ~2 attempts per message at 50% loss.
        assert!(total_attempts > 300, "attempts {total_attempts}");
        assert_eq!(ch.retransmissions, u64::from(total_attempts) - 200);
        assert_eq!(ch.wire_bytes, u64::from(total_attempts) * 100);
    }

    #[test]
    fn retransmission_delays_delivery() {
        // Deterministic: find a seed where the first attempt is lost.
        let mut ch = ReliableChannel::new(0.9, 1_000, 0, 7);
        let d = ch.send(0, 10);
        if let Ok(d) = d {
            if d.attempts > 1 {
                assert!(d.delivered_ns >= 1_500, "delivery {d:?}");
            }
        }
    }

    #[test]
    fn pacing_spaces_out_sends() {
        let mut ch = ReliableChannel::new(0.0, 100, 1_000, 1);
        let a = ch.send(0, 10).expect("delivered");
        let b = ch.send(0, 10).expect("delivered");
        let c = ch.send(0, 10).expect("delivered");
        assert_eq!(a.delivered_ns, 50);
        assert_eq!(b.delivered_ns, 1_050);
        assert_eq!(c.delivered_ns, 2_050);
    }

    #[test]
    fn loss_prob_one_fails_after_capped_retries() {
        // A fully partitioned link: no panic, no infinite loop — a
        // counted failure after the retry budget.
        let mut ch = ReliableChannel::new(1.0, 1_000, 0, 1);
        let err = ch.send(0, 100).expect_err("must fail");
        assert_eq!(err.attempts, DEFAULT_MAX_RETRIES + 1);
        assert!(err.gave_up_ns > 0);
        assert_eq!(ch.failed_sends, 1);
        // The channel stays usable for subsequent messages.
        let err2 = ch.send(err.gave_up_ns, 100).expect_err("still partitioned");
        assert_eq!(err2.seq, 1);
    }

    #[test]
    fn out_of_range_loss_is_clamped() {
        let mut hi = ReliableChannel::new(7.5, 1_000, 0, 1);
        assert!(hi.send(0, 10).is_err(), "clamped to 1.0: total loss");
        let mut lo = ReliableChannel::new(-3.0, 1_000, 0, 1);
        assert_eq!(lo.send(0, 10).expect("clamped to 0.0").attempts, 1);
    }

    #[test]
    fn backoff_grows_and_is_capped() {
        let mut ch = ReliableChannel::new(1.0, 1_000, 0, 3);
        let err = ch.send(0, 10).expect_err("total loss");
        // 12 retries with doubling from RTO≈3·RTT, capped at 64·RTT:
        // the give-up time is bounded by the cap times the retry count.
        let cap = ch.rto_max_ns();
        assert!(err.gave_up_ns <= cap * u64::from(err.attempts));
        // And it must actually have backed off beyond the fixed 2·RTT
        // schedule of the old stop-and-wait (12 retries × 2µs = 24µs).
        assert!(err.gave_up_ns > 24_000, "gave up at {}", err.gave_up_ns);
    }

    #[test]
    fn partition_window_fails_sends_inside_it() {
        let plan = FaultPlan {
            mgmt_partitions: vec![Window { start_ns: 0, end_ns: u64::MAX }],
            ..FaultPlan::default()
        };
        let mut ch = ReliableChannel::from_plan(&plan, 1_000, 0, 4);
        assert!(ch.send(0, 10).is_err());
    }

    #[test]
    fn partition_recovery_is_prompt() {
        // Partition for 300 µs (inside the retry budget's probing span),
        // then heal. The partition-aware timeout retries at the release
        // edge, so delivery lands right at the heal.
        let plan = FaultPlan {
            mgmt_partitions: vec![Window { start_ns: 0, end_ns: 300_000 }],
            ..FaultPlan::default()
        };
        let mut ch = ReliableChannel::from_plan(&plan, 1_000, 0, DEFAULT_MAX_RETRIES);
        let d = ch.send(0, 10).expect("heals in time");
        assert!(d.attempts > 1);
        assert!((300_000..310_000).contains(&d.delivered_ns), "delivered at {}", d.delivered_ns);
    }

    #[test]
    fn partition_outlasting_budget_fails_then_recovers() {
        // A 10 ms partition exceeds the probing span of the default
        // budget: sends inside it fail (counted), sends after it succeed.
        let plan = FaultPlan {
            mgmt_partitions: vec![Window { start_ns: 0, end_ns: 10_000_000 }],
            ..FaultPlan::default()
        };
        let mut ch = ReliableChannel::from_plan(&plan, 1_000, 0, DEFAULT_MAX_RETRIES);
        assert!(ch.send(0, 10).is_err());
        assert_eq!(ch.failed_sends, 1);
        let d = ch.send(10_000_000, 10).expect("after heal");
        assert_eq!(d.attempts, 1);
    }

    #[test]
    fn adaptive_rto_tracks_retransmission_history() {
        let mut ch = ReliableChannel::new(0.0, 1_000, 0, 1);
        let before = ch.rto_ns();
        for _ in 0..50 {
            ch.send(0, 10).expect("delivered");
        }
        // Clean deliveries shrink variance: RTO converges toward RTT.
        assert!(ch.rto_ns() <= before);
        assert!(ch.rto_ns() >= 1_000);
    }

    #[test]
    fn reconnect_bumps_epoch_and_keeps_counters() {
        let mut ch = ReliableChannel::new(0.0, 1_000, 0, 1);
        assert_eq!(ch.epoch, 0);
        for _ in 0..3 {
            ch.send(0, 10).expect("delivered");
        }
        let tx_before = ch.transmissions;
        assert_eq!(ch.reconnect(5_000), 1);
        assert_eq!(ch.epoch, 1);
        // Counters and the sequence space survive the restart.
        assert_eq!(ch.transmissions, tx_before);
        assert_eq!(ch.send(5_000, 10).expect("delivered").seq, 3);
        // A second restart keeps bumping.
        assert_eq!(ch.reconnect(9_000), 2);
    }

    #[test]
    fn receiver_rejects_stale_epoch_retransmits() {
        let mut rx = EpochReceiver::default();
        for seq in 0..5 {
            assert_eq!(rx.accept(0, seq), RxVerdict::Accepted);
        }
        // Sender restarts; receiver adopts epoch 1.
        assert_eq!(rx.accept(1, 5), RxVerdict::Accepted);
        // A late retransmit from before the restart must be rejected by
        // epoch — not delivered into the new epoch's ledger.
        assert_eq!(rx.accept(0, 3), RxVerdict::StaleEpoch);
        assert_eq!(rx.accept(0, 99), RxVerdict::StaleEpoch);
        assert_eq!(rx.stale_epoch_rejected, 2);
    }

    #[test]
    fn receiver_dedups_within_an_epoch() {
        let mut rx = EpochReceiver::default();
        assert_eq!(rx.accept(2, 0), RxVerdict::Accepted);
        assert_eq!(rx.accept(2, 1), RxVerdict::Accepted);
        assert_eq!(rx.accept(2, 1), RxVerdict::Duplicate);
        assert_eq!(rx.accept(2, 0), RxVerdict::Duplicate);
        assert_eq!(rx.duplicates_rejected, 2);
        assert_eq!(rx.next[&2], 2);
        // Re-offering the full history (reconciliation) is idempotent.
        for seq in 0..2 {
            assert_eq!(rx.accept(2, seq), RxVerdict::Duplicate);
        }
        assert_eq!(rx.duplicates_rejected, 4);
    }

    #[test]
    fn gilbert_elliott_bursts_are_survivable() {
        let plan = FaultPlan {
            seed: 5,
            mgmt_loss: LossProcess::GilbertElliott {
                p_enter_bad: 0.05,
                p_exit_bad: 0.3,
                loss_good: 0.01,
                loss_bad: 0.95,
            },
            ..FaultPlan::default()
        };
        let mut ch = ReliableChannel::from_plan(&plan, 1_000, 0, DEFAULT_MAX_RETRIES);
        let mut ok = 0u32;
        for _ in 0..500 {
            if ch.send(0, 100).is_ok() {
                ok += 1;
            }
        }
        // Bursts cost retransmissions, not (many) messages.
        assert!(ok >= 495, "delivered {ok}/500");
        assert!(ch.retransmissions > 0);
    }
}
