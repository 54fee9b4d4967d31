//! The hook-timing wrapper: a transparent [`SwitchMonitor`] installed
//! around each deployed monitor for traced runs.
//!
//! Per-packet hooks are far too many to keep as spans, so every hook
//! keeps a call count and total nanoseconds, plus one sampled span every
//! [`SAMPLE_EVERY`] calls. The counters live in a shared [`HookSlot`] the
//! benchmark reads directly: `as_any` delegates to the inner monitor (so
//! `monitor_of`, `fleet_ledger` and every other downcast still find the
//! `NetSeerMonitor`), which means a downcast could never reach the
//! wrapper itself.

use fet_netsim::counters::PortCounters;
use fet_netsim::monitor::{Actions, EgressCtx, HookVerdict, IngressCtx, RoutedCtx, SwitchMonitor};
use fet_netsim::{NodeId, Simulator};
use fet_packet::{DropCode, FlowKey};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The timed hooks, in metric order.
pub const HOOKS: [&str; 6] =
    ["on_ingress", "on_routed", "on_egress", "on_pipeline_drop", "on_mmu_drop", "on_timer"];

const INGRESS: usize = 0;
const ROUTED: usize = 1;
const EGRESS: usize = 2;
const PIPELINE_DROP: usize = 3;
const MMU_DROP: usize = 4;
const TIMER: usize = 5;

/// One call in this many per hook and device is kept as a span.
pub const SAMPLE_EVERY: u64 = 1024;

/// A sampled hook call.
#[derive(Debug, Clone, Copy)]
pub struct HookSample {
    /// Index into [`HOOKS`].
    pub hook: usize,
    /// Device the monitor runs on.
    pub device: NodeId,
    /// Start, ns since the trace base.
    pub start_ns: u64,
    /// End, ns since the trace base.
    pub end_ns: u64,
}

/// Counters shared between one wrapper and the benchmark. Statistics only:
/// `Relaxed` suffices because the benchmark reads them after the
/// simulator call returns, and the shard threads are joined by then.
#[derive(Debug, Default)]
pub struct HookSlot {
    calls: [AtomicU64; 6],
    nanos: [AtomicU64; 6],
    samples: Mutex<Vec<HookSample>>,
}

/// Calls and total nanoseconds per hook, summed over devices.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HookTotals {
    /// Calls per hook.
    pub calls: [u64; 6],
    /// Nanoseconds per hook.
    pub nanos: [u64; 6],
}

impl HookTotals {
    /// Sum over every hook.
    pub fn total_nanos(&self) -> u64 {
        self.nanos.iter().sum()
    }
}

/// The wrapper.
pub struct TimedMonitor {
    inner: Box<dyn SwitchMonitor>,
    slot: Arc<HookSlot>,
    base: Instant,
    device: NodeId,
}

impl TimedMonitor {
    fn timed<R>(&mut self, hook: usize, f: impl FnOnce(&mut dyn SwitchMonitor) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner.as_mut());
        let t1 = Instant::now();
        let dur = (t1 - t0).as_nanos() as u64;
        let n = self.slot.calls[hook].fetch_add(1, Ordering::Relaxed);
        self.slot.nanos[hook].fetch_add(dur, Ordering::Relaxed);
        if n.is_multiple_of(SAMPLE_EVERY) {
            let start_ns = (t0 - self.base).as_nanos() as u64;
            self.slot.samples.lock().expect("hook sample lock poisoned").push(HookSample {
                hook,
                device: self.device,
                start_ns,
                end_ns: start_ns + dur,
            });
        }
        r
    }
}

impl SwitchMonitor for TimedMonitor {
    fn on_ingress(
        &mut self,
        ctx: &IngressCtx,
        frame: &mut Vec<u8>,
        out: &mut Actions,
    ) -> HookVerdict {
        self.timed(INGRESS, |m| m.on_ingress(ctx, frame, out))
    }

    fn on_routed(&mut self, ctx: &RoutedCtx, frame: &[u8], out: &mut Actions) {
        self.timed(ROUTED, |m| m.on_routed(ctx, frame, out))
    }

    fn on_pipeline_drop(
        &mut self,
        ctx: &IngressCtx,
        frame: &[u8],
        flow: Option<FlowKey>,
        code: DropCode,
        egress_port: Option<u8>,
        acl_rule: u32,
        out: &mut Actions,
    ) {
        self.timed(PIPELINE_DROP, |m| {
            m.on_pipeline_drop(ctx, frame, flow, code, egress_port, acl_rule, out)
        })
    }

    fn on_mmu_drop(&mut self, ctx: &RoutedCtx, frame: &[u8], out: &mut Actions) {
        self.timed(MMU_DROP, |m| m.on_mmu_drop(ctx, frame, out))
    }

    fn on_egress(&mut self, ctx: &EgressCtx<'_>, frame: &mut Vec<u8>, out: &mut Actions) {
        self.timed(EGRESS, |m| m.on_egress(ctx, frame, out))
    }

    fn on_pause_state(&mut self, now_ns: u64, port: u8, prio: u8, paused: bool) {
        self.inner.on_pause_state(now_ns, port, prio, paused)
    }

    fn on_timer(&mut self, now_ns: u64, counters: &[PortCounters], out: &mut Actions) {
        self.timed(TIMER, |m| m.on_timer(now_ns, counters, out))
    }

    fn timer_interval_ns(&self) -> Option<u64> {
        self.inner.timer_interval_ns()
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// The slots of every wrapped monitor in one simulator.
#[derive(Debug, Default)]
pub struct HookSlots(Vec<Arc<HookSlot>>);

impl HookSlots {
    /// Wrap every attached monitor (call after `deploy`, before the first
    /// run). Spans are stamped relative to `base`.
    pub fn install(sim: &mut Simulator, base: Instant) -> Self {
        let mut slots = Vec::new();
        let ids: Vec<NodeId> = sim.switch_ids().into_iter().chain(sim.host_ids()).collect();
        for id in ids {
            if let Some(inner) = sim.take_node_monitor(id) {
                let slot = Arc::new(HookSlot::default());
                let wrapped = TimedMonitor { inner, slot: Arc::clone(&slot), base, device: id };
                sim.install_node_monitor(id, Box::new(wrapped));
                slots.push(slot);
            }
        }
        HookSlots(slots)
    }

    /// Counters summed over devices.
    pub fn totals(&self) -> HookTotals {
        let mut t = HookTotals::default();
        for slot in &self.0 {
            for h in 0..HOOKS.len() {
                t.calls[h] += slot.calls[h].load(Ordering::Relaxed);
                t.nanos[h] += slot.nanos[h].load(Ordering::Relaxed);
            }
        }
        t
    }

    /// Every sampled span, in device then time order.
    pub fn samples(&self) -> Vec<HookSample> {
        let mut out = Vec::new();
        for slot in &self.0 {
            out.extend(slot.samples.lock().expect("hook sample lock poisoned").iter().copied());
        }
        out
    }
}
