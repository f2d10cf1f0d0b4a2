//! The Resource Manager (RM): the centralized control unit of §V.
//!
//! "The RM has a knowledge about the global state of the NoC (i.e., which
//! sender is active) and which resources are occupied." Activation and
//! termination messages are processed in arrival order; each initiates a
//! transition to a different system mode. Before changing rates, the RM
//! sends every active client a `stopMsg`, then a `confMsg` carrying the
//! new mode and rate, after which clients unblock.
//!
//! Two APIs coexist:
//!
//! * the **instantaneous** API ([`request_admission`], [`terminate`]) used
//!   when the control plane is ideal — messages are only logged, never
//!   lost, and rounds complete atomically;
//! * the **message-driven** API ([`receive_batch`], [`poll`]) used under
//!   fault injection: every message travels in a sequence-numbered `Envelope`,
//!   `confMsg`s are retransmitted with bounded backoff until acknowledged,
//!   a heartbeat-driven [watchdog](WatchdogConfig) reclaims the bandwidth
//!   of dead or hung clients via a forced mode transition, flapping
//!   clients are quarantined, and an unreachable client mid-transition
//!   degrades the RM into **safe mode** (previous rates retained, new
//!   admissions refused) instead of deadlocking the platform.
//!
//! [`request_admission`]: ResourceManager::request_admission
//! [`terminate`]: ResourceManager::terminate
//! [`receive_batch`]: ResourceManager::receive_batch
//! [`poll`]: ResourceManager::poll
//!
//! At fleet scale a single RM is a wall; the [`cluster`] and [`root`]
//! submodules layer N of these managers (one per disjoint client shard)
//! under a [`root::RootArbiter`] that owns the global budget, with
//! control traffic coalesced into per-step bundles.

pub mod cluster;
pub mod root;

use std::collections::{BTreeSet, VecDeque};

use autoplat_sim::{SimDuration, SimTime};

use crate::app::{AppId, Application};
use crate::client::RetryPolicy;
use crate::error::{check_latency, AdmissionError};
use crate::modes::{RatePolicy, SystemMode};
use crate::protocol::{
    ControlMessage, Endpoint, Envelope, MessageLog, ReceiveState, SeqWindow, UNSEQUENCED_HEARTBEAT,
};

/// Watchdog and degradation parameters for the message-driven RM.
///
/// A client whose heartbeat has not been heard for `timeout_cycles` is
/// presumed dead: its application is forcibly terminated (a mode
/// transition that redistributes its bandwidth to the survivors). A
/// client reclaimed `quarantine_threshold` times is flapping and is
/// refused re-admission for `quarantine_cooldown_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Heartbeat silence tolerated before reclamation.
    pub timeout_cycles: u64,
    /// Reclamations after which an application is quarantined.
    pub quarantine_threshold: u32,
    /// How long a quarantined application stays refused.
    pub quarantine_cooldown_cycles: u64,
}

impl WatchdogConfig {
    /// Validating constructor.
    pub fn try_new(
        timeout_cycles: u64,
        quarantine_threshold: u32,
        quarantine_cooldown_cycles: u64,
    ) -> Result<Self, AdmissionError> {
        if timeout_cycles == 0 {
            return Err(AdmissionError::InvalidInterval {
                what: "watchdog timeout",
            });
        }
        if quarantine_threshold == 0 {
            return Err(AdmissionError::InvalidInterval {
                what: "quarantine threshold",
            });
        }
        Ok(WatchdogConfig {
            timeout_cycles,
            quarantine_threshold,
            quarantine_cooldown_cycles,
        })
    }
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            timeout_cycles: 2_000,
            quarantine_threshold: 3,
            quarantine_cooldown_cycles: 10_000,
        }
    }
}

/// An unacknowledged `confMsg` the RM keeps retransmitting.
#[derive(Debug, Clone, Copy)]
struct PendingConf {
    envelope: Envelope,
    attempts: u32,
    next_retry_cycle: u64,
}

/// Everything the RM knows about one registered client.
#[derive(Debug, Clone)]
struct ClientSlot {
    /// The registered metadata, so an `actMsg` (which carries only the
    /// id) can be resolved to criticality and demand.
    app: Application,
    /// Whether the application is in the active set.
    active: bool,
    /// Last cycle the client was heard from; `None` while the watchdog
    /// does not monitor it.
    heard: Option<u64>,
    /// The unacknowledged `confMsg` towards the client (a newer round
    /// supersedes an older one). Boxed: few clients have one at a time,
    /// and the slot stays small.
    pending_conf: Option<Box<PendingConf>>,
    /// The rate the client was told in the last conf round; feeds
    /// duplicate-activation re-confirmation without recomputing the
    /// policy, and the delta-conf optimisation.
    last_rate: Option<f64>,
    /// Reclamations so far, feeding the quarantine decision.
    reclaims: u32,
    /// The first cycle a quarantined client may return.
    quarantined_until: Option<u64>,
    /// Whether the client's `confMsg` exhausted its retry budget.
    degraded: bool,
    /// The sequence numbers accepted from the client.
    rx: SeqWindow,
}

impl ClientSlot {
    fn new(app: Application) -> Self {
        ClientSlot {
            app,
            active: false,
            heard: None,
            pending_conf: None,
            last_rate: None,
            reclaims: 0,
            quarantined_until: None,
            degraded: false,
            rx: SeqWindow::default(),
        }
    }
}

/// The index of `app`'s slot in the id-sorted `slots`.
///
/// A shard's ids usually form an arithmetic progression (client `i` of
/// `n` shards lives in shard `i % n`), so the interpolated guess lands
/// on the slot in one probe; a binary search covers every other layout.
fn find_slot(slots: &[ClientSlot], app: AppId) -> Option<usize> {
    let (first, last) = (slots.first()?.app.id.0, slots.last()?.app.id.0);
    if app.0 < first || app.0 > last {
        return None;
    }
    if last > first {
        let span = u64::from(last - first);
        let guess = (u64::from(app.0 - first) * (slots.len() as u64 - 1) / span) as usize;
        if slots[guess].app.id == app {
            return Some(guess);
        }
    }
    slots.binary_search_by_key(&app, |s| s.app.id).ok()
}

/// Whether the watchdog entry `(heard, app)` is the client's latest.
fn is_live(slots: &[ClientSlot], heard: u64, app: AppId) -> bool {
    find_slot(slots, app).is_some_and(|s| slots[s].heard == Some(heard))
}

/// Result of an admission request.
#[derive(Debug, Clone)]
pub struct AdmissionOutcome {
    /// Whether the application was admitted.
    pub admitted: bool,
    /// The system mode after processing.
    pub mode: SystemMode,
    /// The rates (items/cycle) assigned to every active application after
    /// the transition, including the new one when admitted.
    pub rates: Vec<(AppId, autoplat_netcalc::TokenBucket)>,
}

/// The Resource Manager.
///
/// # Examples
///
/// ```
/// use autoplat_admission::{ResourceManager, Application, AppId};
/// use autoplat_admission::modes::SymmetricPolicy;
/// use autoplat_sim::SimTime;
///
/// let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 50.0);
/// let out = rm.request_admission(Application::best_effort(AppId(0), 0), SimTime::ZERO);
/// assert!(out.admitted);
/// assert_eq!(rm.mode().0, 1);
/// ```
#[derive(Debug)]
pub struct ResourceManager<P> {
    policy: P,
    /// The active applications in admission order (the mode's member
    /// list, and the policy's input).
    active: Vec<Application>,
    /// The slot of each entry of `active`, in the same order.
    active_slots: Vec<u32>,
    log: MessageLog,
    mode_changes: u64,
    rejections: u64,
    /// One-way latency of a control message, in nanoseconds.
    message_latency_ns: f64,
    /// Accumulated reconfiguration overhead.
    overhead: SimDuration,
    // --- fault-tolerance state (message-driven API) ---
    watchdog: WatchdogConfig,
    retry: RetryPolicy,
    /// One slot per registered application, in ascending id order, so
    /// every per-client sweep runs in deterministic id order.
    slots: Vec<ClientSlot>,
    /// The watchdog queue: `(heard_cycle, app)` in the order clients were
    /// heard, hence by non-decreasing cycle. An entry whose `heard_cycle`
    /// is no longer its slot's is stale and skipped; the front is always
    /// live, so it holds the earliest last-heard cycle of any monitored
    /// client.
    watch: VecDeque<(u64, AppId)>,
    /// Slots whose `heard` is set.
    monitored: usize,
    /// The latest cycle passed to `receive_batch` or `poll`; the watchdog
    /// queue's order relies on it never decreasing.
    clock: u64,
    /// Slots whose `degraded` is set; non-zero means safe mode.
    degraded: usize,
    next_seq: u64,
    /// Receive window for senders with no slot (unregistered clients).
    strangers: ReceiveState,
    /// Duplicates suppressed by the slots' receive windows.
    duplicates: u64,
    /// `(next_retry_cycle, app)` index over the slots' pending confs, so
    /// due retransmissions are found without scanning every slot.
    conf_retry_index: BTreeSet<(u64, AppId)>,
    /// When set, a reconfiguration round only sends `stopMsg`/`confMsg`
    /// to clients whose rate actually changed (newly admitted clients
    /// always get one). Off by default: the paper's protocol re-confirms
    /// every client on every transition.
    delta_confs: bool,
    /// When cleared, the RM stops appending to its [`MessageLog`] (the
    /// per-message trace is O(total messages) memory — prohibitive at
    /// fleet scale).
    logging: bool,
    /// When set, activations skip the policy feasibility check (and its
    /// O(active) candidate clone): an upstream arbiter — the root of the
    /// hierarchy — has already guaranteed the set is feasible. Quarantine,
    /// safe-mode and registration gates still apply.
    preapproved: bool,
    /// Clients that left the active set (termination or reclamation)
    /// since the last [`take_departures`](Self::take_departures) call.
    departures: Vec<AppId>,
    reclamations: u64,
    safe_mode_entries: u64,
    conf_retransmissions: u64,
}

impl<P: RatePolicy> ResourceManager<P> {
    /// Creates an RM with the given policy and per-message latency (ns).
    ///
    /// # Panics
    ///
    /// Panics if `message_latency_ns` is negative or not finite; use
    /// [`ResourceManager::try_new`] for a typed error.
    pub fn new(policy: P, message_latency_ns: f64) -> Self {
        ResourceManager::try_new(policy, message_latency_ns).expect("invalid message latency")
    }

    /// Creates an RM, validating the latency.
    pub fn try_new(policy: P, message_latency_ns: f64) -> Result<Self, AdmissionError> {
        let message_latency_ns = check_latency(message_latency_ns)?;
        Ok(ResourceManager {
            policy,
            active: Vec::new(),
            active_slots: Vec::new(),
            log: MessageLog::new(),
            mode_changes: 0,
            rejections: 0,
            message_latency_ns,
            overhead: SimDuration::ZERO,
            watchdog: WatchdogConfig::default(),
            retry: RetryPolicy::default(),
            slots: Vec::new(),
            watch: VecDeque::new(),
            monitored: 0,
            clock: 0,
            degraded: 0,
            next_seq: 0,
            strangers: ReceiveState::new(),
            duplicates: 0,
            conf_retry_index: BTreeSet::new(),
            delta_confs: false,
            logging: true,
            preapproved: false,
            departures: Vec::new(),
            reclamations: 0,
            safe_mode_entries: 0,
            conf_retransmissions: 0,
        })
    }

    /// Replaces the watchdog parameters.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.watchdog = watchdog;
        self
    }

    /// Replaces the `confMsg` retransmission policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Restricts reconfiguration rounds to clients whose rate changed.
    pub fn with_delta_confs(mut self, on: bool) -> Self {
        self.delta_confs = on;
        self
    }

    /// Marks admissions as pre-approved by an upstream arbiter: the
    /// per-activation policy feasibility check is skipped. Only sound
    /// when every critical admission was granted against the same
    /// capacity this RM's policy would enforce.
    pub fn with_preapproved(mut self, on: bool) -> Self {
        self.preapproved = on;
        self
    }

    /// Enables or disables the per-message [`MessageLog`].
    pub fn set_logging(&mut self, on: bool) {
        self.logging = on;
    }

    /// The current system mode.
    pub fn mode(&self) -> SystemMode {
        SystemMode(self.active.len())
    }

    /// The rate policy in force.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// The currently active applications.
    pub fn active(&self) -> &[Application] {
        &self.active
    }

    fn slot(&self, app: AppId) -> Option<usize> {
        find_slot(&self.slots, app)
    }

    /// Adds the application of slot `s` to the active set.
    fn activate(&mut self, s: usize, app: Application) {
        self.slots[s].active = true;
        self.active.push(app);
        self.active_slots.push(s as u32);
    }

    /// Removes the application of slot `s` from the active set; `true`
    /// when it was present.
    fn deactivate(&mut self, s: usize) -> bool {
        if !std::mem::take(&mut self.slots[s].active) {
            return false;
        }
        let app = self.slots[s].app.id;
        self.active.retain(|a| a.id != app);
        self.active_slots.retain(|&a| a as usize != s);
        true
    }

    /// The protocol message log.
    pub fn log(&self) -> &MessageLog {
        &self.log
    }

    /// Number of mode transitions performed.
    pub fn mode_changes(&self) -> u64 {
        self.mode_changes
    }

    /// Number of refused admissions.
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    /// Total synchronization overhead accumulated by reconfiguration
    /// rounds — the quantity the paper says must be traded off against
    /// the frequency of mode changes at design time.
    pub fn total_overhead(&self) -> SimDuration {
        self.overhead
    }

    /// Processes an `actMsg`: attempts to admit `app` at `now`.
    ///
    /// On success the system transitions to the next mode and every
    /// active client is re-configured (stop + config round). On failure
    /// (the policy cannot serve the resulting set) the system state is
    /// unchanged. An admitted application that was not registered is
    /// registered.
    pub fn request_admission(&mut self, app: Application, now: SimTime) -> AdmissionOutcome {
        self.log_msg(now, ControlMessage::Activation { app: app.id });
        let mut candidate = self.active.clone();
        candidate.push(app);
        match self.compute_rates(&candidate) {
            Some(rates) => {
                let s = self.slot(app.id).unwrap_or_else(|| self.insert_slot(app));
                self.activate(s, app);
                self.mode_changes += 1;
                let mode = self.mode();
                self.reconfigure(now, &rates, mode);
                AdmissionOutcome {
                    admitted: true,
                    mode,
                    rates,
                }
            }
            None => {
                self.rejections += 1;
                let mode = self.mode();
                let rates = self.compute_rates(&self.active).unwrap_or_default();
                AdmissionOutcome {
                    admitted: false,
                    mode,
                    rates,
                }
            }
        }
    }

    /// Processes a `terMsg`: removes `app` and reconfigures the rest.
    ///
    /// Unknown applications are ignored (idempotent termination).
    pub fn terminate(&mut self, app: AppId, now: SimTime) {
        self.log_msg(now, ControlMessage::Termination { app });
        if self.slot(app).is_some_and(|s| self.deactivate(s)) {
            self.mode_changes += 1;
            self.departures.push(app);
            let mode = self.mode();
            if let Some(rates) = self.compute_rates(&self.active) {
                self.reconfigure(now, &rates, mode);
            }
        }
    }

    fn compute_rates(
        &self,
        active: &[Application],
    ) -> Option<Vec<(AppId, autoplat_netcalc::TokenBucket)>> {
        self.policy.contracts(active)
    }

    fn log_msg(&mut self, at: SimTime, message: ControlMessage) {
        if self.logging {
            self.log.record(at, message);
        }
    }

    /// Records proof of life from the client of slot `s`.
    fn touch(&mut self, s: usize, now_cycle: u64) {
        let slot = &mut self.slots[s];
        match slot.heard {
            // Its entry for this cycle is already queued.
            Some(heard) if heard == now_cycle => return,
            Some(_) => {}
            None => self.monitored += 1,
        }
        slot.heard = Some(now_cycle);
        self.watch.push_back((now_cycle, slot.app.id));
        // Drop the stale entries once the queue holds four entries per
        // monitored client, so it stays O(monitored) however rarely the
        // caller polls.
        if self.watch.len() > 4 * self.monitored + 64 {
            let slots = &self.slots;
            self.watch
                .retain(|&(heard, app)| is_live(slots, heard, app));
        }
    }

    /// Stops monitoring the client of slot `s`.
    fn untouch(&mut self, s: usize) {
        if self.slots[s].heard.take().is_some() {
            self.monitored -= 1;
        }
    }

    /// Pops stale entries off the watchdog queue, so its front is the
    /// earliest live heartbeat.
    fn settle_watch(&mut self) {
        while let Some(&(heard, app)) = self.watch.front() {
            if is_live(&self.slots, heard, app) {
                break;
            }
            self.watch.pop_front();
        }
    }

    /// Advances the RM's clock to `now_cycle`.
    ///
    /// # Panics
    ///
    /// Panics if `now_cycle` is earlier than a cycle already passed to
    /// [`receive_batch`](Self::receive_batch) or [`poll`](Self::poll).
    fn advance_clock(&mut self, now_cycle: u64) {
        assert!(
            now_cycle >= self.clock,
            "RM clock went backwards: cycle {now_cycle} after cycle {}",
            self.clock
        );
        self.clock = now_cycle;
    }

    /// Installs (or supersedes) the pending conf towards slot `s`,
    /// keeping the retry index in sync.
    fn set_pending_conf(&mut self, s: usize, pending: PendingConf) {
        let app = self.slots[s].app.id;
        if let Some(old) = self.slots[s].pending_conf.replace(Box::new(pending)) {
            self.conf_retry_index.remove(&(old.next_retry_cycle, app));
        }
        self.conf_retry_index
            .insert((pending.next_retry_cycle, app));
    }

    /// Clears any pending conf towards slot `s`, keeping the retry index
    /// in sync.
    fn clear_pending_conf(&mut self, s: usize) {
        if let Some(old) = self.slots[s].pending_conf.take() {
            self.conf_retry_index
                .remove(&(old.next_retry_cycle, self.slots[s].app.id));
        }
    }

    /// Runs a stop + configure round and accounts its overhead: each
    /// active client receives a `stopMsg` and a `confMsg`; the round's
    /// duration is two message latencies (stop fan-out, config fan-out),
    /// during which senders are blocked.
    fn reconfigure(
        &mut self,
        now: SimTime,
        rates: &[(AppId, autoplat_netcalc::TokenBucket)],
        mode: SystemMode,
    ) {
        for (app, _) in rates {
            self.log_msg(now, ControlMessage::Stop { app: *app });
        }
        let config_at = now + SimDuration::from_ns(self.message_latency_ns);
        for (app, tb) in rates {
            self.log_msg(
                config_at,
                ControlMessage::Config {
                    app: *app,
                    mode,
                    rate: tb.rate(),
                },
            );
        }
        self.overhead += SimDuration::from_ns(2.0 * self.message_latency_ns);
    }

    // ------------------------------------------------------------------
    // Message-driven, fault-tolerant operation
    // ------------------------------------------------------------------

    /// Pre-registers application metadata so an `actMsg` (which carries
    /// only the id) can be resolved to criticality and demand.
    /// Re-registering an id replaces its metadata.
    ///
    /// Registering ids in ascending order appends; any other order
    /// inserts, which costs O(registered).
    pub fn register(&mut self, app: Application) {
        match self.slot(app.id) {
            Some(s) => self.slots[s].app = app,
            None => {
                self.insert_slot(app);
            }
        }
    }

    /// Registers every application of `apps`, reserving their slots up
    /// front (see [`register`](Self::register)).
    pub fn register_all(&mut self, apps: impl IntoIterator<Item = Application>) {
        let apps = apps.into_iter();
        self.slots.reserve(apps.size_hint().0);
        for app in apps {
            self.register(app);
        }
    }

    /// Adds a slot for the unregistered `app` at its id-order position
    /// and returns its index.
    fn insert_slot(&mut self, app: Application) -> usize {
        let s = self.slots.partition_point(|slot| slot.app.id < app.id);
        self.slots.insert(s, ClientSlot::new(app));
        for a in &mut self.active_slots {
            if *a as usize >= s {
                *a += 1;
            }
        }
        s
    }

    /// The registered metadata for `app`, if any.
    pub fn known_app(&self, app: AppId) -> Option<&Application> {
        self.slot(app).map(|s| &self.slots[s].app)
    }

    /// True while a `confMsg` retry budget is exhausted and the platform
    /// is running degraded: previous rates retained, admissions refused.
    pub fn is_safe_mode(&self) -> bool {
        self.degraded > 0
    }

    /// Applications reclaimed by the watchdog so far.
    pub fn reclamations(&self) -> u64 {
        self.reclamations
    }

    /// Times the RM entered safe mode.
    pub fn safe_mode_entries(&self) -> u64 {
        self.safe_mode_entries
    }

    /// `confMsg`s retransmitted after a missing ack.
    pub fn conf_retransmissions(&self) -> u64 {
        self.conf_retransmissions
    }

    /// Duplicated deliveries the RM suppressed.
    pub fn duplicates_suppressed(&self) -> u64 {
        self.duplicates + self.strangers.duplicates_suppressed()
    }

    /// `confMsg`s still awaiting acknowledgement.
    pub fn pending_conf_count(&self) -> usize {
        self.conf_retry_index.len()
    }

    /// The cycle until which `app` is quarantined, if it is.
    pub fn quarantined_until(&self, app: AppId) -> Option<u64> {
        self.slot(app).and_then(|s| self.slots[s].quarantined_until)
    }

    /// Whether `app` could be admitted right now, with the refusal reason
    /// when not. (The policy check still happens at admission proper; this
    /// covers the fault-tolerance gates.)
    pub fn check_admissible(&self, app: AppId, now_cycle: u64) -> Result<(), AdmissionError> {
        if let Some(until_cycle) = self.quarantined_until(app) {
            if now_cycle < until_cycle {
                return Err(AdmissionError::Quarantined { app, until_cycle });
            }
        }
        if self.is_safe_mode() {
            return Err(AdmissionError::SafeMode);
        }
        Ok(())
    }

    fn envelope_to(&mut self, app: AppId, now_cycle: u64, message: ControlMessage) -> Envelope {
        let seq = self.next_seq;
        self.next_seq += 1;
        Envelope {
            from: Endpoint::Rm,
            to: Endpoint::Client(app),
            seq,
            sent_at_cycle: now_cycle,
            message,
        }
    }

    /// Emits the stop + config round as envelopes and arms retransmission
    /// for every `confMsg`. Also logs the round like the instantaneous
    /// path, so overhead accounting stays comparable.
    ///
    /// Under [`with_delta_confs`](Self::with_delta_confs) the round only
    /// covers clients whose rate changed since the last round they were
    /// told about (newly admitted clients always have).
    fn reconfigure_envelopes(&mut self, now_cycle: u64) -> Vec<Envelope> {
        let rates = self
            .compute_rates(&self.active)
            .expect("active set was admitted, so rates exist");
        let mode = self.mode();
        let now = SimTime::from_ns(now_cycle as f64);
        let mut round: Vec<(usize, AppId, f64)> = Vec::new();
        for (&s, &(app, tb)) in self.active_slots.iter().zip(&rates) {
            let rate = tb.rate();
            let slot = &mut self.slots[s as usize];
            let unchanged = slot.last_rate == Some(rate);
            slot.last_rate = Some(rate);
            if !self.delta_confs || !unchanged {
                round.push((s as usize, app, rate));
            }
        }
        let mut out = Vec::with_capacity(2 * round.len());
        for &(_, app, _) in &round {
            self.log_msg(now, ControlMessage::Stop { app });
            out.push(self.envelope_to(app, now_cycle, ControlMessage::Stop { app }));
        }
        let conf_at = now + SimDuration::from_ns(self.message_latency_ns);
        for &(s, app, rate) in &round {
            let conf = ControlMessage::Config { app, mode, rate };
            self.log_msg(conf_at, conf);
            let envelope = self.envelope_to(app, now_cycle, conf);
            // A newer round supersedes any conf still in flight to the
            // same client.
            self.set_pending_conf(
                s,
                PendingConf {
                    envelope,
                    attempts: 1,
                    next_retry_cycle: now_cycle + self.retry.backoff_cycles(0),
                },
            );
            out.push(envelope);
        }
        self.overhead += SimDuration::from_ns(2.0 * self.message_latency_ns);
        out
    }

    /// Records `envelope` in its sender's receive window: `true` when it
    /// is fresh. `slot` is the slot of the application it concerns. An
    /// unsequenced heartbeat is always fresh and is never recorded.
    fn accept(&mut self, envelope: &Envelope, slot: Option<usize>) -> bool {
        if envelope.seq == UNSEQUENCED_HEARTBEAT
            && matches!(envelope.message, ControlMessage::Heartbeat { .. })
        {
            return true;
        }
        let sender = match envelope.from {
            Endpoint::Client(c) if c == envelope.message.app() => slot,
            Endpoint::Client(c) => self.slot(c),
            Endpoint::Rm => None,
        };
        let Some(s) = sender else {
            return self.strangers.accept(envelope.from, envelope.seq);
        };
        let fresh = self.slots[s].rx.accept(envelope.seq);
        if !fresh {
            self.duplicates += 1;
        }
        fresh
    }

    /// A duplicated delivery re-elicits the current decision: the previous
    /// response may itself have been lost.
    fn respond_to_duplicate(
        &mut self,
        envelope: &Envelope,
        slot: Option<usize>,
        now_cycle: u64,
    ) -> Option<Envelope> {
        let app = envelope.message.app();
        match envelope.message {
            ControlMessage::Activation { .. } => match slot.map(|s| &self.slots[s]) {
                // Already admitted: re-send this client's current conf
                // from the rate cache (always fresh — every membership
                // change reconfigures and refills it).
                Some(client) if client.active => {
                    let rate = client.last_rate?;
                    let conf = ControlMessage::Config {
                        app,
                        mode: self.mode(),
                        rate,
                    };
                    Some(self.envelope_to(app, now_cycle, conf))
                }
                _ => Some(self.envelope_to(app, now_cycle, ControlMessage::Refusal { app })),
            },
            ControlMessage::Termination { .. } => Some(self.envelope_to(
                app,
                now_cycle,
                ControlMessage::Ack {
                    app,
                    of_seq: envelope.seq,
                },
            )),
            _ => None,
        }
    }

    /// Drops every per-client obligation towards the client of slot `s`
    /// after it leaves (termination or reclamation).
    fn release(&mut self, s: usize) {
        self.untouch(s);
        self.clear_pending_conf(s);
        let slot = &mut self.slots[s];
        slot.last_rate = None;
        // The unreachable client is gone; degradation ends with it.
        if std::mem::take(&mut slot.degraded) {
            self.degraded -= 1;
        }
        // A future incarnation of the client starts its sequence numbers
        // over.
        slot.rx = SeqWindow::default();
    }

    /// The next cycle at which [`poll`](Self::poll) has work: a due
    /// `confMsg` retransmission or a watchdog expiry.
    pub fn next_deadline(&self) -> Option<u64> {
        let retry = self.conf_retry_index.iter().next().map(|&(cycle, _)| cycle);
        let watchdog = self
            .watch
            .front()
            .map(|&(heard, _)| heard + self.watchdog.timeout_cycles);
        match (retry, watchdog) {
            (Some(r), Some(w)) => Some(r.min(w)),
            (r, w) => r.or(w),
        }
    }

    /// Advances the RM's timers to `now_cycle`: retransmits due `confMsg`s
    /// with exponential backoff (entering safe mode when a budget is
    /// exhausted) and runs the heartbeat watchdog, forcibly terminating
    /// clients that have been silent past the timeout. Returns the
    /// envelopes to hand to the control plane.
    ///
    /// # Panics
    ///
    /// Panics if `now_cycle` is earlier than a cycle already passed to
    /// `poll` or [`receive_batch`](Self::receive_batch).
    pub fn poll(&mut self, now_cycle: u64) -> Vec<Envelope> {
        self.advance_clock(now_cycle);
        let mut out = Vec::new();
        // Due retransmissions via the retry index, then processed in
        // ascending client-id order (the historical pending-map order,
        // pinned by tests and golden replays).
        let mut due: Vec<AppId> = self
            .conf_retry_index
            .range(..=(now_cycle, AppId(u32::MAX)))
            .map(|&(_, app)| app)
            .collect();
        due.sort_unstable();
        let mut gave_up: Vec<usize> = Vec::new();
        for app in due {
            let s = self
                .slot(app)
                .expect("pending confs go to registered clients");
            let p = *self.slots[s]
                .pending_conf
                .as_deref()
                .expect("indexed conf exists");
            if p.attempts >= self.retry.max_attempts() {
                gave_up.push(s);
                continue;
            }
            let mut next = p;
            next.envelope.sent_at_cycle = now_cycle;
            next.attempts += 1;
            next.next_retry_cycle = now_cycle + self.retry.backoff_cycles(next.attempts - 1);
            self.conf_retransmissions += 1;
            out.push(next.envelope);
            self.set_pending_conf(s, next);
        }
        for s in gave_up {
            self.clear_pending_conf(s);
            if self.degraded == 0 {
                self.safe_mode_entries += 1;
            }
            if !std::mem::replace(&mut self.slots[s].degraded, true) {
                self.degraded += 1;
            }
        }
        // Watchdog sweep from the queue's front: every live entry heard
        // at or before `cutoff` has been silent past the timeout. (With no
        // full timeout elapsed since cycle 0, nothing can have expired.)
        if let Some(cutoff) = now_cycle.checked_sub(self.watchdog.timeout_cycles) {
            let mut expired: Vec<AppId> = Vec::new();
            while let Some(&(heard, app)) = self.watch.front() {
                if heard > cutoff {
                    break;
                }
                self.watch.pop_front();
                if is_live(&self.slots, heard, app) {
                    expired.push(app);
                }
            }
            expired.sort_unstable();
            for app in expired {
                out.extend(self.reclaim(app, now_cycle));
            }
        }
        self.settle_watch();
        out
    }

    /// Forcibly terminates `app` (presumed dead), redistributing its
    /// bandwidth to the survivors, and quarantines it when it flaps.
    fn reclaim(&mut self, app: AppId, now_cycle: u64) -> Vec<Envelope> {
        let s = self.slot(app).expect("watched clients are registered");
        let was_active = self.deactivate(s);
        self.release(s);
        if !was_active {
            return Vec::new();
        }
        self.reclamations += 1;
        self.mode_changes += 1;
        self.departures.push(app);
        let slot = &mut self.slots[s];
        slot.reclaims += 1;
        if slot.reclaims >= self.watchdog.quarantine_threshold {
            slot.quarantined_until = Some(now_cycle + self.watchdog.quarantine_cooldown_cycles);
        }
        self.log_msg(
            SimTime::from_ns(now_cycle as f64),
            ControlMessage::Termination { app },
        );
        self.reconfigure_envelopes(now_cycle)
    }

    /// Handles a kernel step's worth of delivered envelopes idempotently,
    /// returning the envelopes to send in response (acks, stop/conf
    /// rounds, refusals). Per-envelope effects (acks, dedup, heartbeats,
    /// membership changes) are applied in delivery order, but at most
    /// **one** mode transition and stop/conf round is emitted for the
    /// whole batch instead of one per membership change. This is what
    /// makes a cluster RM's per-step work O(batch + round) rather than
    /// O(batch × active). Intermediate rounds (which the coalesced bundle
    /// protocol would supersede within the same step anyway) are elided.
    ///
    /// # Panics
    ///
    /// Panics if `now_cycle` is earlier than a cycle already passed to
    /// `receive_batch` or [`poll`](Self::poll).
    pub fn receive_batch(&mut self, envelopes: &[Envelope], now_cycle: u64) -> Vec<Envelope> {
        self.advance_clock(now_cycle);
        let now = SimTime::from_ns(now_cycle as f64);
        let mut out = Vec::new();
        let mut dirty = false;
        for envelope in envelopes {
            let app = envelope.message.app();
            let slot = self.slot(app);
            // Any message is proof of life for the watchdog.
            if let Some(s) = slot.filter(|&s| self.slots[s].heard.is_some()) {
                self.touch(s, now_cycle);
            }
            if !self.accept(envelope, slot) {
                out.extend(self.respond_to_duplicate(envelope, slot, now_cycle));
                continue;
            }
            match envelope.message {
                ControlMessage::Activation { app } => {
                    self.log_msg(now, ControlMessage::Activation { app });
                    if slot.is_some_and(|s| self.slots[s].active) {
                        // Already active (e.g. re-activation racing a
                        // reclamation): just re-confirm.
                        out.extend(self.respond_to_duplicate(envelope, slot, now_cycle));
                        continue;
                    }
                    if self.check_admissible(app, now_cycle).is_err() {
                        out.push(self.refuse(app, now_cycle));
                        continue;
                    }
                    let Some(s) = slot else {
                        out.push(self.refuse(app, now_cycle));
                        continue;
                    };
                    // Cooldown served.
                    self.slots[s].quarantined_until = None;
                    let application = self.slots[s].app;
                    if !self.preapproved {
                        let mut candidate = self.active.clone();
                        candidate.push(application);
                        if self.compute_rates(&candidate).is_none() {
                            out.push(self.refuse(app, now_cycle));
                            continue;
                        }
                    }
                    self.activate(s, application);
                    self.mode_changes += 1;
                    self.touch(s, now_cycle);
                    dirty = true;
                }
                ControlMessage::Termination { app } => {
                    self.log_msg(now, ControlMessage::Termination { app });
                    out.push(self.envelope_to(
                        app,
                        now_cycle,
                        ControlMessage::Ack {
                            app,
                            of_seq: envelope.seq,
                        },
                    ));
                    if let Some(s) = slot.filter(|&s| self.deactivate(s)) {
                        self.mode_changes += 1;
                        self.departures.push(app);
                        self.release(s);
                        dirty = true;
                    }
                }
                ControlMessage::Heartbeat { .. } => {}
                ControlMessage::Ack { of_seq, .. } => {
                    // Only the ack of the *current* pending conf clears
                    // it; a stale ack of a superseded round keeps
                    // retransmitting.
                    if let Some(s) = slot.filter(|&s| {
                        self.slots[s]
                            .pending_conf
                            .as_ref()
                            .is_some_and(|p| p.envelope.seq == of_seq)
                    }) {
                        self.clear_pending_conf(s);
                    }
                }
                // RM-originated kinds arriving here are protocol noise.
                ControlMessage::Stop { .. }
                | ControlMessage::Config { .. }
                | ControlMessage::Refusal { .. } => {}
            }
        }
        if dirty {
            out.extend(self.reconfigure_envelopes(now_cycle));
        }
        self.settle_watch();
        out
    }

    /// Counts a rejection and builds the `rejMsg` envelope for `app`.
    pub(crate) fn refuse(&mut self, app: AppId, now_cycle: u64) -> Envelope {
        self.rejections += 1;
        self.envelope_to(app, now_cycle, ControlMessage::Refusal { app })
    }

    /// Drains the clients that left the active set (termination or
    /// reclamation) since the last call. The cluster layer turns these
    /// into budget `Release` items towards the root arbiter.
    pub fn take_departures(&mut self) -> Vec<AppId> {
        std::mem::take(&mut self.departures)
    }

    /// The currently quarantined client ids, in ascending order.
    pub fn quarantined_ids(&self) -> Vec<AppId> {
        self.slots
            .iter()
            .filter(|s| s.quarantined_until.is_some())
            .map(|s| s.app.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{SymmetricPolicy, WeightedPolicy};
    use proptest::prelude::*;

    fn be(n: u32) -> Application {
        Application::best_effort(AppId(n), n)
    }

    #[test]
    fn admission_transitions_modes_and_rates() {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 100.0);
        for n in 1..=4u32 {
            let out = rm.request_admission(be(n), SimTime::from_ns(n as f64 * 1000.0));
            assert!(out.admitted);
            assert_eq!(out.mode, SystemMode(n as usize));
            for (_, tb) in &out.rates {
                assert!((tb.rate() - 1.0 / n as f64).abs() < 1e-12);
            }
        }
        assert_eq!(rm.mode_changes(), 4);
        assert_eq!(rm.active().len(), 4);
    }

    #[test]
    fn termination_restores_rates() {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 100.0);
        let _ = rm.request_admission(be(0), SimTime::ZERO);
        let _ = rm.request_admission(be(1), SimTime::ZERO);
        rm.terminate(AppId(1), SimTime::from_ns(5000.0));
        assert_eq!(rm.mode(), SystemMode(1));
        // Unknown termination is idempotent.
        rm.terminate(AppId(9), SimTime::from_ns(6000.0));
        assert_eq!(rm.mode(), SystemMode(1));
        assert_eq!(rm.mode_changes(), 3);
    }

    #[test]
    fn weighted_policy_rejects_over_guarantee() {
        let mut rm = ResourceManager::new(WeightedPolicy::new(1.0, 4.0, 0.0), 100.0);
        let a = rm.request_admission(Application::critical(AppId(0), 0, 700), SimTime::ZERO);
        assert!(a.admitted);
        let b = rm.request_admission(Application::critical(AppId(1), 1, 700), SimTime::ZERO);
        assert!(!b.admitted, "1.4 > capacity 1.0");
        assert_eq!(rm.mode(), SystemMode(1), "state unchanged on rejection");
        assert_eq!(rm.rejections(), 1);
    }

    #[test]
    fn protocol_trace_per_round() {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 100.0);
        let _ = rm.request_admission(be(0), SimTime::ZERO);
        // Round 1: 1 actMsg, 1 stopMsg, 1 confMsg.
        assert_eq!(rm.log().count("actMsg"), 1);
        assert_eq!(rm.log().count("stopMsg"), 1);
        assert_eq!(rm.log().count("confMsg"), 1);
        let _ = rm.request_admission(be(1), SimTime::ZERO);
        // Round 2 adds 1 actMsg and 2 stop/conf pairs.
        assert_eq!(rm.log().count("stopMsg"), 3);
        assert_eq!(rm.log().count("confMsg"), 3);
        // Config messages are delayed by one message latency.
        let conf = rm
            .log()
            .records()
            .iter()
            .find(|r| r.message.name() == "confMsg")
            .expect("exists");
        assert_eq!(conf.at, SimTime::from_ns(100.0));
    }

    #[test]
    fn overhead_accumulates_per_mode_change() {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 250.0);
        let _ = rm.request_admission(be(0), SimTime::ZERO);
        let _ = rm.request_admission(be(1), SimTime::ZERO);
        rm.terminate(AppId(0), SimTime::from_us(1.0));
        // 3 mode changes × 2 × 250 ns.
        assert_eq!(rm.total_overhead(), SimDuration::from_ns(1500.0));
    }

    #[test]
    fn rejection_does_not_reconfigure() {
        let mut rm = ResourceManager::new(WeightedPolicy::new(0.5, 4.0, 0.0), 100.0);
        let _ = rm.request_admission(Application::critical(AppId(0), 0, 500), SimTime::ZERO);
        let stops_before = rm.log().count("stopMsg");
        let out = rm.request_admission(Application::critical(AppId(1), 1, 500), SimTime::ZERO);
        assert!(!out.admitted);
        assert_eq!(
            rm.log().count("stopMsg"),
            stops_before,
            "no stop round on reject"
        );
    }

    // --- message-driven, fault-tolerant operation ---

    fn ft_rm() -> ResourceManager<SymmetricPolicy> {
        let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 100.0)
            .with_watchdog(WatchdogConfig {
                timeout_cycles: 1_000,
                quarantine_threshold: 2,
                quarantine_cooldown_cycles: 5_000,
            })
            .with_retry(RetryPolicy::new(100, 3));
        for n in 0..4u32 {
            rm.register(be(n));
        }
        rm
    }

    fn act(app: u32, seq: u64, at: u64) -> Envelope {
        Envelope {
            from: Endpoint::Client(AppId(app)),
            to: Endpoint::Rm,
            seq,
            sent_at_cycle: at,
            message: ControlMessage::Activation { app: AppId(app) },
        }
    }

    fn client_ack(app: u32, seq: u64, of_seq: u64, at: u64) -> Envelope {
        Envelope {
            from: Endpoint::Client(AppId(app)),
            to: Endpoint::Rm,
            seq,
            sent_at_cycle: at,
            message: ControlMessage::Ack {
                app: AppId(app),
                of_seq,
            },
        }
    }

    /// Ack every conf in `out` back into the RM so nothing stays pending.
    fn settle_confs<P: RatePolicy>(rm: &mut ResourceManager<P>, out: &[Envelope], at: u64) {
        let mut ack_seq = 1_000 + at; // distinct per call site in these tests
        for e in out {
            if e.message.name() == "confMsg" {
                let app = e.message.app();
                let ack = client_ack(app.0, ack_seq, e.seq, at);
                ack_seq += 1;
                let _ = rm.receive_batch(&[ack], at);
            }
        }
    }

    #[test]
    fn message_driven_admission_emits_stop_conf_round() {
        let mut rm = ft_rm();
        let out = rm.receive_batch(&[act(0, 0, 10)], 10);
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "stopMsg").count(),
            1
        );
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "confMsg").count(),
            1
        );
        assert_eq!(rm.mode(), SystemMode(1));
        // Second app: round covers both clients.
        let out = rm.receive_batch(&[act(1, 0, 20)], 20);
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "confMsg").count(),
            2
        );
        assert_eq!(rm.mode(), SystemMode(2));
    }

    #[test]
    fn duplicate_activation_resends_conf_without_readmission() {
        let mut rm = ft_rm();
        let _ = rm.receive_batch(&[act(0, 0, 10)], 10);
        let changes = rm.mode_changes();
        let out = rm.receive_batch(&[act(0, 0, 300)], 300); // retransmitted actMsg
        assert_eq!(rm.mode_changes(), changes, "no second transition");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].message.name(), "confMsg");
        assert_eq!(rm.duplicates_suppressed(), 1);
    }

    #[test]
    fn unknown_app_is_refused() {
        let mut rm = ft_rm();
        let out = rm.receive_batch(&[act(9, 0, 10)], 10);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].message.name(), "rejMsg");
        assert_eq!(rm.rejections(), 1);
        assert_eq!(rm.mode(), SystemMode(0));
    }

    #[test]
    fn conf_retransmits_then_enters_safe_mode() {
        let mut rm = ft_rm();
        let out = rm.receive_batch(&[act(0, 0, 0)], 0);
        let conf = out.iter().find(|e| e.message.name() == "confMsg").unwrap();
        let first_deadline = rm.next_deadline().expect("conf pending");
        assert_eq!(first_deadline, 100);
        // Never ack: retries at 100, then 100+200.
        assert_eq!(rm.poll(100).len(), 1);
        assert_eq!(rm.poll(300).len(), 1);
        assert_eq!(rm.conf_retransmissions(), 2);
        assert!(!rm.is_safe_mode());
        // Budget of 3 exhausted: next due poll degrades.
        let next = rm.next_deadline().expect("still pending");
        let _ = rm.poll(next);
        assert!(rm.is_safe_mode());
        assert_eq!(rm.safe_mode_entries(), 1);
        // Safe mode refuses new admissions but keeps previous rates.
        assert_eq!(
            rm.check_admissible(AppId(1), next),
            Err(AdmissionError::SafeMode)
        );
        let out = rm.receive_batch(&[act(1, 0, next + 1)], next + 1);
        assert_eq!(out[0].message.name(), "rejMsg");
        assert_eq!(rm.mode(), SystemMode(1), "previous allocation retained");
        // The ack that finally clears things: watchdog reclaims the dead
        // client, ending safe mode.
        let _ = conf;
        let reclaim_at = 2_000;
        let _ = rm.poll(reclaim_at);
        assert!(!rm.is_safe_mode(), "reclaiming the degraded app recovers");
        assert_eq!(rm.reclamations(), 1);
        assert_eq!(rm.mode(), SystemMode(0));
    }

    #[test]
    fn watchdog_reclaims_silent_client_and_redistributes() {
        let mut rm = ft_rm();
        let out = rm.receive_batch(&[act(0, 0, 0)], 0);
        settle_confs(&mut rm, &out, 1);
        let out = rm.receive_batch(&[act(1, 0, 5)], 5);
        settle_confs(&mut rm, &out, 6);
        assert_eq!(rm.mode(), SystemMode(2));
        // App 0 heartbeats; app 1 goes silent.
        let hb = Envelope {
            from: Endpoint::Client(AppId(0)),
            to: Endpoint::Rm,
            seq: 50,
            sent_at_cycle: 800,
            message: ControlMessage::Heartbeat { app: AppId(0) },
        };
        let _ = rm.receive_batch(&[hb], 800);
        // At cycle 1010 app 1 (last heard when acking its conf at cycle 6)
        // is past the 1000-cycle timeout; app 0 (heard at 800) is not.
        let out = rm.poll(1_010);
        assert_eq!(rm.reclamations(), 1);
        assert_eq!(rm.mode(), SystemMode(1));
        assert!(rm.active().iter().all(|a| a.id != AppId(1)));
        // Survivor gets the full capacity back via a fresh conf round.
        let conf = out.iter().find(|e| e.message.name() == "confMsg").unwrap();
        assert_eq!(conf.message.app(), AppId(0));
        match conf.message {
            ControlMessage::Config { rate, .. } => assert!((rate - 1.0).abs() < 1e-12),
            _ => unreachable!(),
        }
    }

    #[test]
    fn flapping_client_is_quarantined_then_served_after_cooldown() {
        let mut rm = ft_rm();
        // Two reclamations of app 0 trip the threshold of 2.
        for round in 0..2u64 {
            let at = round * 3_000;
            let out = rm.receive_batch(&[act(0, round * 10, at)], at);
            settle_confs(&mut rm, &out, at + 1);
            let _ = rm.poll(at + 1_001 + 1); // silent past the timeout
        }
        assert_eq!(rm.reclamations(), 2);
        let until = rm.quarantined_until(AppId(0)).expect("quarantined");
        // Refused while quarantined.
        let out = rm.receive_batch(&[act(0, 100, until - 1)], until - 1);
        assert_eq!(out[0].message.name(), "rejMsg");
        assert!(matches!(
            rm.check_admissible(AppId(0), until - 1),
            Err(AdmissionError::Quarantined { .. })
        ));
        // Served again once the cooldown expires.
        let out = rm.receive_batch(&[act(0, 101, until)], until);
        assert!(out.iter().any(|e| e.message.name() == "confMsg"));
        assert_eq!(rm.mode(), SystemMode(1));
    }

    #[test]
    fn acked_conf_stops_retransmitting() {
        let mut rm = ft_rm();
        let out = rm.receive_batch(&[act(0, 0, 0)], 0);
        let conf = out.iter().find(|e| e.message.name() == "confMsg").unwrap();
        let _ = rm.receive_batch(&[client_ack(0, 1, conf.seq, 50)], 50);
        // Only the watchdog deadline remains.
        assert_eq!(rm.next_deadline(), Some(50 + 1_000));
        assert!(rm.poll(500).is_empty());
        assert_eq!(rm.conf_retransmissions(), 0);
    }

    #[test]
    fn poll_retransmits_in_ascending_client_id_order() {
        let mut rm = ft_rm();
        // Admit in descending id order so insertion order differs from
        // id order; none of the confs is ever acked.
        for (i, app) in [3u32, 1, 2, 0].iter().enumerate() {
            let _ = rm.receive_batch(&[act(*app, 0, i as u64)], i as u64);
        }
        assert_eq!(rm.pending_conf_count(), 4);
        let out = rm.poll(500);
        let order: Vec<AppId> = out.iter().map(|e| e.message.app()).collect();
        assert_eq!(
            order,
            vec![AppId(0), AppId(1), AppId(2), AppId(3)],
            "retransmission sweep must iterate the pending map in id order"
        );
    }

    #[test]
    fn stale_ack_of_superseded_conf_keeps_current_pending() {
        let mut rm = ft_rm();
        let out = rm.receive_batch(&[act(0, 0, 0)], 0);
        let old_conf = out.iter().find(|e| e.message.name() == "confMsg").unwrap();
        let old_seq = old_conf.seq;
        // A second admission supersedes app 0's pending conf.
        let out = rm.receive_batch(&[act(1, 0, 10)], 10);
        let new_seq = out
            .iter()
            .find(|e| e.message.name() == "confMsg" && e.message.app() == AppId(0))
            .unwrap()
            .seq;
        assert_ne!(old_seq, new_seq);
        // The stale ack must not clear the superseding conf.
        let _ = rm.receive_batch(&[client_ack(0, 100, old_seq, 20)], 20);
        assert_eq!(rm.pending_conf_count(), 2);
        // The current ack does.
        let _ = rm.receive_batch(&[client_ack(0, 101, new_seq, 30)], 30);
        assert_eq!(rm.pending_conf_count(), 1);
    }

    #[test]
    fn active_index_stays_in_sync_across_lifecycle() {
        let mut rm = ft_rm();
        let out = rm.receive_batch(&[act(0, 0, 0)], 0);
        settle_confs(&mut rm, &out, 1);
        let out = rm.receive_batch(&[act(1, 0, 5)], 5);
        settle_confs(&mut rm, &out, 6);
        assert_eq!(rm.active().len(), 2);
        // Instantaneous termination and watchdog reclamation both go
        // through the indexed removal path.
        rm.terminate(AppId(0), SimTime::from_ns(100.0));
        assert!(rm.active().iter().all(|a| a.id != AppId(0)));
        let _ = rm.poll(5_000); // app 1 silent past the timeout
        assert_eq!(rm.reclamations(), 1);
        assert!(rm.active().is_empty());
        // Re-admission after removal works (the index forgot the id).
        let out = rm.receive_batch(&[act(0, 10, 6_000)], 6_000);
        assert!(out.iter().any(|e| e.message.name() == "confMsg"));
        assert_eq!(rm.mode(), SystemMode(1));
    }

    #[test]
    fn receive_batch_coalesces_one_conf_round() {
        let mut batched = ft_rm();
        let batch: Vec<Envelope> = (0..4u32).map(|n| act(n, 0, 10)).collect();
        let out = batched.receive_batch(&batch, 10);
        assert_eq!(batched.mode(), SystemMode(4));
        // One round covering all four clients — not 1+2+3+4 confs.
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "confMsg").count(),
            4
        );
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "stopMsg").count(),
            4
        );
        // The final rates match one batch per envelope.
        let mut serial = ft_rm();
        for n in 0..4u32 {
            let _ = serial.receive_batch(&[act(n, 0, 10)], 10);
        }
        assert_eq!(serial.mode(), batched.mode());
        let told = |rm: &ResourceManager<SymmetricPolicy>| {
            rm.slots.iter().map(|s| s.last_rate).collect::<Vec<_>>()
        };
        assert_eq!(told(&serial), told(&batched));
        assert!(told(&batched).iter().all(|r| *r == Some(0.25)));
    }

    #[test]
    fn delta_confs_skip_unchanged_rates() {
        // Weighted policy: a BE client's rate changes when another BE
        // arrives (shared floor), but a critical client's guaranteed rate
        // never does.
        let mut rm = ResourceManager::new(WeightedPolicy::new(1.0, 4.0, 0.0), 100.0)
            .with_retry(RetryPolicy::new(100, 3))
            .with_delta_confs(true);
        rm.register(Application::critical(AppId(0), 0, 200));
        rm.register(Application::critical(AppId(1), 1, 300));
        let out = rm.receive_batch(&[act(0, 0, 0)], 0);
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "confMsg").count(),
            1
        );
        // Admitting app 1 leaves app 0's guaranteed 0.2 unchanged: only
        // the newcomer is confirmed.
        let out = rm.receive_batch(&[act(1, 0, 10)], 10);
        let confs: Vec<AppId> = out
            .iter()
            .filter(|e| e.message.name() == "confMsg")
            .map(|e| e.message.app())
            .collect();
        assert_eq!(confs, vec![AppId(1)], "unchanged rate, no re-conf");
        assert_eq!(
            rm.pending_conf_count(),
            2,
            "app 0's first conf still pending"
        );
    }

    #[test]
    fn departures_are_drained_once() {
        let mut rm = ft_rm();
        let out = rm.receive_batch(&[act(0, 0, 0)], 0);
        settle_confs(&mut rm, &out, 1);
        let out = rm.receive_batch(&[act(1, 0, 5)], 5);
        settle_confs(&mut rm, &out, 6);
        assert!(rm.take_departures().is_empty());
        rm.terminate(AppId(0), SimTime::from_ns(100.0));
        let _ = rm.poll(5_000); // watchdog reclaims silent app 1
        assert_eq!(rm.take_departures(), vec![AppId(0), AppId(1)]);
        assert!(rm.take_departures().is_empty(), "drained");
    }

    /// The earliest retransmission or watchdog expiry, by scanning every
    /// slot.
    fn scanned_deadline<P>(rm: &ResourceManager<P>) -> Option<u64> {
        rm.slots
            .iter()
            .flat_map(|s| {
                [
                    s.pending_conf.as_ref().map(|p| p.next_retry_cycle),
                    s.heard.map(|h| h + rm.watchdog.timeout_cycles),
                ]
            })
            .flatten()
            .min()
    }

    /// The slot table's cached counts and indices agree with the slots.
    fn check_slots<P>(rm: &ResourceManager<P>) -> Result<(), String> {
        let ids: Vec<AppId> = rm.slots.iter().map(|s| s.app.id).collect();
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!("slots out of id order: {ids:?}"));
        }
        let active: Vec<AppId> = rm.active_slots.iter().map(|&s| ids[s as usize]).collect();
        let listed: Vec<AppId> = rm.active.iter().map(|a| a.id).collect();
        if active != listed || rm.slots.iter().filter(|s| s.active).count() != listed.len() {
            return Err(format!("active {listed:?} vs slots {active:?}"));
        }
        let pending: BTreeSet<(u64, AppId)> = rm
            .slots
            .iter()
            .filter_map(|s| {
                s.pending_conf
                    .as_ref()
                    .map(|p| (p.next_retry_cycle, s.app.id))
            })
            .collect();
        if pending != rm.conf_retry_index {
            return Err(format!(
                "retry index {:?} vs {pending:?}",
                rm.conf_retry_index
            ));
        }
        let monitored = rm.slots.iter().filter(|s| s.heard.is_some()).count();
        let degraded = rm.slots.iter().filter(|s| s.degraded).count();
        if (monitored, degraded) != (rm.monitored, rm.degraded) {
            return Err(format!(
                "counts ({}, {}) vs slots ({monitored}, {degraded})",
                rm.monitored, rm.degraded
            ));
        }
        Ok(())
    }

    proptest! {
        /// Random act, ack, heartbeat, termination and duplicate envelopes
        /// plus polls, at non-decreasing cycles, from registered and
        /// unregistered clients: the watchdog queue's deadline is the
        /// minimum over the slots, and each poll reclaims exactly the
        /// clients silent past the timeout, in ascending id order.
        #[test]
        fn watchdog_queue_matches_a_scan_of_the_slots(
            descending in 0u8..2,
            ops in prop::collection::vec((0u8..6, 0u32..6, 0u64..80), 1..150),
        ) {
            let mut rm = ResourceManager::new(SymmetricPolicy::new(1.0, 8.0), 100.0)
                .with_watchdog(WatchdogConfig {
                    timeout_cycles: 1_000,
                    quarantine_threshold: 2,
                    quarantine_cooldown_cycles: 5_000,
                })
                .with_retry(RetryPolicy::new(100, 3));
            // Apps 4 and 5 stay unregistered.
            let mut order: Vec<u32> = (0..4).collect();
            if descending == 1 {
                order.reverse();
            }
            for n in order {
                rm.register(be(n));
            }
            let mut now = 0u64;
            let mut next_seq = [0u64; 6];
            let mut sent: Vec<Envelope> = Vec::new();
            for &(kind, app, step) in &ops {
                // Even steps, so several operations share a cycle, and
                // now and then a long silence that expires clients.
                now += if step >= 72 { 600 } else { step / 2 * 2 };
                let id = AppId(app);
                let message = match kind {
                    0 => ControlMessage::Activation { app: id },
                    1 => ControlMessage::Termination { app: id },
                    2 => ControlMessage::Heartbeat { app: id },
                    3 => ControlMessage::Ack {
                        app: id,
                        of_seq: rm
                            .slot(id)
                            .and_then(|s| rm.slots[s].pending_conf.as_deref())
                            .map_or(step, |p| p.envelope.seq),
                    },
                    4 if !sent.is_empty() => {
                        let dup = sent[step as usize % sent.len()];
                        let _ = rm.receive_batch(&[dup], now);
                        prop_assert_eq!(rm.next_deadline(), scanned_deadline(&rm));
                        continue;
                    }
                    _ => {
                        let expired: Vec<AppId> = rm
                            .slots
                            .iter()
                            .filter(|s| s.heard.is_some_and(|h| h + 1_000 <= now))
                            .map(|s| s.app.id)
                            .collect();
                        let _ = rm.take_departures();
                        let _ = rm.poll(now);
                        prop_assert_eq!(rm.take_departures(), expired);
                        prop_assert_eq!(rm.next_deadline(), scanned_deadline(&rm));
                        if let Err(e) = check_slots(&rm) {
                            prop_assert!(false, "{}", e);
                        }
                        continue;
                    }
                };
                let envelope = Envelope {
                    from: Endpoint::Client(id),
                    to: Endpoint::Rm,
                    seq: next_seq[app as usize],
                    sent_at_cycle: now,
                    message,
                };
                next_seq[app as usize] += 1;
                sent.push(envelope);
                let _ = rm.receive_batch(&[envelope], now);
                prop_assert_eq!(rm.next_deadline(), scanned_deadline(&rm));
                if let Err(e) = check_slots(&rm) {
                    prop_assert!(false, "{}", e);
                }
            }
        }
    }

    #[test]
    fn watchdog_expires_exactly_at_the_timeout() {
        let mut rm = ft_rm();
        let out = rm.receive_batch(&[act(0, 0, 0)], 0);
        settle_confs(&mut rm, &out, 10);
        assert_eq!(rm.next_deadline(), Some(1_010));
        let _ = rm.poll(1_009);
        assert_eq!(rm.reclamations(), 0, "one cycle short of the timeout");
        let _ = rm.poll(1_010);
        assert_eq!(rm.reclamations(), 1);
        assert_eq!(rm.next_deadline(), None);
    }

    #[test]
    fn unsequenced_heartbeats_are_never_duplicates() {
        let mut rm = ft_rm();
        let out = rm.receive_batch(&[act(0, 0, 0)], 0);
        settle_confs(&mut rm, &out, 10);
        let app = AppId(0);
        for cycle in [500, 900, 1_400] {
            let hb = Envelope {
                from: Endpoint::Client(app),
                to: Endpoint::Rm,
                seq: UNSEQUENCED_HEARTBEAT,
                sent_at_cycle: cycle,
                message: ControlMessage::Heartbeat { app },
            };
            let _ = rm.receive_batch(&[hb], cycle);
            // Each one still feeds the watchdog.
            assert_eq!(rm.next_deadline(), Some(cycle + 1_000));
        }
        assert_eq!(rm.duplicates_suppressed(), 0);
        let _ = rm.poll(2_399);
        assert_eq!(rm.reclamations(), 0, "the last heartbeat kept it alive");
        // A duplicated ack is still a duplicate.
        let ack = client_ack(0, 7, 0, 2_399);
        let _ = rm.receive_batch(&[ack, ack], 2_399);
        assert_eq!(rm.duplicates_suppressed(), 1);
    }

    #[test]
    fn watchdog_queue_stays_bounded_without_polls() {
        let mut rm = ft_rm();
        let out = rm.receive_batch(&[act(0, 0, 0), act(1, 0, 0)], 0);
        settle_confs(&mut rm, &out, 1);
        // App 0 stays silent, so its live entry pins the queue's front
        // while app 1's superseded heartbeats pile up behind it.
        let app = AppId(1);
        for cycle in 2..500u64 {
            let hb = Envelope {
                from: Endpoint::Client(app),
                to: Endpoint::Rm,
                seq: cycle,
                sent_at_cycle: cycle,
                message: ControlMessage::Heartbeat { app },
            };
            let _ = rm.receive_batch(&[hb], cycle);
            // Stale entries are compacted away, live ones kept.
            assert!(rm.watch.len() <= 4 * rm.monitored + 65);
            assert_eq!(rm.next_deadline(), Some(1 + 1_000));
        }
    }

    #[test]
    #[should_panic(expected = "RM clock went backwards: cycle 99 after cycle 100")]
    fn decreasing_cycle_is_refused() {
        let mut rm = ft_rm();
        let _ = rm.receive_batch(&[act(0, 0, 100)], 100);
        // The watchdog queue is ordered by cycle: an earlier cycle would
        // silently corrupt it, so the RM refuses it outright.
        let _ = rm.poll(99);
    }

    #[test]
    fn registration_in_any_order_keeps_slots_sorted() {
        let mut rm = ft_rm();
        let _ = rm.receive_batch(&[act(2, 0, 0)], 0);
        let out = rm.receive_batch(&[act(7, 0, 1)], 1);
        assert_eq!(out[0].message.name(), "rejMsg", "unregistered");
        rm.register(be(7));
        rm.register(Application::best_effort(AppId(1), 42)); // re-registration
        rm.register(be(5)); // inserted below 7, above the active app 2
        assert_eq!(rm.known_app(AppId(1)).map(|a| a.node), Some(42));
        check_slots(&rm).expect("consistent");
        let out = rm.receive_batch(&[act(5, 0, 2), act(7, 1, 2)], 2);
        assert_eq!(
            out.iter().filter(|e| e.message.name() == "confMsg").count(),
            3
        );
        assert_eq!(rm.mode(), SystemMode(3));
        check_slots(&rm).expect("consistent");
    }

    #[test]
    fn logging_off_keeps_counters_but_not_records() {
        let mut rm = ft_rm();
        rm.set_logging(false);
        let _ = rm.receive_batch(&[act(0, 0, 10)], 10);
        assert_eq!(rm.log().count("actMsg"), 0, "no records when disabled");
        assert_eq!(rm.mode(), SystemMode(1), "behaviour unchanged");
        assert_eq!(rm.mode_changes(), 1);
    }

    #[test]
    fn try_new_validates_latency() {
        assert!(ResourceManager::try_new(SymmetricPolicy::new(1.0, 8.0), -1.0).is_err());
        assert!(ResourceManager::try_new(SymmetricPolicy::new(1.0, 8.0), f64::NAN).is_err());
        assert!(ResourceManager::try_new(SymmetricPolicy::new(1.0, 8.0), 0.0).is_ok());
        assert!(WatchdogConfig::try_new(0, 1, 10).is_err());
        assert!(WatchdogConfig::try_new(10, 0, 10).is_err());
        assert!(WatchdogConfig::try_new(10, 1, 0).is_ok());
    }
}
