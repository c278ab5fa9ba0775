//! Per-tenant privacy accounting with an optional write-ahead ledger.
//!
//! The accountant is the service's single source of truth for cumulative
//! (ε, δ) spend. Every release batch is charged here **before** any noise
//! is drawn — a rejected charge means no randomness was consumed and no
//! output left the server, so rejections are privacy-free.
//!
//! ## Concurrency: sharded locks, one cross-tenant rendezvous
//!
//! Tenant state is sharded: each tenant's ledger and release journal live
//! behind that tenant's own mutex, so the check-and-debit critical
//! section — still atomic per tenant, which is the contract
//! [`BudgetLedger`] requires — no longer serializes tenants on each
//! other, and never includes any I/O. The optional global ledger has its
//! own small critical section (locked strictly after a tenant shard,
//! never the other way, so the two-ledger debit stays all-or-nothing and
//! deadlock-free). The only cross-tenant rendezvous left is the WAL
//! commit queue below.
//!
//! ## Durability: group commit
//!
//! With a write-ahead ledger file ([`Accountant::with_wal`]), every
//! `open` and `spend` record is durable *before* the operation is
//! acknowledged. Records are made durable by **group commit**: a writer
//! stages its rendered record on the commit queue and parks; the first
//! stager becomes the committer, drains everything staged, writes the
//! whole batch in one buffered append, issues **one** `sync_data` for
//! the batch, and wakes every waiter — then keeps draining while new
//! records arrived, so under load the batch size grows to the number of
//! concurrent writers instead of the fsync rate capping throughput at
//! one release per `sync_data`. Each request is still acknowledged (and
//! noise still drawn) only after the batch containing *its* record is
//! durable, so a restarted service reloads exactly the budget it had
//! granted and refuses to replay spent budget.
//!
//! A batch-level failure (the append or the `sync_data`, see the
//! `wal.append` / `wal.batch_sync` failpoints) fails **every** waiter in
//! the batch the safe direction: their in-memory debits are kept, their
//! request ids are *not* journaled, and the file is truncated back to
//! the last durable byte so the failed batch's torn bytes can never
//! corrupt the interior of the log. A retry therefore re-debits — budget
//! is burned without output, which wastes utility but can never
//! overspend ε. Two crash cases matter on reload:
//!
//! - **Torn tail** (final line has no trailing newline): the process died
//!   mid-append, which is *before* the corresponding release was returned
//!   to any client. Dropping the torn record is therefore privacy-safe,
//!   and the file is truncated back to the last complete line on reload.
//! - **Corrupt interior record**: a non-tail line that fails to parse or
//!   re-apply means the history itself is damaged. The accountant refuses
//!   to guess at spent budget and fails loading with
//!   [`ServiceError::WalCorrupt`].
//!
//! Records carry an FNV-1a checksum (`"crc"`), so a bit flip anywhere in
//! a committed record — including inside a spent-ε digit, which would
//! otherwise *parse fine and silently under-report spend* — fails closed
//! as [`ServiceError::WalCorrupt`]. Records written before checksums
//! existed (no `"crc"` field) still replay.
//!
//! ## The release journal (exactly-once)
//!
//! A release request that carries a client `request_id` is admitted
//! through [`Accountant::admit_release`], which makes the duplicate check
//! and the debit **one critical section** (per tenant): the first
//! admission debits the charge and journals
//! `(tenant, request_id, session, seeds, charge)` in the WAL record
//! itself; every later admission of the same id debits *nothing* and
//! replays — from the cached response if the release completed, or by
//! telling the caller the response is gone if the first attempt died
//! between debit and response (or the cache evicted it). The service then
//! recomputes it for a shared session (releases are seed-deterministic,
//! so recomputation is byte-identical) and refuses it for a stream, whose
//! state has moved on. A retry racing the first admission's group commit
//! waits for that commit's outcome rather than guessing: if the batch
//! lands the retry replays, if the batch fails the retry re-debits. WAL
//! replay reconstructs the journal, so the no-double-debit guarantee
//! survives crash/restart; only the response *cache* is volatile.
//!
//! ## The global ledger
//!
//! Per-tenant ledgers bound per-tenant spend; they say nothing about the
//! *dataset's* cumulative privacy loss, which under sequential composition
//! is the sum across every tenant ever opened. An optional global ledger
//! ([`Accountant::with_global_budget`]) caps that sum: every debit must
//! fit the tenant ledger **and** the global ledger, atomically — on a
//! global refusal the tenant ledger is left untouched. On a WAL reload the
//! persisted per-tenant spends are replayed into the global ledger first,
//! so a restart cannot launder dataset-level spend either.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, RwLock};

use crate::error::ServiceError;
use crate::fail_point;
use crate::protocol::{parse_line, render_line};
use dp_core::fnv1a64;
use dp_core::serde_impls::{privacy_from, privacy_value, u64_from, u64_value};
use dp_mech::{BudgetLedger, PrivacyLevel};
use serde::Value;

/// Completed release reply lines kept in memory (per tenant) for replay.
/// The *journal* (which ids were charged, and for what) is never evicted
/// — it is the exactly-once guarantee and is WAL-backed anyway; the
/// cached lines are only a shortcut: an evicted response of a
/// shared session is recomputed deterministically from the journaled
/// seeds, and one of a stream is refused (the stream has moved on).
pub(crate) const RESPONSE_CACHE_CAP: usize = 1024;

/// A point-in-time snapshot of one tenant's budget position.
#[derive(Debug, Clone, Copy)]
pub struct BudgetStatus {
    /// The tenant's total allowance.
    pub total: PrivacyLevel,
    /// Cumulative ε granted so far.
    pub spent_epsilon: f64,
    /// Cumulative δ granted so far.
    pub spent_delta: f64,
    /// ε still available.
    pub remaining_epsilon: f64,
    /// δ still available.
    pub remaining_delta: f64,
    /// Number of granted charges (a batch of k seeds is one charge).
    pub charges: usize,
}

/// What the accountant knows about one journaled release: enough to
/// detect a request-id reuse with different parameters, and enough for
/// the service to *recompute* the release if the cached response is gone
/// (releases are seed-deterministic).
struct ReleaseRecord {
    session: String,
    seeds: Vec<u64>,
    charge: PrivacyLevel,
    /// The reply line as sent, shared and never copied: a replay hands
    /// out another `Arc` handle on the same bytes.
    response: Option<Arc<str>>,
    /// `false` while the spend record is staged on the commit queue but
    /// not yet durable. Duplicates observing a pending entry wait for
    /// the commit outcome instead of guessing.
    journaled: bool,
}

/// The accountant's verdict on a release request that carries a client
/// `request_id` (see [`Accountant::admit_release`]).
#[derive(Debug)]
pub enum ReleaseAdmission {
    /// First admission of this id: the charge was debited and journaled.
    /// The caller must compute the release and then store its response
    /// with [`Accountant::record_response`].
    Fresh,
    /// This id was already charged — debit nothing. `Some` carries the
    /// cached response to return verbatim; `None` means the response was
    /// never stored (the first attempt died between debit and response,
    /// or the cache evicted it). The caller recomputes it from the same
    /// session and seeds when that is byte-identical by determinism (a
    /// shared session never changes), and refuses otherwise (a stream).
    Replay(Option<Arc<str>>),
}

/// One tenant's state: ledger plus release journal, behind that tenant's
/// own lock.
struct TenantShard {
    ledger: BudgetLedger,
    /// The release journal, keyed by `request_id` (the tenant is the
    /// shard). Journaled entries are never removed — each one witnesses
    /// a debit that must not repeat; pending entries are removed only by
    /// their owner when the group commit fails.
    releases: HashMap<String, ReleaseRecord>,
    /// Which journal entries currently hold a cached response, oldest
    /// first, for [`RESPONSE_CACHE_CAP`] eviction.
    response_order: VecDeque<String>,
}

impl TenantShard {
    fn new(ledger: BudgetLedger) -> TenantShard {
        TenantShard {
            ledger,
            releases: HashMap::new(),
            response_order: VecDeque::new(),
        }
    }
}

/// A tenant shard plus the condvar pending-entry waiters park on.
type Shard = Arc<(Mutex<TenantShard>, Condvar)>;

/// When the write-ahead ledger issues `sync_data`. Group commit is the
/// only mode; the type remains because the `perfbench` service benchmark
/// still names it through [`Accountant::with_wal_sync`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalSync {
    /// Group commit: concurrent records are appended in one buffered
    /// write and synced with **one** `sync_data` per batch.
    Group,
}

/// Counters describing the batches the group committer has written.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalStats {
    /// Synced batches (each one `sync_data`).
    pub batches: u64,
    /// Records across all batches.
    pub records: u64,
    /// Largest single batch.
    pub max_batch: usize,
    /// Batch-size histogram: records landing in batches of size
    /// 1, 2, 3–4, 5–8, 9–16, 17–32, 33+ respectively.
    pub size_hist: [u64; 7],
}

impl WalStats {
    fn note(&mut self, size: usize) {
        self.batches += 1;
        self.records += size as u64;
        self.max_batch = self.max_batch.max(size);
        let bucket = match size {
            0..=1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            9..=16 => 4,
            17..=32 => 5,
            _ => 6,
        };
        self.size_hist[bucket] += size as u64;
    }

    /// Mean records per `sync_data`.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.records as f64 / self.batches as f64
        }
    }
}

/// A staged record's commit outcome, shared between the stager and the
/// committer. Errors cross threads as strings (resurfacing as
/// [`ServiceError::Io`]); success is `Ok`.
struct Ticket {
    done: Mutex<Option<Result<(), String>>>,
    cv: Condvar,
}

impl Ticket {
    fn new() -> Ticket {
        Ticket {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, result: Result<(), String>) {
        *self.done.lock().expect("ticket mutex poisoned") = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<(), ServiceError> {
        let mut done = self.done.lock().expect("ticket mutex poisoned");
        while done.is_none() {
            done = self.cv.wait(done).expect("ticket mutex poisoned");
        }
        done.clone()
            .expect("checked Some above")
            .map_err(ServiceError::Io)
    }
}

/// The commit queue: the only lock shared across tenants, held only to
/// push/drain staged lines — never across I/O.
struct WalQueue {
    queue: Vec<(String, Arc<Ticket>)>,
    /// A committer is currently draining; stagers park on their ticket.
    committing: bool,
    stats: WalStats,
}

/// The ledger file plus what is known-durable in it. Locked only by the
/// active committer.
struct WalFile {
    file: File,
    /// Bytes known durable; a failed batch truncates back to this.
    synced_len: u64,
    /// Set when even the failure-path truncate failed: the on-disk state
    /// is unknown, so all further appends are refused (reads still work).
    poisoned: Option<String>,
}

/// The group-commit write-ahead log (see the module docs).
struct Wal {
    state: Mutex<WalQueue>,
    file: Mutex<WalFile>,
}

impl Wal {
    /// Appends `lines` as one buffered write and syncs once. On failure
    /// the file is rolled back to the last durable byte (or poisoned if
    /// even that fails) — the caller fails every waiter in the batch.
    fn write_batch(file: &mut WalFile, lines: &[String]) -> Result<(), ServiceError> {
        if let Some(reason) = &file.poisoned {
            return Err(ServiceError::Io(format!("ledger poisoned: {reason}")));
        }
        let mut buf = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum());
        for line in lines {
            fail_point!("wal.append");
            buf.push_str(line);
            buf.push('\n');
        }
        let result = (|| -> Result<(), ServiceError> {
            file.file.write_all(buf.as_bytes())?;
            fail_point!("wal.batch_sync");
            file.file.sync_data()?;
            Ok(())
        })();
        match result {
            Ok(()) => {
                file.synced_len += buf.len() as u64;
                Ok(())
            }
            Err(e) => {
                if let Err(trunc) = file.file.set_len(file.synced_len) {
                    file.poisoned = Some(format!(
                        "failed batch could not be rolled back ({trunc}) after: {e}"
                    ));
                }
                Err(e)
            }
        }
    }

    /// Makes one rendered record durable, batching with whatever else is
    /// staged. Returns only once the record's batch is synced (or failed).
    fn commit(&self, record: &Value) -> Result<(), ServiceError> {
        let line = render_line(record);
        let ticket = Arc::new(Ticket::new());
        let lead = {
            let mut state = self.state.lock().expect("wal queue mutex poisoned");
            state.queue.push((line, Arc::clone(&ticket)));
            !std::mem::replace(&mut state.committing, true)
        };
        if lead {
            self.drain();
        }
        ticket.wait()
    }

    /// The committer loop: drain everything staged, write + sync it as
    /// one batch, wake the batch's waiters, repeat until the queue runs
    /// dry — then hand the committer role back.
    fn drain(&self) {
        let mut file = self.file.lock().expect("wal file mutex poisoned");
        loop {
            let batch = {
                let mut state = self.state.lock().expect("wal queue mutex poisoned");
                if state.queue.is_empty() {
                    state.committing = false;
                    return;
                }
                let batch = std::mem::take(&mut state.queue);
                state.stats.note(batch.len());
                batch
            };
            let lines: Vec<String> = batch.iter().map(|(line, _)| line.clone()).collect();
            let result = Self::write_batch(&mut file, &lines).map_err(|e| e.to_string());
            for (_, ticket) in &batch {
                ticket.resolve(result.clone());
            }
        }
    }

    fn stats(&self) -> WalStats {
        self.state.lock().expect("wal queue mutex poisoned").stats
    }
}

/// Thread-safe per-tenant budget accountant (see the module docs).
///
/// All public methods take `&self`. Check-and-debit is one critical
/// section *per tenant*; tenants never hold each other's locks, and no
/// lock is held across WAL I/O.
pub struct Accountant {
    /// Tenant shards. The map lock is held only to find or insert a
    /// shard, never across a debit or any I/O.
    tenants: RwLock<HashMap<String, Shard>>,
    /// Serializes tenant creation (rare) so the existence check, the WAL
    /// `open` record, and the insertion stay atomic without write-locking
    /// the map across I/O.
    open_lock: Mutex<()>,
    global: Option<Mutex<BudgetLedger>>,
    wal: Option<Wal>,
}

/// Appends a `"crc"` field holding the FNV-1a 64 of the record as rendered
/// *without* it. Rendering is deterministic (insertion-ordered keys, exact
/// f64 round-trip), so verification re-renders and compares.
fn seal(record: Value) -> Value {
    let crc = fnv1a64(render_line(&record).bytes().map(u64::from));
    let Value::Object(mut fields) = record else {
        unreachable!("ledger records are always objects");
    };
    fields.push(("crc".into(), Value::String(format!("{crc:016x}"))));
    Value::Object(fields)
}

/// Checks a record's `"crc"` seal. Records from before checksums existed
/// carry no `"crc"` field and are accepted as-is.
fn verify_seal(record: &Value) -> Result<(), String> {
    let Value::Object(fields) = record else {
        return Err("record is not an object".into());
    };
    let Some(pos) = fields.iter().position(|(key, _)| key == "crc") else {
        return Ok(());
    };
    let stored = fields[pos].1.as_str().ok_or("crc is not a string")?;
    let mut without = fields.clone();
    without.remove(pos);
    let crc = fnv1a64(render_line(&Value::Object(without)).bytes().map(u64::from));
    if format!("{crc:016x}") != stored {
        return Err("checksum mismatch".into());
    }
    Ok(())
}

fn open_record(tenant: &str, budget: PrivacyLevel) -> Value {
    seal(Value::Object(vec![
        ("op".into(), Value::String("open".into())),
        ("tenant".into(), Value::String(tenant.into())),
        ("budget".into(), privacy_value(budget)),
    ]))
}

fn spend_record(tenant: &str, charge: PrivacyLevel) -> Value {
    spend_record_with(tenant, charge, None)
}

/// A spend record, optionally journaling the `(request_id, session, seeds)`
/// of the release it pays for, so WAL replay can rebuild the dedup journal.
fn spend_record_with(
    tenant: &str,
    charge: PrivacyLevel,
    release: Option<(&str, &str, &[u64])>,
) -> Value {
    let mut fields = vec![
        ("op".into(), Value::String("spend".into())),
        ("tenant".into(), Value::String(tenant.into())),
        ("charge".into(), privacy_value(charge)),
    ];
    if let Some((request_id, session, seeds)) = release {
        fields.push(("request_id".into(), Value::String(request_id.into())));
        fields.push(("session".into(), Value::String(session.into())));
        fields.push((
            "seeds".into(),
            Value::Array(seeds.iter().map(|&s| u64_value(s)).collect()),
        ));
    }
    seal(Value::Object(fields))
}

fn apply_record(tenants: &mut HashMap<String, TenantShard>, record: &Value) -> Result<(), String> {
    verify_seal(record)?;
    let tenant = record
        .get_field("tenant")
        .and_then(Value::as_str)
        .ok_or("missing tenant")?
        .to_string();
    match record.get_field("op").and_then(Value::as_str) {
        Some("open") => {
            let budget = privacy_from(record.get_field("budget").ok_or("missing budget")?)
                .map_err(|e| e.to_string())?;
            match tenants.get(&tenant) {
                None => {
                    let ledger = BudgetLedger::new(budget).map_err(|e| e.to_string())?;
                    tenants.insert(tenant, TenantShard::new(ledger));
                    Ok(())
                }
                Some(existing) if existing.ledger.total() == budget => Ok(()),
                Some(_) => Err(format!(
                    "tenant {tenant:?} reopened with a different budget"
                )),
            }
        }
        Some("spend") => {
            let charge = privacy_from(record.get_field("charge").ok_or("missing charge")?)
                .map_err(|e| e.to_string())?;
            let shard = tenants
                .get_mut(&tenant)
                .ok_or_else(|| format!("spend for unopened tenant {tenant:?}"))?;
            shard.ledger.try_spend(charge).map_err(|e| e.to_string())?;
            if let Some(request_id) = record.get_field("request_id").and_then(Value::as_str) {
                let session = record
                    .get_field("session")
                    .and_then(Value::as_str)
                    .ok_or("release record missing session")?
                    .to_string();
                let seeds = record
                    .get_field("seeds")
                    .and_then(Value::as_array)
                    .ok_or("release record missing seeds")?
                    .iter()
                    .map(|v| u64_from(v, "seed").map_err(|e| e.to_string()))
                    .collect::<Result<Vec<u64>, String>>()?;
                let entry = ReleaseRecord {
                    session,
                    seeds,
                    charge,
                    response: None,
                    journaled: true,
                };
                if shard
                    .releases
                    .insert(request_id.to_string(), entry)
                    .is_some()
                {
                    // Two debits for one id means the exactly-once
                    // invariant was already violated on disk; refuse to
                    // load rather than normalize it.
                    return Err(format!("duplicate release request id {request_id:?}"));
                }
            }
            Ok(())
        }
        other => Err(format!("unknown ledger op {other:?}")),
    }
}

impl Accountant {
    fn from_parts(tenants: HashMap<String, TenantShard>, wal: Option<Wal>) -> Accountant {
        Accountant {
            tenants: RwLock::new(
                tenants
                    .into_iter()
                    .map(|(name, shard)| (name, Arc::new((Mutex::new(shard), Condvar::new()))))
                    .collect(),
            ),
            open_lock: Mutex::new(()),
            global: None,
            wal,
        }
    }

    /// An accountant with no persistence (budgets reset with the process).
    pub fn in_memory() -> Accountant {
        Accountant::from_parts(HashMap::new(), None)
    }

    /// Adds a dataset-wide spending cap on top of the per-tenant ledgers
    /// (see the module docs). Any spend already loaded (e.g. from a WAL)
    /// is replayed into the global ledger first; if that history alone
    /// exceeds `budget`, construction fails rather than under-counting.
    pub fn with_global_budget(self, budget: PrivacyLevel) -> Result<Accountant, ServiceError> {
        let mut global = BudgetLedger::new(budget)?;
        {
            let tenants = self.tenants.read().expect("tenant map lock poisoned");
            for shard in tenants.values() {
                let shard = shard.0.lock().expect("tenant shard mutex poisoned");
                if shard.ledger.num_charges() > 0 {
                    global.try_spend(shard.ledger.spent())?;
                }
            }
        }
        Ok(Accountant {
            global: Some(Mutex::new(global)),
            ..self
        })
    }

    /// Loads (or creates) the write-ahead ledger at `path` with group
    /// commit, replaying any persisted history so spent budget survives
    /// restarts. See the module docs for the torn-tail / corrupt-record
    /// semantics.
    pub fn with_wal(path: &Path) -> Result<Accountant, ServiceError> {
        let mut text = String::new();
        if path.exists() {
            File::open(path)?.read_to_string(&mut text)?;
        }
        // Everything up to the last newline is committed history; a
        // trailing fragment is a torn append from a crash that happened
        // before the release was acknowledged.
        let committed = match text.rfind('\n') {
            Some(pos) => &text[..=pos],
            None => "",
        };
        let mut tenants = HashMap::new();
        for (idx, line) in committed.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let record = parse_line(line)
                .map_err(|e| ServiceError::WalCorrupt(format!("record {}: {e}", idx + 1)))?;
            apply_record(&mut tenants, &record)
                .map_err(|e| ServiceError::WalCorrupt(format!("record {}: {e}", idx + 1)))?;
        }
        let existed = path.exists();
        let wal = OpenOptions::new().create(true).append(true).open(path)?;
        if text.len() > committed.len() {
            wal.set_len(committed.len() as u64)?;
        }
        // `sync_data` on the ledger file durably commits its *contents*,
        // but a freshly created file's directory entry lives in the parent
        // directory's inode: without an fsync of the parent, a crash right
        // after the first acknowledged debit can lose the entire file —
        // and with it every record of spent budget. Fsync the parent once
        // at creation so the name is as durable as the bytes.
        #[cfg(unix)]
        if !existed {
            let parent = match path.parent() {
                Some(dir) if !dir.as_os_str().is_empty() => dir,
                _ => Path::new("."),
            };
            File::open(parent)?.sync_all()?;
        }
        #[cfg(not(unix))]
        let _ = existed;
        let wal = Wal {
            state: Mutex::new(WalQueue {
                queue: Vec::new(),
                committing: false,
                stats: WalStats::default(),
            }),
            file: Mutex::new(WalFile {
                file: wal,
                synced_len: committed.len() as u64,
                poisoned: None,
            }),
        };
        Ok(Accountant::from_parts(tenants, Some(wal)))
    }

    /// The same as [`Accountant::with_wal`]: [`WalSync::Group`] is the
    /// only mode. Kept because the `perfbench` service benchmark still
    /// calls it; new code should call [`Accountant::with_wal`].
    pub fn with_wal_sync(path: &Path, _sync: WalSync) -> Result<Accountant, ServiceError> {
        Accountant::with_wal(path)
    }

    /// What the group committer has written so far (`None` without a
    /// WAL).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(Wal::stats)
    }

    /// Finds a tenant's shard without allocating (the map is keyed by
    /// `&str` lookup; the returned handle is a cheap `Arc` clone).
    fn shard(&self, tenant: &str) -> Result<Shard, ServiceError> {
        self.tenants
            .read()
            .expect("tenant map lock poisoned")
            .get(tenant)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownTenant(tenant.into()))
    }

    /// Opens a tenant with the given total budget. Idempotent for an
    /// identical budget; a different budget is
    /// [`ServiceError::TenantBudgetMismatch`] — never a reset.
    pub fn open_tenant(&self, tenant: &str, budget: PrivacyLevel) -> Result<(), ServiceError> {
        let _creating = self.open_lock.lock().expect("open lock poisoned");
        if let Some(shard) = self
            .tenants
            .read()
            .expect("tenant map lock poisoned")
            .get(tenant)
        {
            let shard = shard.0.lock().expect("tenant shard mutex poisoned");
            return if shard.ledger.total() == budget {
                Ok(())
            } else {
                Err(ServiceError::TenantBudgetMismatch(tenant.into()))
            };
        }
        let ledger = BudgetLedger::new(budget)?;
        // Persist before the tenant becomes visible: if the commit fails
        // the open is refused and nothing changed.
        if let Some(wal) = &self.wal {
            wal.commit(&open_record(tenant, budget))?;
        }
        self.tenants
            .write()
            .expect("tenant map lock poisoned")
            .insert(
                tenant.into(),
                Arc::new((Mutex::new(TenantShard::new(ledger)), Condvar::new())),
            );
        Ok(())
    }

    /// The in-memory half of a debit: tenant ledger and, when configured,
    /// the global ledger, all-or-nothing. The caller holds the tenant
    /// shard lock; the global lock nests strictly inside it.
    fn debit_locked(
        &self,
        shard: &mut TenantShard,
        charge: PrivacyLevel,
    ) -> Result<(), ServiceError> {
        match &self.global {
            None => shard.ledger.try_spend(charge)?,
            Some(global) => {
                // Stage the tenant debit on a copy so a *global* refusal
                // commits neither ledger; the global debit runs only after
                // the tenant check passed, so the commit is all-or-nothing.
                let mut staged = shard.ledger.clone();
                staged.try_spend(charge)?;
                global
                    .lock()
                    .expect("global ledger mutex poisoned")
                    .try_spend(charge)?;
                shard.ledger = staged;
            }
        }
        Ok(())
    }

    /// Atomically checks and debits `charge` from the tenant's ledger —
    /// and, when configured, the global ledger — then group-commits the
    /// spend record before returning. Callers draw noise only after this
    /// returns `Ok`.
    pub fn try_debit(&self, tenant: &str, charge: PrivacyLevel) -> Result<(), ServiceError> {
        let shard = self.shard(tenant)?;
        {
            let mut state = shard.0.lock().expect("tenant shard mutex poisoned");
            self.debit_locked(&mut state, charge)?;
        }
        // On commit failure the in-memory debit is deliberately kept: the
        // caller refuses the release, so burned-but-unreleased budget is
        // the safe direction (see the module docs).
        match &self.wal {
            Some(wal) => wal.commit(&spend_record(tenant, charge)),
            None => Ok(()),
        }
    }

    /// Admits a release request carrying a client `request_id`: the
    /// duplicate check and the debit are **one critical section** (per
    /// tenant), so two racing retries of the same id cannot both debit.
    ///
    /// - First admission: debits `charge`, journals the id (with its
    ///   session/seeds, in the WAL spend record itself, durable via group
    ///   commit before this returns) and returns
    ///   [`ReleaseAdmission::Fresh`].
    /// - Same id, same parameters: debits nothing, returns
    ///   [`ReleaseAdmission::Replay`] with the cached response if any. A
    ///   duplicate racing the first admission's commit waits for that
    ///   commit's outcome first.
    /// - Same id, *different* parameters:
    ///   [`ServiceError::IdempotencyMismatch`] — a client bug the service
    ///   refuses to make ambiguous.
    ///
    /// If the batch commit fails after the in-memory debit, the debit is
    /// kept but the id is **not** journaled: a retry will debit again.
    /// Double-counting spend in a failure window is the safe direction;
    /// under-counting never is.
    pub fn admit_release(
        &self,
        tenant: &str,
        request_id: &str,
        session: &str,
        seeds: &[u64],
        charge: PrivacyLevel,
    ) -> Result<ReleaseAdmission, ServiceError> {
        let shard = self.shard(tenant)?;
        let (lock, pending_cv) = &*shard;
        {
            let mut state = lock.lock().expect("tenant shard mutex poisoned");
            while let Some(existing) = state.releases.get(request_id) {
                if existing.session != session
                    || existing.seeds != seeds
                    || existing.charge != charge
                {
                    return Err(ServiceError::IdempotencyMismatch {
                        request_id: request_id.into(),
                    });
                }
                if existing.journaled {
                    return Ok(ReleaseAdmission::Replay(existing.response.clone()));
                }
                // The first admission is still waiting for its batch to
                // sync; wait for that outcome (journaled → replay,
                // removed → this retry takes the fresh path itself).
                state = pending_cv.wait(state).expect("tenant shard mutex poisoned");
            }
            self.debit_locked(&mut state, charge)?;
            state.releases.insert(
                request_id.to_string(),
                ReleaseRecord {
                    session: session.into(),
                    seeds: seeds.to_vec(),
                    charge,
                    response: None,
                    journaled: self.wal.is_none(),
                },
            );
        }
        let Some(wal) = &self.wal else {
            return Ok(ReleaseAdmission::Fresh);
        };
        let committed = wal.commit(&spend_record_with(
            tenant,
            charge,
            Some((request_id, session, seeds)),
        ));
        let mut state = lock.lock().expect("tenant shard mutex poisoned");
        match committed {
            Ok(()) => {
                state
                    .releases
                    .get_mut(request_id)
                    .expect("pending entry is only removed by its owner")
                    .journaled = true;
                pending_cv.notify_all();
                Ok(ReleaseAdmission::Fresh)
            }
            Err(e) => {
                // The whole batch failed: keep the debit, drop the
                // journal entry so a retry re-debits (never under-count).
                state.releases.remove(request_id);
                pending_cv.notify_all();
                Err(e)
            }
        }
    }

    /// Stores the completed reply line for a journaled release so later
    /// retries of the same `request_id` replay it verbatim — as another
    /// handle on the same `Arc`, never a copy. A bounded number of
    /// responses are cached per tenant; an evicted one replays as
    /// [`ReleaseAdmission::Replay`]`(None)` (the journal entry itself is
    /// never evicted).
    pub fn record_response(&self, tenant: &str, request_id: &str, response: &Arc<str>) {
        let Ok(shard) = self.shard(tenant) else {
            return;
        };
        let mut state = shard.0.lock().expect("tenant shard mutex poisoned");
        let Some(entry) = state.releases.get_mut(request_id) else {
            return;
        };
        let newly_cached = entry.response.is_none();
        entry.response = Some(Arc::clone(response));
        if newly_cached {
            state.response_order.push_back(request_id.to_string());
        }
        while state.response_order.len() > RESPONSE_CACHE_CAP {
            if let Some(oldest) = state.response_order.pop_front() {
                if let Some(evicted) = state.releases.get_mut(&oldest) {
                    evicted.response = None;
                }
            }
        }
    }

    /// How many distinct `(tenant, request_id)` releases are journaled.
    pub fn journaled_releases(&self) -> usize {
        let tenants = self.tenants.read().expect("tenant map lock poisoned");
        tenants
            .values()
            .map(|shard| {
                let state = shard.0.lock().expect("tenant shard mutex poisoned");
                state.releases.values().filter(|r| r.journaled).count()
            })
            .sum()
    }

    /// The global (dataset-wide) budget position, if a global cap was
    /// configured with [`Accountant::with_global_budget`].
    pub fn global_status(&self) -> Option<BudgetStatus> {
        self.global.as_ref().map(|ledger| {
            let ledger = ledger.lock().expect("global ledger mutex poisoned");
            BudgetStatus {
                total: ledger.total(),
                spent_epsilon: ledger.total().epsilon() - ledger.remaining_epsilon(),
                spent_delta: ledger.total().delta() - ledger.remaining_delta(),
                remaining_epsilon: ledger.remaining_epsilon(),
                remaining_delta: ledger.remaining_delta(),
                charges: ledger.num_charges(),
            }
        })
    }

    /// The tenant's current budget position.
    pub fn status(&self, tenant: &str) -> Result<BudgetStatus, ServiceError> {
        let shard = self.shard(tenant)?;
        let state = shard.0.lock().expect("tenant shard mutex poisoned");
        let spent = state.ledger.spent();
        Ok(BudgetStatus {
            total: state.ledger.total(),
            spent_epsilon: spent.epsilon(),
            spent_delta: spent.delta(),
            remaining_epsilon: state.ledger.remaining_epsilon(),
            remaining_delta: state.ledger.remaining_delta(),
            charges: state.ledger.num_charges(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dp-service-acct-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("ledger.jsonl")
    }

    const EPS1: PrivacyLevel = PrivacyLevel::Pure { epsilon: 1.0 };
    const HALF: PrivacyLevel = PrivacyLevel::Pure { epsilon: 0.5 };

    #[test]
    fn open_is_idempotent_but_never_a_reset() {
        let acct = Accountant::in_memory();
        acct.open_tenant("t", EPS1).unwrap();
        acct.try_debit("t", HALF).unwrap();
        acct.open_tenant("t", EPS1).unwrap();
        // Re-opening must not have reset the spend.
        assert_eq!(acct.status("t").unwrap().spent_epsilon, 0.5);
        assert!(matches!(
            acct.open_tenant("t", HALF),
            Err(ServiceError::TenantBudgetMismatch(_))
        ));
        assert!(matches!(
            acct.try_debit("ghost", HALF),
            Err(ServiceError::UnknownTenant(_))
        ));
    }

    #[test]
    fn exhaustion_is_typed_and_permanent() {
        let acct = Accountant::in_memory();
        acct.open_tenant("t", EPS1).unwrap();
        acct.try_debit("t", HALF).unwrap();
        acct.try_debit("t", HALF).unwrap();
        for _ in 0..2 {
            let err = acct.try_debit("t", HALF).unwrap_err();
            let ServiceError::BudgetExhausted {
                remaining_epsilon, ..
            } = err
            else {
                panic!("expected typed exhaustion, got {err:?}");
            };
            assert_eq!(remaining_epsilon, 0.0);
        }
    }

    #[test]
    fn wal_survives_restart_and_refuses_replay() {
        let path = tmp("restart");
        let _ = std::fs::remove_file(&path);
        {
            let acct = Accountant::with_wal(&path).unwrap();
            acct.open_tenant("t", EPS1).unwrap();
            acct.try_debit("t", HALF).unwrap();
            acct.try_debit("t", HALF).unwrap();
        }
        let acct = Accountant::with_wal(&path).unwrap();
        let status = acct.status("t").unwrap();
        assert_eq!(status.spent_epsilon, 1.0);
        assert_eq!(status.charges, 2);
        assert!(matches!(
            acct.try_debit("t", HALF),
            Err(ServiceError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn concurrent_debits_share_batches_and_stay_exact() {
        let path = tmp("group");
        let _ = std::fs::remove_file(&path);
        let acct = Accountant::with_wal(&path).unwrap();
        const TENANTS: usize = 4;
        const DEBITS: usize = 8;
        for t in 0..TENANTS {
            acct.open_tenant(&format!("t{t}"), PrivacyLevel::Pure { epsilon: 64.0 })
                .unwrap();
        }
        std::thread::scope(|scope| {
            for t in 0..TENANTS {
                let acct = &acct;
                scope.spawn(move || {
                    let tenant = format!("t{t}");
                    for i in 0..DEBITS {
                        let rid = format!("r{i}");
                        assert!(matches!(
                            acct.admit_release(&tenant, &rid, "s", &[i as u64], HALF)
                                .unwrap(),
                            ReleaseAdmission::Fresh
                        ));
                    }
                });
            }
        });
        let stats = acct.wal_stats().unwrap();
        assert_eq!(stats.records as usize, TENANTS + TENANTS * DEBITS);
        assert!(
            stats.batches <= stats.records,
            "batches never exceed records"
        );
        for t in 0..TENANTS {
            let status = acct.status(&format!("t{t}")).unwrap();
            assert_eq!(status.charges, DEBITS);
            assert!((status.spent_epsilon - 0.5 * DEBITS as f64).abs() < 1e-12);
        }
        // Everything acknowledged is durable: a reload sees it all.
        drop(acct);
        let reloaded = Accountant::with_wal(&path).unwrap();
        assert_eq!(reloaded.journaled_releases(), TENANTS * DEBITS);
    }

    #[test]
    fn global_ledger_caps_cumulative_spend_across_tenants() {
        let acct = Accountant::in_memory()
            .with_global_budget(PrivacyLevel::Pure { epsilon: 0.8 })
            .unwrap();
        acct.open_tenant("a", EPS1).unwrap();
        acct.open_tenant("b", EPS1).unwrap();
        acct.try_debit("a", HALF).unwrap();
        // b's own ledger has 1.0 left, but the dataset pool has only 0.3.
        assert!(matches!(
            acct.try_debit("b", HALF),
            Err(ServiceError::BudgetExhausted { .. })
        ));
        // The global refusal left b's tenant ledger untouched.
        assert_eq!(acct.status("b").unwrap().spent_epsilon, 0.0);
        // A smaller charge that fits the pool is still granted, after
        // which the pool (not any tenant ledger) is the binding cap.
        acct.try_debit("b", PrivacyLevel::Pure { epsilon: 0.3 })
            .unwrap();
        let global = acct.global_status().unwrap();
        assert!(global.remaining_epsilon <= 1e-12);
        assert!(matches!(
            acct.try_debit("a", PrivacyLevel::Pure { epsilon: 0.1 }),
            Err(ServiceError::BudgetExhausted { .. })
        ));
        assert!(Accountant::in_memory().global_status().is_none());
    }

    #[test]
    fn global_ledger_replays_persisted_spend_on_reload() {
        let path = tmp("global");
        let _ = std::fs::remove_file(&path);
        {
            let acct = Accountant::with_wal(&path).unwrap();
            acct.open_tenant("t", EPS1).unwrap();
            acct.try_debit("t", HALF).unwrap();
        }
        let acct = Accountant::with_wal(&path)
            .unwrap()
            .with_global_budget(PrivacyLevel::Pure { epsilon: 0.75 })
            .unwrap();
        let global = acct.global_status().unwrap();
        assert!((global.spent_epsilon - 0.5).abs() < 1e-12);
        // Only 0.25 of the pool remains even though the tenant has 0.5.
        assert!(matches!(
            acct.try_debit("t", HALF),
            Err(ServiceError::BudgetExhausted { .. })
        ));
        acct.try_debit("t", PrivacyLevel::Pure { epsilon: 0.25 })
            .unwrap();
        // A persisted history exceeding the cap refuses to construct
        // rather than under-counting the dataset's loss.
        assert!(Accountant::with_wal(&path)
            .unwrap()
            .with_global_budget(HALF)
            .is_err());
    }

    #[test]
    fn torn_tail_is_dropped_but_interior_corruption_is_fatal() {
        let path = tmp("torn");
        let _ = std::fs::remove_file(&path);
        {
            let acct = Accountant::with_wal(&path).unwrap();
            acct.open_tenant("t", EPS1).unwrap();
            acct.try_debit("t", HALF).unwrap();
        }
        // Simulate a crash mid-append: a spend record with no newline.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"op\": \"spend\", \"tenant\": \"t\"").unwrap();
        }
        let acct = Accountant::with_wal(&path).unwrap();
        assert_eq!(acct.status("t").unwrap().spent_epsilon, 0.5);
        // The torn tail was truncated away on disk, and new appends land
        // on a clean line.
        acct.try_debit("t", HALF).unwrap();
        drop(acct);
        let reloaded = Accountant::with_wal(&path).unwrap();
        assert_eq!(reloaded.status("t").unwrap().spent_epsilon, 1.0);

        // A corrupt *interior* record (complete line) must refuse to load.
        let bad = tmp("corrupt");
        std::fs::write(&bad, "{\"op\": \"open\", \"tenant\": \"t\"}\n").unwrap();
        assert!(matches!(
            Accountant::with_wal(&bad),
            Err(ServiceError::WalCorrupt(_))
        ));
    }

    #[test]
    fn release_journal_debits_once_and_replays() {
        let acct = Accountant::in_memory();
        acct.open_tenant("t", EPS1).unwrap();
        let admission = acct.admit_release("t", "r1", "s", &[7, 8], HALF).unwrap();
        assert!(matches!(admission, ReleaseAdmission::Fresh));
        assert_eq!(acct.status("t").unwrap().spent_epsilon, 0.5);

        // Retried before the response was stored: replay, recompute.
        let admission = acct.admit_release("t", "r1", "s", &[7, 8], HALF).unwrap();
        assert!(matches!(admission, ReleaseAdmission::Replay(None)));
        assert_eq!(acct.status("t").unwrap().spent_epsilon, 0.5);

        acct.record_response("t", "r1", &Arc::from("out"));
        let admission = acct.admit_release("t", "r1", "s", &[7, 8], HALF).unwrap();
        let ReleaseAdmission::Replay(Some(cached)) = admission else {
            panic!("expected a cached replay");
        };
        assert_eq!(&*cached, "out");
        assert_eq!(acct.status("t").unwrap().spent_epsilon, 0.5);
        assert_eq!(acct.journaled_releases(), 1);

        // Reusing the id with different parameters is a typed client bug.
        assert!(matches!(
            acct.admit_release("t", "r1", "s", &[9], HALF),
            Err(ServiceError::IdempotencyMismatch { .. })
        ));
        // A different tenant's identical id is an independent release.
        acct.open_tenant("u", EPS1).unwrap();
        assert!(matches!(
            acct.admit_release("u", "r1", "s", &[7, 8], HALF).unwrap(),
            ReleaseAdmission::Fresh
        ));
    }

    #[test]
    fn release_journal_survives_restart() {
        let path = tmp("journal");
        let _ = std::fs::remove_file(&path);
        {
            let acct = Accountant::with_wal(&path).unwrap();
            acct.open_tenant("t", EPS1).unwrap();
            let a = acct
                .admit_release("t", "r1", "s", &[1u64 << 60], HALF)
                .unwrap();
            assert!(matches!(a, ReleaseAdmission::Fresh));
            acct.record_response("t", "r1", &Arc::from("out"));
            // Process dies here; the cached response is volatile but the
            // journaled debit is not.
        }
        let acct = Accountant::with_wal(&path).unwrap();
        assert_eq!(acct.journaled_releases(), 1);
        assert_eq!(acct.status("t").unwrap().spent_epsilon, 0.5);
        // Same id after restart: no second debit, recompute the response
        // (the > 2^53 seed also proves the string wire form round-trips).
        let a = acct
            .admit_release("t", "r1", "s", &[1u64 << 60], HALF)
            .unwrap();
        assert!(matches!(a, ReleaseAdmission::Replay(None)));
        assert_eq!(acct.status("t").unwrap().spent_epsilon, 0.5);
        assert!(matches!(
            acct.admit_release("t", "r1", "s", &[2], HALF),
            Err(ServiceError::IdempotencyMismatch { .. })
        ));
    }

    #[test]
    fn checksums_fail_closed_on_bit_flips_but_accept_legacy_records() {
        let path = tmp("crc");
        let _ = std::fs::remove_file(&path);
        {
            let acct = Accountant::with_wal(&path).unwrap();
            acct.open_tenant("t", EPS1).unwrap();
            acct.try_debit("t", HALF).unwrap();
        }
        // Flip one digit of the spent ε. The record still *parses* fine
        // and would silently under-report spend — the checksum is what
        // catches it.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("0.5"), "expected a 0.5 charge in {text}");
        std::fs::write(&path, text.replacen("0.5", "0.1", 1)).unwrap();
        assert!(matches!(
            Accountant::with_wal(&path),
            Err(ServiceError::WalCorrupt(_))
        ));

        // Records written before checksums existed (no "crc" field) still
        // replay.
        std::fs::write(
            &path,
            "{\"op\": \"open\", \"tenant\": \"t\", \"budget\": {\"epsilon\": 1}}\n\
             {\"op\": \"spend\", \"tenant\": \"t\", \"charge\": {\"epsilon\": 0.5}}\n",
        )
        .unwrap();
        let acct = Accountant::with_wal(&path).unwrap();
        assert_eq!(acct.status("t").unwrap().spent_epsilon, 0.5);
    }

    #[test]
    fn duplicate_journaled_request_id_is_corrupt() {
        let path = tmp("dup");
        let open = render_line(&open_record("t", EPS1));
        let spend = render_line(&spend_record_with(
            "t",
            PrivacyLevel::Pure { epsilon: 0.25 },
            Some(("r1", "s", &[1, 2])),
        ));
        std::fs::write(&path, format!("{open}\n{spend}\n{spend}\n")).unwrap();
        let Err(err) = Accountant::with_wal(&path).map(|_| ()) else {
            panic!("duplicate ids must refuse to load");
        };
        let ServiceError::WalCorrupt(msg) = err else {
            panic!("expected WalCorrupt, got {err:?}");
        };
        assert!(msg.contains("duplicate"), "{msg}");
    }

    #[test]
    fn response_cache_is_bounded_but_the_journal_is_not() {
        let acct = Accountant::in_memory();
        acct.open_tenant("t", PrivacyLevel::Pure { epsilon: 1e9 })
            .unwrap();
        let tiny = PrivacyLevel::Pure { epsilon: 1e-6 };
        let n = RESPONSE_CACHE_CAP + 8;
        for i in 0..n {
            let rid = format!("r{i}");
            acct.admit_release("t", &rid, "s", &[i as u64], tiny)
                .unwrap();
            acct.record_response("t", &rid, &Arc::from(i.to_string()));
        }
        assert_eq!(acct.journaled_releases(), n);
        // The oldest responses were evicted (recompute on replay), but the
        // journal entry — and its no-second-debit guarantee — remains.
        assert!(matches!(
            acct.admit_release("t", "r0", "s", &[0], tiny).unwrap(),
            ReleaseAdmission::Replay(None)
        ));
        // The newest response is still cached.
        let last = format!("r{}", n - 1);
        assert!(matches!(
            acct.admit_release("t", &last, "s", &[(n - 1) as u64], tiny)
                .unwrap(),
            ReleaseAdmission::Replay(Some(_))
        ));
    }

    #[test]
    fn wal_stats_buckets_cover_every_batch_size() {
        let mut stats = WalStats::default();
        for size in [1usize, 2, 3, 4, 8, 16, 32, 64, 100] {
            stats.note(size);
        }
        assert_eq!(stats.batches, 9);
        assert_eq!(stats.records, 230);
        assert_eq!(stats.max_batch, 100);
        assert_eq!(stats.size_hist.iter().sum::<u64>(), stats.records);
        assert!((stats.mean_batch() - 230.0 / 9.0).abs() < 1e-12);
        assert_eq!(WalStats::default().mean_batch(), 0.0);
    }

    #[test]
    fn creating_a_ledger_in_a_fresh_directory_fsyncs_the_parent() {
        // Exercises the parent-directory fsync path taken only on file
        // creation (the durability gap this pins: a synced file whose
        // directory entry was never synced can vanish on crash).
        let dir = std::env::temp_dir().join(format!(
            "dp-service-acct-{}-dirsync/nested",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.jsonl");
        {
            let acct = Accountant::with_wal(&path).unwrap();
            acct.open_tenant("t", EPS1).unwrap();
        }
        // Reopening an existing file takes the no-fsync branch.
        let acct = Accountant::with_wal(&path).unwrap();
        assert_eq!(acct.status("t").unwrap().charges, 0);
    }
}
