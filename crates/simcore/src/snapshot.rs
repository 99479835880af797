//! Suspend/resume snapshots of a running [`crate::Engine`].
//!
//! A [`Snapshot`] captures *everything* the event loop's future trajectory
//! depends on — clock and cached next arrival, arena lanes, SRPT partitions
//! with their compensated sums, policy state, and the metric accumulators — such that `restore → run-to-completion` is **bit-identical**
//! to running the original engine to completion: same completion order, same
//! low-order float bits in every aggregate, same event count. That contract
//! is what lets the fleet layer suspend a tenant at any event boundary,
//! migrate it to another shard (or another process, via the text codec), and
//! resume as if nothing happened.
//!
//! # The `parsched-snap/v3` document
//!
//! Snapshots serialize to a single-line JSON document through the same
//! hand-rolled [`crate::jsonlite`] dialect the trace format uses. Two codec
//! rules make the rendering byte-stable and the round-trip exact:
//!
//! * **Every `f64` is stored as its IEEE-754 bit pattern**, a `u64` decimal
//!   lexeme. Engine state legitimately contains `±∞` (the quantile sketch's
//!   empty-state extrema) and depends on low-order bits that decimal
//!   shortest-round-trip formatting preserves but whose lexemes are not
//!   canonical across writers; bit patterns are.
//! * **Field order is fixed** and rendering is compact, so
//!   `parse → render` is the identity on any document this module emits —
//!   a snapshot can hop between shards through the text form any number of
//!   times without a byte changing.
//!
//! Speed-up curves ride on the compact field syntax from [`crate::csv`]
//! (`pow:<α>`, `pwl:…`), whose `{:?}` float formatting is exact by Rust's
//! shortest-round-trip guarantee.
//!
//! What is deliberately **not** captured: observers (a restored engine gets
//! whatever observer its host wires up; snapshotting requires the null
//! observer's path anyway on the incremental engine), auditors (snapshot
//! requires [`crate::AuditLevel::Off`] — audit state is a debugging aid, not
//! run state), and the per-alive-count allocation memo (a pure function of
//! the policy and `m`; the restored engine re-derives every entry
//! bit-identically on first use).
//!
//! A snapshot taken on the level path (SETF's least-elapsed level stack,
//! see `crate::level_stack`) carries one more member, `levels`, after
//! `srpt`: every level bottom first, each with its heap array verbatim
//! (the array order is run state there: merges accumulate sums in it),
//! its curve tally, offset (its elapsed work) and sums, plus the frozen
//! levels' fractional sum. A snapshot taken on the arrival-suffix path
//! (LAPS, see `crate::arrival_suffix`) carries one more member, `suffix`,
//! in the same place: the waiting stack oldest first, each curve group
//! with its heap array verbatim, offset, sums and interval rate, plus the
//! waiting jobs' fractional sum. Documents of the other two paths have
//! neither member, so they render exactly as before.
//!
//! No reader for older formats is kept: a `parsched-snap/v1` document
//! describes engine mechanisms that no longer exist (an event queue and
//! two configuration knobs), a `parsched-snap/v2` one two SRPT-set volume
//! sums (running and queued remaining work) that are no longer kept, and
//! both are refused with [`crate::SimError::BadInstance`].
//!
//! Restore checks the whole document before it rebuilds anything, so a
//! hostile one is refused with an error rather than decoded into a run
//! that panics later or silently reports a wrong result. The engine
//! checks what it owns: each arena slot against the invariants admission
//! enforces, its scalars against the domain [`crate::Engine::snapshot`]
//! emits them in. Each alive structure checks its own member on every
//! path (the exhaustive lanes and the `srpt` member, which every document
//! carries, must be empty off their paths), each entry against
//! its arena slot through one [`SlotCheck`], and every alive slot must
//! then be held exactly once. The free list may list only retired slots.

use crate::alive_set::IntervalKind;
use crate::arrival_suffix::{GroupSnap, SuffixSnap};
use crate::csv::{curve_from_field, curve_to_field};
use crate::drained::{Drain, DrainedSnap};
use crate::error::SimError;
use crate::invariant::EnginePath;
use crate::job::{JobId, JobSpec, Time};
use crate::jsonlite::Json;
use crate::level_stack::{CurveTag, LevelSnap, LevelsSnap, Tally};
use crate::metrics::CompletedJob;
use crate::srpt_set::{HeapEntrySnap, SetEntrySnap, SetSnap};
use crate::streaming::SinkState;

/// The format tag every document leads with.
pub const SNAP_FORMAT: &str = "parsched-snap/v3";

/// Engine-configuration fingerprint. Restore refuses a config whose
/// semantics differ from the one that produced the snapshot — resuming a
/// `speed = 1.0` snapshot on a `speed = 1.5` engine would be a silently
/// different trajectory, not a resume.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SnapCfg {
    pub(crate) m: f64,
    pub(crate) speed: f64,
    pub(crate) full_reassign: bool,
    pub(crate) streaming: bool,
}

/// One arena slot: the admission spec plus every mutable lane. The `kern`
/// lane is *not* here — kernels are reconstructed from the curve, which is
/// bit-identical because kernel construction is deterministic in α (see
/// the class-registry note on [`Snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SnapJob {
    pub(crate) spec: JobSpec,
    pub(crate) remaining: f64,
    pub(crate) run_key: f64,
    pub(crate) class: u32,
    pub(crate) in_running: bool,
    pub(crate) done: bool,
}

/// What restore checks each alive structure's captured entries against:
/// the snapshot's arena, and which of its slots are held so far. It starts
/// with the completed slots held, so a slot held twice, or after its job
/// completed, is refused, and once every structure is checked,
/// [`SlotCheck::first_unheld`] names an alive slot that none holds.
pub(crate) struct SlotCheck<'a> {
    jobs: &'a [SnapJob],
    held: Vec<bool>,
}

impl<'a> SlotCheck<'a> {
    pub(crate) fn new(jobs: &'a [SnapJob]) -> Self {
        Self {
            jobs,
            held: jobs.iter().map(|j| j.done).collect(),
        }
    }

    /// Marks arena slot `idx` held by `part`; returns the slot's spec.
    pub(crate) fn hold(&mut self, part: &str, idx: usize) -> Result<&'a JobSpec, String> {
        let Some(held) = self.held.get_mut(idx) else {
            return Err(format!(
                "{part} references arena slot {idx} (arena holds {})",
                self.jobs.len()
            ));
        };
        if std::mem::replace(held, true) {
            return Err(format!(
                "{part} holds arena slot {idx} twice or after its job completed"
            ));
        }
        Ok(&self.jobs[idx].spec)
    }

    /// Checks one captured entry of `part`: a finite key, and a slot held
    /// once whose spec it matches bit for bit on `(release, id, size)`,
    /// since the structures break key ties by reading that spec. Returns
    /// the slot's spec.
    pub(crate) fn entry(&mut self, part: &str, e: &HeapEntrySnap) -> Result<&'a JobSpec, String> {
        in_range(part, "key", e.key, false)?;
        let spec = self.hold(part, e.idx)?;
        let field = if e.release.to_bits() != spec.release.to_bits() {
            "release"
        } else if e.id != spec.id {
            "id"
        } else if e.size.to_bits() != spec.size.to_bits() {
            "size"
        } else {
            return Ok(spec);
        };
        Err(format!(
            "{part} entry for arena slot {} disagrees with the slot's spec on {field}",
            e.idx
        ))
    }

    /// The spec in arena slot `idx`, which an entry check has accepted.
    pub(crate) fn spec(&self, idx: usize) -> &'a JobSpec {
        &self.jobs[idx].spec
    }

    /// The first alive arena slot that nothing holds.
    pub(crate) fn first_unheld(&self) -> Option<usize> {
        self.held.iter().position(|&h| !h)
    }
}

/// Refuses a captured scalar `part.name = v` outside the domain the run
/// keeps it in: finite, and also non-negative when `non_negative`.
pub(crate) fn in_range(part: &str, name: &str, v: f64, non_negative: bool) -> Result<(), String> {
    if v.is_finite() && (v >= 0.0 || !non_negative) {
        Ok(())
    } else {
        Err(format!("{part}.{name} = {v} is out of range"))
    }
}

/// A complete engine state at an event boundary. Produce with
/// [`crate::Engine::snapshot`], resume with [`crate::Engine::restore`],
/// and move between processes with [`Snapshot::to_json`] /
/// [`Snapshot::from_json`].
///
/// The Γ class registry is serialized as the α bit patterns in first-seen
/// order rather than replay-rebuilt on restore: under streaming slot
/// recycling the surviving arena slots need not mention every class ever
/// registered, and class ids stored in the `class` lane index this exact
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub(crate) cfg: SnapCfg,
    pub(crate) policy_name: String,
    pub(crate) policy_state: Vec<u64>,
    pub(crate) incremental: bool,
    pub(crate) now: Time,
    pub(crate) events: u64,
    pub(crate) coalesced: u64,
    pub(crate) finished: bool,
    pub(crate) alloc_fresh: bool,
    pub(crate) quantum_deadline: Option<Time>,
    pub(crate) next_completion: Option<Time>,
    pub(crate) next_arrival: Option<Time>,
    pub(crate) profile_count: usize,
    pub(crate) profile_share: f64,
    pub(crate) interval: IntervalKind,
    pub(crate) frac_flow: (f64, f64),
    pub(crate) alive_integral: (f64, f64),
    pub(crate) admitted: usize,
    pub(crate) peak_alive: usize,
    pub(crate) sink: SinkState,
    pub(crate) jobs: Vec<SnapJob>,
    pub(crate) class_alpha_bits: Vec<u64>,
    pub(crate) free: Vec<usize>,
    pub(crate) alive: Vec<usize>,
    pub(crate) shares: Vec<f64>,
    pub(crate) rates: Vec<f64>,
    pub(crate) srpt: SetSnap,
    /// The level stack, present exactly when the run is on the level path.
    pub(crate) levels: Option<LevelsSnap>,
    /// The arrival suffix, present exactly when the run is on the
    /// arrival-suffix path.
    pub(crate) suffix: Option<SuffixSnap>,
    pub(crate) completed: Vec<CompletedJob>,
}

impl Snapshot {
    /// Simulation clock at the suspend point.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Events processed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Whether the run had already finished when captured.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Total jobs admitted from the source so far.
    pub fn admitted(&self) -> usize {
        self.admitted
    }

    /// Jobs completed so far.
    pub fn completed_count(&self) -> u64 {
        self.sink.count
    }

    /// Unfinished released jobs at the suspend point.
    pub fn alive_count(&self) -> usize {
        if let Some(levels) = &self.levels {
            levels
                .levels
                .iter()
                .map(|l| l.members.entries.len())
                .sum::<usize>()
        } else if let Some(suffix) = &self.suffix {
            suffix.entries().count()
        } else if self.incremental {
            self.srpt.len()
        } else {
            self.alive.len()
        }
    }

    /// The execution path the document was captured on: the one whose
    /// alive structure it carries, `None` when it claims more than one.
    pub(crate) fn path(&self) -> Option<EnginePath> {
        match (
            self.levels.is_some(),
            self.suffix.is_some(),
            self.incremental,
        ) {
            (true, false, false) => Some(EnginePath::Levels),
            (false, true, false) => Some(EnginePath::ArrivalSuffix),
            (false, false, true) => Some(EnginePath::Incremental),
            (false, false, false) => Some(EnginePath::Exhaustive),
            _ => None,
        }
    }

    /// Total flow time accumulated over completions so far (the running
    /// value of the compensated sum — what `total_flow` will report if no
    /// further job completes).
    pub fn total_flow_so_far(&self) -> f64 {
        self.sink.total_flow.0 + self.sink.total_flow.1
    }

    /// Completion time of `id`, if it had already completed at the
    /// suspend point. Streaming captures retain no completion records, so
    /// this is always `None` for streaming snapshots — callers that need
    /// per-job completions under streaming must watch the live run (e.g.
    /// via [`crate::Observer::on_completion`]).
    pub fn completion_of(&self, id: JobId) -> Option<Time> {
        self.completed
            .iter()
            .find(|c| c.id == id)
            .map(|c| c.completion)
    }

    /// Name of the policy that was driving the run.
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// Whether the captured engine ran in memory-bounded streaming mode.
    pub fn streaming(&self) -> bool {
        self.cfg.streaming
    }

    /// Renders the `parsched-snap/v3` document (compact single line).
    /// `from_json(to_json(s)) == s` exactly, and `to_json` of the parsed
    /// snapshot reproduces the document byte-for-byte.
    pub fn to_json(&self) -> String {
        self.to_value().render()
    }

    /// Parses a `parsched-snap/v3` document. Documents of any other
    /// format, v1 and v2 included, are refused.
    pub fn from_json(text: &str) -> Result<Snapshot, SimError> {
        let doc = Json::parse(text).map_err(|e| bad(format!("unparseable document: {e}")))?;
        Self::from_value(&doc)
    }

    fn to_value(&self) -> Json {
        let cfg = obj(vec![
            ("m", fbits(self.cfg.m)),
            ("speed", fbits(self.cfg.speed)),
            ("full_reassign", Json::Bool(self.cfg.full_reassign)),
            ("streaming", Json::Bool(self.cfg.streaming)),
        ]);
        let policy = obj(vec![
            ("name", Json::Str(self.policy_name.clone())),
            (
                "state",
                Json::Arr(self.policy_state.iter().map(|&w| unum(w)).collect()),
            ),
        ]);
        let clock = obj(vec![
            ("now", fbits(self.now)),
            ("events", unum(self.events)),
            ("coalesced", unum(self.coalesced)),
            ("finished", Json::Bool(self.finished)),
            ("alloc_fresh", Json::Bool(self.alloc_fresh)),
            ("quantum_deadline", opt_fbits(self.quantum_deadline)),
            ("next_completion", opt_fbits(self.next_completion)),
            ("next_arrival", opt_fbits(self.next_arrival)),
        ]);
        let interval = match self.interval {
            IntervalKind::Idle => obj(vec![("kind", Json::Str("idle".into()))]),
            IntervalKind::Uniform { rate } => obj(vec![
                ("kind", Json::Str("uniform".into())),
                ("rate", fbits(rate)),
            ]),
            IntervalKind::Scan => obj(vec![("kind", Json::Str("scan".into()))]),
        };
        let accum = obj(vec![
            ("frac_flow", pair(self.frac_flow)),
            ("alive_integral", pair(self.alive_integral)),
            ("admitted", unum(self.admitted as u64)),
            ("peak_alive", unum(self.peak_alive as u64)),
        ]);
        let sink = obj(vec![
            ("count", unum(self.sink.count)),
            ("total_flow", pair(self.sink.total_flow)),
            ("max_flow", fbits(self.sink.max_flow)),
            ("total_stretch", pair(self.sink.total_stretch)),
            ("max_stretch", fbits(self.sink.max_stretch)),
            ("total_weighted_flow", pair(self.sink.total_weighted_flow)),
            ("makespan", fbits(self.sink.makespan)),
            (
                "sketch_counts",
                Json::Arr(self.sink.sketch_counts.iter().map(|&c| unum(c)).collect()),
            ),
            ("sketch_total", unum(self.sink.sketch_total)),
            ("sketch_min", fbits(self.sink.sketch_min)),
            ("sketch_max", fbits(self.sink.sketch_max)),
        ]);
        let jobs = Json::Arr(
            self.jobs
                .iter()
                .map(|j| {
                    Json::Arr(vec![
                        unum(j.spec.id.0),
                        fbits(j.spec.release),
                        fbits(j.spec.size),
                        fbits(j.spec.weight),
                        Json::Str(curve_to_field(&j.spec.curve)),
                        fbits(j.remaining),
                        fbits(j.run_key),
                        unum(u64::from(j.class)),
                        Json::Bool(j.in_running),
                        Json::Bool(j.done),
                    ])
                })
                .collect(),
        );
        let arena = obj(vec![
            ("jobs", jobs),
            (
                "classes",
                Json::Arr(self.class_alpha_bits.iter().map(|&b| unum(b)).collect()),
            ),
            (
                "free",
                Json::Arr(self.free.iter().map(|&i| unum(i as u64)).collect()),
            ),
        ]);
        let exhaustive = obj(vec![
            (
                "alive",
                Json::Arr(self.alive.iter().map(|&i| unum(i as u64)).collect()),
            ),
            (
                "shares",
                Json::Arr(self.shares.iter().map(|&s| fbits(s)).collect()),
            ),
            (
                "rates",
                Json::Arr(self.rates.iter().map(|&r| fbits(r)).collect()),
            ),
        ]);
        let set_entry = |e: &SetEntrySnap| {
            let mut row = entry_fields(&e.entry);
            row.extend([Json::Bool(e.hetero), Json::Bool(e.nonunit)]);
            Json::Arr(row)
        };
        let mut srpt = vec![
            (
                "running",
                Json::Arr(self.srpt.running.iter().map(set_entry).collect()),
            ),
            (
                "queued",
                Json::Arr(self.srpt.queued.iter().map(set_entry).collect()),
            ),
        ];
        srpt.extend(drain_fields(&self.srpt.prefix));
        srpt.extend([
            ("q_frac", fbits(self.srpt.q_frac)),
            (
                "reference",
                match &self.srpt.reference {
                    None => Json::Null,
                    Some(c) => Json::Str(curve_to_field(c)),
                },
            ),
        ]);
        let srpt = obj(srpt);
        let completed = Json::Arr(
            self.completed
                .iter()
                .map(|c| {
                    Json::Arr(vec![
                        unum(c.id.0),
                        fbits(c.release),
                        fbits(c.size),
                        fbits(c.completion),
                        fbits(c.weight),
                    ])
                })
                .collect(),
        );
        let mut fields = vec![
            ("format", Json::Str(SNAP_FORMAT.into())),
            ("cfg", cfg),
            ("policy", policy),
            ("incremental", Json::Bool(self.incremental)),
            ("clock", clock),
            (
                "profile",
                obj(vec![
                    ("count", unum(self.profile_count as u64)),
                    ("share", fbits(self.profile_share)),
                ]),
            ),
            ("interval", interval),
            ("accum", accum),
            ("sink", sink),
            ("arena", arena),
            ("exhaustive", exhaustive),
            ("srpt", srpt),
        ];
        if let Some(levels) = &self.levels {
            fields.push(("levels", levels_to_value(levels)));
        }
        if let Some(suffix) = &self.suffix {
            fields.push(("suffix", suffix_to_value(suffix)));
        }
        fields.push(("completed", completed));
        obj(fields)
    }

    fn from_value(doc: &Json) -> Result<Snapshot, SimError> {
        let format = str_at(doc, "format")?;
        if format != SNAP_FORMAT {
            return Err(bad(format!(
                "unsupported snapshot format '{format}' (expected '{SNAP_FORMAT}')"
            )));
        }
        let cfg_v = field(doc, "cfg")?;
        let cfg = SnapCfg {
            m: f_at(cfg_v, "m")?,
            speed: f_at(cfg_v, "speed")?,
            full_reassign: bool_at(cfg_v, "full_reassign")?,
            streaming: bool_at(cfg_v, "streaming")?,
        };
        let policy_v = field(doc, "policy")?;
        let policy_name = str_at(policy_v, "name")?.to_string();
        let policy_state = arr_at(policy_v, "state")?
            .iter()
            .map(|v| v.as_u64().map_err(|e| bad(format!("policy state: {e}"))))
            .collect::<Result<Vec<u64>, SimError>>()?;
        let clock = field(doc, "clock")?;
        let profile = field(doc, "profile")?;
        let interval_v = field(doc, "interval")?;
        let interval = match str_at(interval_v, "kind")? {
            "idle" => IntervalKind::Idle,
            "uniform" => IntervalKind::Uniform {
                rate: f_at(interval_v, "rate")?,
            },
            "scan" => IntervalKind::Scan,
            other => return Err(bad(format!("unknown interval kind '{other}'"))),
        };
        let accum = field(doc, "accum")?;
        let sink_v = field(doc, "sink")?;
        let sink = SinkState {
            count: u_at(sink_v, "count")?,
            total_flow: pair_at(sink_v, "total_flow")?,
            max_flow: f_at(sink_v, "max_flow")?,
            total_stretch: pair_at(sink_v, "total_stretch")?,
            max_stretch: f_at(sink_v, "max_stretch")?,
            total_weighted_flow: pair_at(sink_v, "total_weighted_flow")?,
            makespan: f_at(sink_v, "makespan")?,
            sketch_counts: arr_at(sink_v, "sketch_counts")?
                .iter()
                .map(|v| v.as_u64().map_err(|e| bad(format!("sketch counts: {e}"))))
                .collect::<Result<Vec<u64>, SimError>>()?,
            sketch_total: u_at(sink_v, "sketch_total")?,
            sketch_min: f_at(sink_v, "sketch_min")?,
            sketch_max: f_at(sink_v, "sketch_max")?,
        };
        let arena = field(doc, "arena")?;
        let jobs = rows_at(arena, "jobs", "arena job", 10, |row| {
            let class64 = row[7]
                .as_u64()
                .map_err(|e| bad(format!("arena class: {e}")))?;
            let class = u32::try_from(class64)
                .map_err(|_| bad(format!("arena class {class64} out of u32 range")))?;
            Ok(SnapJob {
                spec: JobSpec {
                    id: JobId(row[0].as_u64().map_err(|e| bad(format!("job id: {e}")))?),
                    release: f_item(&row[1], "release")?,
                    size: f_item(&row[2], "size")?,
                    weight: f_item(&row[3], "weight")?,
                    curve: curve_from_field(
                        row[4].as_str().map_err(|e| bad(format!("curve: {e}")))?,
                    )?,
                },
                remaining: f_item(&row[5], "remaining")?,
                run_key: f_item(&row[6], "run_key")?,
                class,
                in_running: bool_item(&row[8], "in_running")?,
                done: bool_item(&row[9], "done")?,
            })
        })?;
        let class_alpha_bits = arr_at(arena, "classes")?
            .iter()
            .map(|v| v.as_u64().map_err(|e| bad(format!("class bits: {e}"))))
            .collect::<Result<Vec<u64>, SimError>>()?;
        let free = usize_arr_at(arena, "free")?;
        let exhaustive = field(doc, "exhaustive")?;
        let alive = usize_arr_at(exhaustive, "alive")?;
        let shares = f_arr_at(exhaustive, "shares")?;
        let rates = f_arr_at(exhaustive, "rates")?;
        let srpt_v = field(doc, "srpt")?;
        let set_entries = |key: &str| {
            rows_at(srpt_v, key, "srpt", 7, |row| {
                Ok(SetEntrySnap {
                    entry: entry_from_row(row, "srpt")?,
                    hetero: bool_item(&row[5], "srpt hetero")?,
                    nonunit: bool_item(&row[6], "srpt nonunit")?,
                })
            })
        };
        let srpt = SetSnap {
            running: set_entries("running")?,
            queued: set_entries("queued")?,
            prefix: drain_at(srpt_v)?,
            q_frac: f_at(srpt_v, "q_frac")?,
            reference: match srpt_v.req("reference").map_err(bad)? {
                Json::Null => None,
                v => Some(curve_from_field(
                    v.as_str()
                        .map_err(|e| bad(format!("srpt reference: {e}")))?,
                )?),
            },
        };
        let levels = doc.get("levels").map(levels_from_value).transpose()?;
        let suffix = doc.get("suffix").map(suffix_from_value).transpose()?;
        let completed = rows_at(doc, "completed", "completed", 5, |row| {
            Ok(CompletedJob {
                id: JobId(
                    row[0]
                        .as_u64()
                        .map_err(|e| bad(format!("completed id: {e}")))?,
                ),
                release: f_item(&row[1], "completed release")?,
                size: f_item(&row[2], "completed size")?,
                completion: f_item(&row[3], "completion")?,
                weight: f_item(&row[4], "completed weight")?,
            })
        })?;
        Ok(Snapshot {
            cfg,
            policy_name,
            policy_state,
            incremental: bool_at(doc, "incremental")?,
            now: f_at(clock, "now")?,
            events: u_at(clock, "events")?,
            coalesced: u_at(clock, "coalesced")?,
            finished: bool_at(clock, "finished")?,
            alloc_fresh: bool_at(clock, "alloc_fresh")?,
            quantum_deadline: opt_f_at(clock, "quantum_deadline")?,
            next_completion: opt_f_at(clock, "next_completion")?,
            next_arrival: opt_f_at(clock, "next_arrival")?,
            profile_count: u_at(profile, "count")? as usize,
            profile_share: f_at(profile, "share")?,
            interval,
            frac_flow: pair_at(accum, "frac_flow")?,
            alive_integral: pair_at(accum, "alive_integral")?,
            admitted: u_at(accum, "admitted")? as usize,
            peak_alive: u_at(accum, "peak_alive")? as usize,
            sink,
            jobs,
            class_alpha_bits,
            free,
            alive,
            shares,
            rates,
            srpt,
            levels,
            suffix,
            completed,
        })
    }
}

/// An object from its fields, in order.
fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A drain offset and its sums as the fields `"drain", "s1", "sk"`.
fn drain_fields(d: &Drain) -> [(&'static str, Json); 3] {
    [
        ("drain", fbits(d.offset)),
        ("s1", fbits(d.s1)),
        ("sk", fbits(d.sk)),
    ]
}

/// Parses what [`drain_fields`] renders.
fn drain_at(v: &Json) -> Result<Drain, SimError> {
    Ok(Drain {
        offset: f_at(v, "drain")?,
        s1: f_at(v, "s1")?,
        sk: f_at(v, "sk")?,
    })
}

/// A drained group's fields: `"entries": [entry…]`, each entry as
/// [`entry_to_value`] renders it, then [`drain_fields`].
fn group_fields(g: &DrainedSnap) -> Vec<(&'static str, Json)> {
    let mut fields = vec![(
        "entries",
        Json::Arr(g.entries.iter().map(entry_to_value).collect()),
    )];
    fields.extend(drain_fields(&g.drain));
    fields
}

/// Parses what [`group_fields`] renders; `what` names the structure in
/// errors.
fn group_at(v: &Json, what: &str) -> Result<DrainedSnap, SimError> {
    Ok(DrainedSnap {
        entries: entries_at(v, "entries", what)?,
        drain: drain_at(v)?,
    })
}

/// Renders the level stack: `{"levels": [level…], "frozen": bits}`, each
/// level its [`group_fields`] with `"tally": [[curve or slot, count]…]`
/// after its entries. A tally entry's first element is the curve's field
/// string for a shared curve and the member's arena slot for a piecewise
/// one.
fn levels_to_value(snap: &LevelsSnap) -> Json {
    let level = |l: &LevelSnap| {
        let mut fields = group_fields(&l.members);
        let tally = l
            .tally
            .iter()
            .map(|t| {
                let tag = match &t.tag {
                    CurveTag::Shared(c) => Json::Str(curve_to_field(c)),
                    CurveTag::Own(slot) => unum(u64::from(*slot)),
                };
                Json::Arr(vec![tag, unum(u64::from(t.count))])
            })
            .collect();
        fields.insert(1, ("tally", Json::Arr(tally)));
        obj(fields)
    };
    obj(vec![
        ("levels", Json::Arr(snap.levels.iter().map(level).collect())),
        ("frozen", fbits(snap.frozen)),
    ])
}

/// Parses what [`levels_to_value`] renders.
fn levels_from_value(v: &Json) -> Result<LevelsSnap, SimError> {
    let u32_item = |v: &Json, what: &str| -> Result<u32, SimError> {
        let x = v.as_u64().map_err(|e| bad(format!("{what}: {e}")))?;
        u32::try_from(x).map_err(|_| bad(format!("{what} {x} out of u32 range")))
    };
    let level = |l: &Json| -> Result<LevelSnap, SimError> {
        let members = group_at(l, "level")?;
        let tally = rows_at(l, "tally", "level tally", 2, |row| {
            let tag = match &row[0] {
                Json::Str(field) => CurveTag::Shared(curve_from_field(field)?),
                other => CurveTag::Own(u32_item(other, "level tally slot")?),
            };
            let count = u32_item(&row[1], "level tally count")?;
            if count == 0 {
                return Err(bad("level tally entry counts no member".into()));
            }
            Ok(Tally { tag, count })
        })?;
        let count = members.entries.len();
        let counted = tally.iter().map(|t| u64::from(t.count)).sum::<u64>();
        if counted != count as u64 {
            return Err(bad(format!(
                "level tally counts {counted} members, level holds {count}"
            )));
        }
        if count == 0 {
            return Err(bad("level holds no member".into()));
        }
        Ok(LevelSnap { members, tally })
    };
    Ok(LevelsSnap {
        levels: arr_at(v, "levels")?
            .iter()
            .map(level)
            .collect::<Result<Vec<_>, SimError>>()?,
        frozen: f_at(v, "frozen")?,
    })
}

/// One captured entry's fields: `[key, release, id, idx, size]`.
fn entry_fields(e: &HeapEntrySnap) -> Vec<Json> {
    vec![
        fbits(e.key),
        fbits(e.release),
        unum(e.id.0),
        unum(e.idx as u64),
        fbits(e.size),
    ]
}

/// Renders one verbatim heap entry as its [`entry_fields`].
fn entry_to_value(e: &HeapEntrySnap) -> Json {
    Json::Arr(entry_fields(e))
}

/// Parses an entry from the first five fields of `row`, laid out as
/// [`entry_fields`] renders them; `what` names the structure in errors.
fn entry_from_row(row: &[Json], what: &str) -> Result<HeapEntrySnap, SimError> {
    Ok(HeapEntrySnap {
        key: f_item(&row[0], &format!("{what} key"))?,
        release: f_item(&row[1], &format!("{what} release"))?,
        id: JobId(
            row[2]
                .as_u64()
                .map_err(|e| bad(format!("{what} id: {e}")))?,
        ),
        idx: row[3]
            .as_usize()
            .map_err(|e| bad(format!("{what} idx: {e}")))?,
        size: f_item(&row[4], &format!("{what} size"))?,
    })
}

/// Parses the array at `key` whose every row is `width` fields long,
/// each with `parse`; `what` names the rows in errors.
fn rows_at<T>(
    v: &Json,
    key: &str,
    what: &str,
    width: usize,
    parse: impl Fn(&[Json]) -> Result<T, SimError>,
) -> Result<Vec<T>, SimError> {
    arr_at(v, key)?
        .iter()
        .map(|row| {
            let row = row
                .as_arr()
                .map_err(|e| bad(format!("{what} entry: {e}")))?;
            if row.len() != width {
                return Err(bad(format!(
                    "{what} entry has {} fields (expected {width})",
                    row.len()
                )));
            }
            parse(row)
        })
        .collect()
}

/// Parses the array of [`entry_to_value`] rows at `key`; `what` names the
/// structure in errors.
fn entries_at(v: &Json, key: &str, what: &str) -> Result<Vec<HeapEntrySnap>, SimError> {
    rows_at(v, key, what, 5, |row| entry_from_row(row, what))
}

/// Renders the arrival suffix: `{"waiting": [entry…], "groups": [group…],
/// "waiting_frac": bits}`, each group its [`group_fields`] and `"rate"`,
/// and each waiting entry as [`entry_to_value`] renders it (its key is
/// the job's remaining work).
fn suffix_to_value(snap: &SuffixSnap) -> Json {
    let group = |g: &GroupSnap| {
        let mut fields = group_fields(&g.members);
        fields.push(("rate", fbits(g.rate)));
        obj(fields)
    };
    obj(vec![
        (
            "waiting",
            Json::Arr(snap.waiting.iter().map(entry_to_value).collect()),
        ),
        ("groups", Json::Arr(snap.groups.iter().map(group).collect())),
        ("waiting_frac", fbits(snap.waiting_frac)),
    ])
}

/// Parses what [`suffix_to_value`] renders.
fn suffix_from_value(v: &Json) -> Result<SuffixSnap, SimError> {
    let group = |g: &Json| -> Result<GroupSnap, SimError> {
        Ok(GroupSnap {
            members: group_at(g, "suffix group")?,
            rate: f_at(g, "rate")?,
        })
    };
    Ok(SuffixSnap {
        waiting: entries_at(v, "waiting", "suffix waiting")?,
        groups: arr_at(v, "groups")?
            .iter()
            .map(group)
            .collect::<Result<Vec<_>, SimError>>()?,
        waiting_frac: f_at(v, "waiting_frac")?,
    })
}

fn bad(what: String) -> SimError {
    SimError::BadInstance {
        what: format!("snapshot: {what}"),
    }
}

/// An `f64` as its bit pattern, the codec's canonical float encoding.
fn fbits(x: f64) -> Json {
    Json::Num(x.to_bits().to_string())
}

fn unum(x: u64) -> Json {
    Json::Num(x.to_string())
}

fn opt_fbits(x: Option<f64>) -> Json {
    match x {
        None => Json::Null,
        Some(v) => fbits(v),
    }
}

fn pair(p: (f64, f64)) -> Json {
    Json::Arr(vec![fbits(p.0), fbits(p.1)])
}

fn field<'a>(v: &'a Json, key: &str) -> Result<&'a Json, SimError> {
    v.req(key).map_err(bad)
}

fn f_item(v: &Json, what: &str) -> Result<f64, SimError> {
    v.as_u64()
        .map(f64::from_bits)
        .map_err(|e| bad(format!("{what}: {e}")))
}

fn bool_item(v: &Json, what: &str) -> Result<bool, SimError> {
    match v {
        Json::Bool(b) => Ok(*b),
        other => Err(bad(format!("{what}: expected bool, got {other:?}"))),
    }
}

fn f_at(v: &Json, key: &str) -> Result<f64, SimError> {
    f_item(field(v, key)?, key)
}

fn opt_f_at(v: &Json, key: &str) -> Result<Option<f64>, SimError> {
    match field(v, key)? {
        Json::Null => Ok(None),
        other => f_item(other, key).map(Some),
    }
}

fn u_at(v: &Json, key: &str) -> Result<u64, SimError> {
    field(v, key)?
        .as_u64()
        .map_err(|e| bad(format!("{key}: {e}")))
}

fn bool_at(v: &Json, key: &str) -> Result<bool, SimError> {
    bool_item(field(v, key)?, key)
}

fn str_at<'a>(v: &'a Json, key: &str) -> Result<&'a str, SimError> {
    field(v, key)?
        .as_str()
        .map_err(|e| bad(format!("{key}: {e}")))
}

fn arr_at<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], SimError> {
    field(v, key)?
        .as_arr()
        .map_err(|e| bad(format!("{key}: {e}")))
}

fn pair_at(v: &Json, key: &str) -> Result<(f64, f64), SimError> {
    let a = arr_at(v, key)?;
    if a.len() != 2 {
        return Err(bad(format!("{key}: expected 2-element pair")));
    }
    Ok((f_item(&a[0], key)?, f_item(&a[1], key)?))
}

fn usize_arr_at(v: &Json, key: &str) -> Result<Vec<usize>, SimError> {
    arr_at(v, key)?
        .iter()
        .map(|x| x.as_usize().map_err(|e| bad(format!("{key}: {e}"))))
        .collect()
}

fn f_arr_at(v: &Json, key: &str) -> Result<Vec<f64>, SimError> {
    arr_at(v, key)?.iter().map(|x| f_item(x, key)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, EngineConfig, EquiSplit, Instance, StaticSource};
    use parsched_speedup::Curve;

    fn snap_of_run(steps: usize) -> Snapshot {
        let inst = Instance::new(vec![
            JobSpec::new(JobId(0), 0.0, 4.0, Curve::power(0.5)),
            JobSpec::new(JobId(1), 1.0, 2.0, Curve::power(0.5)),
            JobSpec::new(JobId(2), 2.0, 1.0, Curve::Sequential),
        ])
        .unwrap();
        let mut policy = EquiSplit::new();
        let mut source = StaticSource::new(&inst);
        let mut obs = crate::NullObserver;
        let mut eng = Engine::new(EngineConfig::new(4.0), &mut policy, &mut source, &mut obs);
        for _ in 0..steps {
            eng.step().unwrap();
        }
        eng.snapshot().unwrap()
    }

    #[test]
    fn json_round_trip_is_exact_and_byte_stable() {
        for steps in [0, 1, 3] {
            let snap = snap_of_run(steps);
            let text = snap.to_json();
            let back = Snapshot::from_json(&text).unwrap();
            assert_eq!(back, snap, "round-trip at {steps} steps");
            assert_eq!(back.to_json(), text, "byte stability at {steps} steps");
        }
    }

    #[test]
    fn rejects_foreign_formats_and_garbage() {
        assert!(Snapshot::from_json("{}").is_err());
        assert!(Snapshot::from_json("not json").is_err());
        let mut doc = snap_of_run(1).to_json();
        doc = doc.replace(SNAP_FORMAT, "parsched-snap/v999");
        assert!(Snapshot::from_json(&doc).is_err());
    }

    #[test]
    fn accessors_reflect_run_position() {
        let snap = snap_of_run(2);
        assert_eq!(snap.events(), 2);
        assert_eq!(snap.policy_name(), "EQUI");
        assert!(!snap.is_finished());
        assert!(snap.admitted() >= 1);
        assert_eq!(
            snap.alive_count() + snap.completed_count() as usize,
            snap.admitted()
        );
    }
}
