//! Resumable on-disk campaign artifact store.
//!
//! A campaign run with `--out <dir>` persists its results as they are
//! produced:
//!
//! ```text
//! <dir>/manifest.json         # version, completion flag, config fingerprint
//! <dir>/point-0000.jsonl      # one line per instance of experiment point 0
//! <dir>/point-0001.jsonl      # … written atomically when the point completes
//! <dir>/manifest.part-I.json  # worker shard I's completion record (transient:
//!                             # written under --worker-shard I/N, consumed —
//!                             # and deleted — by the coordinator's merge)
//! ```
//!
//! Each shard holds the instances of one experiment point in **canonical
//! order** (scenario-major, then trial, then heuristic — the same order the
//! executor emits), so shard bytes are independent of thread count and
//! completion order. Shards are written to a temporary file and renamed into
//! place, making every shard either absent, complete, or (after a crash mid
//! `write(2)`) truncated — never interleaved.
//!
//! `--resume` reads the shards back, skips every instance already present and
//! re-runs only the missing ones. A truncated trailing line (the signature of
//! a killed campaign) is detected by the line decoder and simply dropped:
//! those instances re-run. Because [`InstanceResult`] is all integers and
//! strings, the JSON encoding round-trips **exactly**, so a resumed
//! campaign finishes with byte-identical results to an uninterrupted one.

use crate::campaign::InstanceResult;
use crate::json::{List, Obj, Opt, Record, Str, Value};
use dg_platform::ScenarioParams;
use dg_sim::{SimOutcome, SimStats};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Name of the manifest file inside a store directory.
pub const MANIFEST_NAME: &str = "manifest.json";

/// Store format version (bumped on any incompatible layout change).
pub const STORE_VERSION: u32 = 1;

/// Prefix shared by every part manifest (`manifest.part-<I>.json`); stale-file
/// cleanup and the merge step match on it.
pub(crate) const PART_MANIFEST_PREFIX: &str = "manifest.part-";

/// Shard file name of experiment point `point_index`.
pub fn shard_name(point_index: usize) -> String {
    format!("point-{point_index:04}.jsonl")
}

/// Part-manifest file name of worker shard `part` (1-based).
pub fn part_manifest_name(part: usize) -> String {
    format!("{PART_MANIFEST_PREFIX}{part}.json")
}

/// A record of one finished instance, optionally tagged with the scenario
/// suite it was generated under (`None` for the default `paper` suite, whose
/// records stay byte-identical to the pre-suite format) and with an
/// availability model name (the sensitivity experiment stores `markov` and
/// `semi` runs in the same shard).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredInstance {
    /// Index of the experiment point within the campaign's point list.
    pub point_index: usize,
    /// Suite tag (`None` for the `paper` suite).
    pub suite: Option<String>,
    /// Availability-model tag (`None` for plain campaigns).
    pub model: Option<String>,
    /// The instance itself.
    pub result: InstanceResult,
}

/// Encode one instance as a single JSONL line (no trailing newline).
///
/// The key order is fixed, every quantity is an integer or an escaped
/// string, and failed makespans encode as `null` — so encoding is
/// deterministic and decoding reproduces the instance exactly.
pub fn encode_instance(
    point_index: usize,
    suite: Option<&str>,
    model: Option<&str>,
    r: &InstanceResult,
) -> String {
    let (p, o, st) = (&r.params, &r.outcome, &r.outcome.stats);
    Obj::new()
        .field("point", point_index)
        .some("suite", suite.map(Str))
        .some("model", model.map(Str))
        .field("workers", p.num_workers)
        .field("m", p.tasks_per_iteration)
        .field("ncom", p.ncom)
        .field("wmin", p.wmin)
        .field("iterations", p.iterations)
        .field("scenario", r.scenario_index)
        .field("trial", r.trial_index)
        .field("heuristic", Str(&r.heuristic))
        .field("completed", o.completed_iterations)
        .field("target", o.target_iterations)
        .field("makespan", Opt(o.makespan))
        .field("simulated", o.simulated_slots)
        .field("configs", st.configurations_selected)
        .field("proactive", st.proactive_changes)
        .field("aborted", st.iterations_aborted)
        .field("transfer", st.transfer_slots)
        .field("compute", st.computation_slots)
        .field("stalled", st.stalled_slots)
        .field("idle", st.idle_slots)
        .end()
}

/// Decode a line produced by [`encode_instance`]. Any malformed input —
/// including the truncated trailing line of a killed campaign — is an `Err`.
pub fn decode_instance(line: &str) -> Result<StoredInstance, String> {
    let mut fields = Record::new(line)?;
    // Struct fields are evaluated in the order written: the record's order.
    let stored = StoredInstance {
        point_index: fields.take("point", Value::num)?,
        suite: fields.optional_string("suite")?,
        model: fields.optional_string("model")?,
        result: InstanceResult {
            params: ScenarioParams {
                num_workers: fields.take("workers", Value::num)?,
                tasks_per_iteration: fields.take("m", Value::num)?,
                ncom: fields.take("ncom", Value::num)?,
                wmin: fields.take("wmin", Value::num)?,
                iterations: fields.take("iterations", Value::num)?,
            },
            scenario_index: fields.take("scenario", Value::num)?,
            trial_index: fields.take("trial", Value::num)?,
            heuristic: fields.take("heuristic", Value::string)?,
            outcome: SimOutcome {
                completed_iterations: fields.take("completed", Value::num)?,
                target_iterations: fields.take("target", Value::num)?,
                makespan: fields.take("makespan", Value::nullable)?,
                simulated_slots: fields.take("simulated", Value::num)?,
                stats: SimStats {
                    configurations_selected: fields.take("configs", Value::num)?,
                    proactive_changes: fields.take("proactive", Value::num)?,
                    iterations_aborted: fields.take("aborted", Value::num)?,
                    transfer_slots: fields.take("transfer", Value::num)?,
                    computation_slots: fields.take("compute", Value::num)?,
                    stalled_slots: fields.take("stalled", Value::num)?,
                    idle_slots: fields.take("idle", Value::num)?,
                },
            },
        },
    };
    fields.finish()?;
    Ok(stored)
}

/// A campaign store rooted at a directory, identified by a configuration
/// fingerprint (a canonical JSON encoding of everything that determines the
/// campaign's results — thread count excluded, since results are
/// thread-count-independent).
#[derive(Debug)]
pub struct CampaignStore {
    dir: PathBuf,
    fingerprint: String,
}

impl CampaignStore {
    /// Open a store directory for writing.
    ///
    /// * `resume = false` — start fresh: create the directory, write an
    ///   incomplete manifest and delete any stale `point-*.jsonl` shards
    ///   (including `.tmp` leftovers of a crash mid-write).
    /// * `resume = true` — the directory must contain a manifest whose
    ///   fingerprint matches `fingerprint`; existing shards are kept and can
    ///   be read back with [`CampaignStore::load`].
    pub fn open(dir: &Path, fingerprint: String, resume: bool) -> Result<CampaignStore, String> {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let store = CampaignStore { dir: dir.to_path_buf(), fingerprint };
        let manifest_path = store.dir.join(MANIFEST_NAME);
        if resume {
            let text = fs::read_to_string(&manifest_path)
                .map_err(|e| format!("--resume: cannot read {}: {e}", manifest_path.display()))?;
            let (_, found) = parse_manifest(&text)?;
            if found != store.fingerprint {
                return Err(format!(
                    "--resume: {} was produced by a different configuration; \
                     re-run with the same flags or drop --resume",
                    store.dir.display()
                ));
            }
        } else {
            for stale in store.files_matching(|name| {
                (name.starts_with("point-")
                    && (name.ends_with(".jsonl") || name.ends_with(".jsonl.tmp")))
                    || name.starts_with(PART_MANIFEST_PREFIX)
            })? {
                fs::remove_file(&stale)
                    .map_err(|e| format!("cannot remove stale shard {}: {e}", stale.display()))?;
            }
            store.write_manifest(false)?;
        }
        Ok(store)
    }

    /// Open a store directory as **one worker shard** of a multi-process run.
    ///
    /// Unlike [`CampaignStore::open`], a worker never takes ownership of the
    /// directory: it does not clear existing shards or part manifests (the
    /// other shards' points are not its to delete). When a `manifest.json`
    /// already exists (a coordinator — or an earlier hand-run worker — wrote
    /// it), its fingerprint must match. When none exists and `resume` is off,
    /// the worker *stamps* an incomplete manifest so that every later worker
    /// validates against the same fingerprint — this is what lets workers be
    /// hand-run into a fresh shared directory with no coordinator process
    /// (concurrent stamps race benignly: identical bytes, atomic rename).
    /// With `resume` the manifest is required, so a worker can never
    /// "resume" into an uninitialized directory.
    pub fn open_worker(
        dir: &Path,
        fingerprint: String,
        resume: bool,
    ) -> Result<CampaignStore, String> {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let store = CampaignStore { dir: dir.to_path_buf(), fingerprint };
        let manifest_path = store.dir.join(MANIFEST_NAME);
        match fs::read_to_string(&manifest_path) {
            Ok(text) => {
                let (_, found) = parse_manifest(&text)?;
                if found != store.fingerprint {
                    return Err(format!(
                        "--worker-shard: {} was produced by a different configuration; \
                         every worker must run with the coordinator's exact flags",
                        store.dir.display()
                    ));
                }
            }
            Err(e) if resume => {
                return Err(format!("--resume: cannot read {}: {e}", manifest_path.display()))
            }
            Err(_) => store.write_manifest(false)?,
        }
        Ok(store)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's configuration fingerprint.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Load every decodable instance from the existing shards. Undecodable
    /// lines (e.g. the truncated tail of a killed run) and everything after
    /// them in their shard are skipped — those instances simply re-run.
    pub fn load(&self) -> Result<Vec<StoredInstance>, String> {
        self.load_with(decode_instance)
    }

    /// Like [`CampaignStore::load`], but with a caller-supplied line decoder
    /// — the gap layer stores records in its own format through the same
    /// shard machinery.
    pub(crate) fn load_with<T>(
        &self,
        decode: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let mut out = Vec::new();
        for path in self.shard_paths()? {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("cannot read shard {}: {e}", path.display()))?;
            for line in text.lines() {
                if line.is_empty() {
                    continue;
                }
                match decode(line) {
                    Ok(record) => out.push(record),
                    // A malformed line marks the write frontier of a killed
                    // campaign; nothing after it in this shard is trusted.
                    Err(_) => break,
                }
            }
        }
        Ok(out)
    }

    /// Atomically write the complete shard of one experiment point.
    pub fn write_shard(&self, point_index: usize, lines: &[String]) -> Result<(), String> {
        let path = self.dir.join(shard_name(point_index));
        let tmp = self.dir.join(format!("{}.tmp", shard_name(point_index)));
        let mut file =
            fs::File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        for line in lines {
            file.write_all(line.as_bytes())
                .and_then(|()| file.write_all(b"\n"))
                .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        }
        file.sync_all().map_err(|e| format!("cannot sync {}: {e}", tmp.display()))?;
        drop(file);
        fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))
    }

    /// Mark the campaign complete in the manifest.
    ///
    /// Idempotent and crash-safe: the manifest is written via a temp file +
    /// rename, so an interrupted finalize leaves the previous manifest intact
    /// and re-running it on an already-complete store rewrites the identical
    /// bytes without error.
    pub fn finalize(&self) -> Result<(), String> {
        self.write_manifest(true)
    }

    /// Record one worker shard's completion: atomically write
    /// `manifest.part-<part>.json` with the contiguous point range the shard
    /// executed (half-open, `points.start..points.end`).
    pub fn write_part(
        &self,
        part: usize,
        of: usize,
        points: std::ops::Range<usize>,
    ) -> Result<(), String> {
        let manifest = PartManifest {
            part,
            of,
            start: points.start,
            end: points.end,
            fingerprint: self.fingerprint.clone(),
        };
        self.write_atomic(&part_manifest_name(part), &render_part_manifest(&manifest))
    }

    /// Read worker shard `part`'s part manifest back.
    pub fn read_part(&self, part: usize) -> Result<PartManifest, String> {
        let path = self.dir.join(part_manifest_name(part));
        let text = fs::read_to_string(&path).map_err(|e| {
            format!("merge: cannot read {} (did worker {part} finish?): {e}", path.display())
        })?;
        parse_part_manifest(&text)
    }

    /// Delete every part manifest (and `.tmp` leftovers). After a successful
    /// merge this leaves the directory indistinguishable from a
    /// single-process run's.
    pub fn remove_part_manifests(&self) -> Result<(), String> {
        for path in self.files_matching(|name| name.starts_with(PART_MANIFEST_PREFIX))? {
            fs::remove_file(&path)
                .map_err(|e| format!("cannot remove part manifest {}: {e}", path.display()))?;
        }
        Ok(())
    }

    /// Read whether the manifest currently marks the campaign complete.
    pub fn is_complete(&self) -> Result<bool, String> {
        let path = self.dir.join(MANIFEST_NAME);
        let text = fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse_manifest(&text).map(|(complete, _)| complete)
    }

    fn write_manifest(&self, complete: bool) -> Result<(), String> {
        self.write_atomic(MANIFEST_NAME, &render_manifest(complete, &self.fingerprint))
    }

    /// Write `name` via a temp file + fsync + rename, so the file is never
    /// observed half-written: a crash mid-write leaves the previous version
    /// (or nothing) in place, never a torn manifest.
    fn write_atomic(&self, name: &str, text: &str) -> Result<(), String> {
        let path = self.dir.join(name);
        let tmp = self.dir.join(format!("{name}.tmp"));
        let mut file =
            fs::File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
        file.write_all(text.as_bytes())
            .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        file.sync_all().map_err(|e| format!("cannot sync {}: {e}", tmp.display()))?;
        drop(file);
        fs::rename(&tmp, &path)
            .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))
    }

    fn shard_paths(&self) -> Result<Vec<PathBuf>, String> {
        self.files_matching(|name| name.starts_with("point-") && name.ends_with(".jsonl"))
    }

    fn files_matching(&self, keep: impl Fn(&str) -> bool) -> Result<Vec<PathBuf>, String> {
        let mut paths = Vec::new();
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| format!("cannot list {}: {e}", self.dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("cannot list {}: {e}", self.dir.display()))?;
            let name = entry.file_name();
            if keep(&name.to_string_lossy()) {
                paths.push(entry.path());
            }
        }
        paths.sort();
        Ok(paths)
    }
}

/// Streams completed jobs' record lines into per-point shards.
///
/// Both executors (campaign and sensitivity) feed one `(point, scenario)` job
/// at a time, in canonical order; the writer buffers the current point's
/// lines and writes its shard once the last scenario lands. Points whose
/// every instance was resumed from disk (`executed == 0` across the point)
/// skip the write — their shard is already intact — so resuming a nearly
/// complete campaign does not rewrite untouched shards. After the first
/// error the writer stops consuming; the error is returned by
/// [`ShardWriter::finish`] and `consume` returns `false` so the caller can
/// abort the fan-out instead of simulating results that can no longer be
/// stored.
#[derive(Debug)]
pub struct ShardWriter<'a> {
    store: Option<&'a CampaignStore>,
    scenarios_per_point: usize,
    lines: Vec<String>,
    executed_in_point: usize,
    error: Option<String>,
}

impl<'a> ShardWriter<'a> {
    /// Create a writer; with `store == None` every call is a cheap no-op.
    pub fn new(store: Option<&'a CampaignStore>, scenarios_per_point: usize) -> ShardWriter<'a> {
        assert!(scenarios_per_point > 0, "points must have at least one scenario");
        ShardWriter {
            store,
            scenarios_per_point,
            lines: Vec::new(),
            executed_in_point: 0,
            error: None,
        }
    }

    /// Buffer one completed job's lines (`executed` = instances actually
    /// simulated rather than resumed) and flush the point's shard when `job`
    /// is the point's last scenario. Returns `false` once an error occurred.
    pub fn consume(
        &mut self,
        job: usize,
        executed: usize,
        lines: impl IntoIterator<Item = String>,
    ) -> bool {
        let Some(store) = self.store else { return true };
        if self.error.is_some() {
            return false;
        }
        self.lines.extend(lines);
        self.executed_in_point += executed;
        if (job + 1).is_multiple_of(self.scenarios_per_point) {
            if self.executed_in_point > 0 {
                let point_index = job / self.scenarios_per_point;
                if let Err(e) = store.write_shard(point_index, &self.lines) {
                    self.error = Some(e);
                }
            }
            self.lines.clear();
            self.executed_in_point = 0;
        }
        self.error.is_none()
    }

    /// The first write error, if any.
    pub fn finish(self) -> Result<(), String> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// A worker shard's completion record: which contiguous point range it
/// executed, under which configuration. Written as
/// `manifest.part-<part>.json` when the shard's last point lands; the merge
/// step ([`crate::distrib::merge_parts`]) stitches `N` of these into the
/// single-process `manifest.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartManifest {
    /// 1-based shard index.
    pub part: usize,
    /// Total shard count of the split this part belongs to.
    pub of: usize,
    /// First point of the executed range (inclusive).
    pub start: usize,
    /// End of the executed range (exclusive).
    pub end: usize,
    /// Configuration fingerprint the shard ran under.
    pub fingerprint: String,
}

/// Render a part manifest: a single deterministic JSON line.
fn render_part_manifest(m: &PartManifest) -> String {
    Obj::new()
        .field("version", STORE_VERSION)
        .field("part", m.part)
        .field("of", m.of)
        .field("points", List([m.start, m.end]))
        .field("config", &m.fingerprint)
        .end()
        + "\n"
}

/// Parse a part manifest back. Malformed or version-mismatched input is an
/// `Err` (a torn part manifest cannot happen — they are written atomically —
/// so any parse failure means a foreign or corrupt file).
pub(crate) fn parse_part_manifest(text: &str) -> Result<PartManifest, String> {
    let ((part, of, [start, end]), fingerprint) = read_manifest(text, "part manifest", |f| {
        Ok((f.take("part", Value::num)?, f.take("of", Value::num)?, f.take("points", Value::nums)?))
    })?;
    Ok(PartManifest { part, of, start: start as usize, end: end as usize, fingerprint })
}

/// Render the manifest: a single deterministic JSON line.
fn render_manifest(complete: bool, fingerprint: &str) -> String {
    let manifest = Obj::new().field("version", STORE_VERSION).field("complete", complete);
    manifest.field("config", fingerprint).end() + "\n"
}

/// Parse a manifest back into `(complete, fingerprint)`.
fn parse_manifest(text: &str) -> Result<(bool, String), String> {
    read_manifest(text, "manifest", |fields| match fields.value("complete")? {
        Value::True => Ok(true),
        Value::False => Ok(false),
        _ => Err("field 'complete' must be true or false".to_string()),
    })
}

/// Read a manifest-format file: its `version`, which must be the store's,
/// the fields `read` takes, then the `config` fingerprint. The fingerprint
/// is written back compactly, which reproduces the store's own text.
fn read_manifest<'a, T>(
    text: &'a str,
    what: &str,
    read: impl FnOnce(&mut Record<'a>) -> Result<T, String>,
) -> Result<(T, String), String> {
    let parsed = Record::new(text).and_then(|mut fields| {
        let version: u32 = fields.take("version", Value::num)?;
        if version != STORE_VERSION {
            return Err(format!("store version {version}, expected {STORE_VERSION}"));
        }
        let value = read(&mut fields)?;
        let fingerprint = fields.value("config")?.to_string();
        fields.finish()?;
        Ok((value, fingerprint))
    });
    parsed.map_err(|e| format!("unrecognized {what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_availability::rng::mix64;
    use dg_sim::{SimOutcome, SimStats};

    fn sample(makespan: Option<u64>) -> InstanceResult {
        InstanceResult {
            params: ScenarioParams {
                num_workers: 20,
                tasks_per_iteration: 5,
                ncom: 10,
                wmin: 3,
                iterations: 10,
            },
            scenario_index: 2,
            trial_index: 1,
            heuristic: "Y-IE".to_string(),
            outcome: SimOutcome {
                completed_iterations: 10,
                target_iterations: 10,
                makespan,
                simulated_slots: makespan.unwrap_or(1_000_000),
                stats: SimStats {
                    configurations_selected: 4,
                    proactive_changes: 1,
                    iterations_aborted: 2,
                    transfer_slots: 37,
                    computation_slots: 240,
                    stalled_slots: 12,
                    idle_slots: 5,
                },
            },
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dg-store-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn encode_decode_roundtrips_exactly() {
        for (suite, model, makespan) in [
            (None, None, Some(431)),
            (None, Some("semi"), None),
            (Some("volatile"), None, Some(12)),
            (Some("largegrid"), Some("markov"), None),
        ] {
            let r = sample(makespan);
            let line = encode_instance(7, suite, model, &r);
            let decoded = decode_instance(&line).unwrap();
            assert_eq!(decoded.point_index, 7);
            assert_eq!(decoded.suite.as_deref(), suite);
            assert_eq!(decoded.model.as_deref(), model);
            assert_eq!(decoded.result, r);
            // Re-encoding is byte-identical: the serialization is canonical.
            assert_eq!(encode_instance(7, suite, model, &decoded.result), line);
        }
    }

    #[test]
    fn untagged_records_keep_the_pre_suite_byte_format() {
        // The paper suite's records carry no suite field at all, so its
        // shards stay byte-identical to stores written before suites existed.
        let r = sample(Some(99));
        let line = encode_instance(3, None, None, &r);
        assert!(!line.contains("suite"));
        assert!(line.starts_with("{\"point\":3,\"workers\":"));
        let tagged = encode_instance(3, Some("volatile"), None, &r);
        assert!(tagged.starts_with("{\"point\":3,\"suite\":\"volatile\",\"workers\":"));
    }

    #[test]
    fn truncated_and_corrupt_lines_are_rejected() {
        let line = encode_instance(0, Some("volatile"), None, &sample(Some(10)));
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(decode_instance(&line[..cut]).is_err(), "cut at {cut} decoded");
        }
        assert!(decode_instance("").is_err());
        assert!(decode_instance("{}").is_err());
        assert!(decode_instance(&format!("{line}garbage")).is_err());
    }

    #[test]
    fn store_roundtrip_and_truncation_recovery() {
        let dir = temp_dir("roundtrip");
        let store = CampaignStore::open(&dir, "{\"k\":1}".to_string(), false).unwrap();
        let a = encode_instance(0, None, None, &sample(Some(100)));
        let b = encode_instance(0, None, None, &sample(None));
        store.write_shard(0, &[a.clone(), b.clone()]).unwrap();
        assert!(!store.is_complete().unwrap());
        store.finalize().unwrap();
        assert!(store.is_complete().unwrap());

        // Resume sees both instances.
        let resumed = CampaignStore::open(&dir, "{\"k\":1}".to_string(), true).unwrap();
        assert_eq!(resumed.load().unwrap().len(), 2);

        // Truncate the shard mid-line: only the intact prefix survives.
        let shard = dir.join(shard_name(0));
        let text = fs::read_to_string(&shard).unwrap();
        fs::write(&shard, &text[..a.len() + 1 + b.len() / 2]).unwrap();
        let loaded = resumed.load().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].result, sample(Some(100)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_fingerprint_and_missing_manifest() {
        let dir = temp_dir("mismatch");
        assert!(CampaignStore::open(&dir, "{\"k\":1}".to_string(), true).is_err());
        let _ = CampaignStore::open(&dir, "{\"k\":1}".to_string(), false).unwrap();
        let err = CampaignStore::open(&dir, "{\"k\":2}".to_string(), true).unwrap_err();
        assert!(err.contains("different configuration"), "{err}");
        assert!(CampaignStore::open(&dir, "{\"k\":1}".to_string(), true).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_open_clears_stale_shards_and_tmp_leftovers() {
        let dir = temp_dir("stale");
        let store = CampaignStore::open(&dir, "{}".to_string(), false).unwrap();
        store.write_shard(3, &[encode_instance(3, None, None, &sample(Some(5)))]).unwrap();
        // A crash inside write_shard can leave a .tmp behind the rename, and
        // a killed multi-process run can leave part manifests behind.
        let orphan = dir.join(format!("{}.tmp", shard_name(7)));
        fs::write(&orphan, "partial").unwrap();
        store.write_part(2, 3, 1..3).unwrap();
        let store = CampaignStore::open(&dir, "{}".to_string(), false).unwrap();
        assert!(store.load().unwrap().is_empty());
        assert!(!orphan.exists(), "stale .tmp shard survived a fresh open");
        assert!(!dir.join(part_manifest_name(2)).exists(), "stale part manifest survived");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn finalize_is_idempotent_and_leaves_no_tmp_behind() {
        let dir = temp_dir("finalize");
        let store = CampaignStore::open(&dir, "{\"k\":1}".to_string(), false).unwrap();
        store.finalize().unwrap();
        let bytes = fs::read(dir.join(MANIFEST_NAME)).unwrap();
        // Finalizing an already-complete store succeeds and rewrites the
        // identical bytes; the atomic write never leaves its temp file.
        store.finalize().unwrap();
        assert_eq!(fs::read(dir.join(MANIFEST_NAME)).unwrap(), bytes);
        assert!(!dir.join(format!("{MANIFEST_NAME}.tmp")).exists());
        assert!(store.is_complete().unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn part_manifest_roundtrips_exactly() {
        let m = PartManifest {
            part: 2,
            of: 3,
            start: 4,
            end: 8,
            fingerprint: "{\"kind\":\"campaign\",\"m\":[5]}".to_string(),
        };
        let text = render_part_manifest(&m);
        assert_eq!(
            text,
            "{\"version\":1,\"part\":2,\"of\":3,\"points\":[4,8],\"config\":{\"kind\":\"campaign\",\"m\":[5]}}\n"
        );
        assert_eq!(parse_part_manifest(&text).unwrap(), m);
        // Corrupt or truncated text is rejected, as is a plain manifest.
        assert!(parse_part_manifest(&text[..text.len() / 2]).is_err());
        assert!(parse_part_manifest(&render_manifest(true, "{}")).is_err());
        assert!(parse_part_manifest("").is_err());
    }

    /// `len` characters drawn by `seed` from text a JSON writer must escape.
    fn hostile_text(seed: u64, len: u64) -> String {
        const TEXT: [char; 12] =
            ['a', 'Z', '"', '\\', '/', '\n', '\r', '\u{1}', '\u{1f}', 'é', '∞', '😀'];
        (0..len).map(|i| TEXT[(mix64(seed * 31 + i) % TEXT.len() as u64) as usize]).collect()
    }

    #[test]
    fn manifests_round_trip_hostile_fingerprints_and_reject_truncations() {
        for seed in 0..64u64 {
            let fingerprint = Obj::new()
                .field("kind", Str(&hostile_text(seed, seed % 9)))
                .field("epsilon", format_args!("{:?}", 1e-7 * seed as f64))
                .field("m", List([5, seed]))
                .end();
            let (start, end) = (seed as usize, 2 * seed as usize);
            let part =
                PartManifest { part: 1, of: 2, start, end, fingerprint: fingerprint.clone() };
            let texts = [render_part_manifest(&part), render_manifest(seed % 2 == 0, &fingerprint)];
            assert_eq!(parse_part_manifest(&texts[0]).unwrap(), part);
            assert_eq!(parse_manifest(&texts[1]).unwrap(), (seed % 2 == 0, fingerprint));
            for json in texts.iter().map(|text| text.trim_end()) {
                for cut in (0..json.len()).filter(|&cut| json.is_char_boundary(cut)) {
                    let prefix = &json[..cut];
                    assert!(parse_part_manifest(prefix).is_err(), "{prefix}");
                    assert!(parse_manifest(prefix).is_err(), "{prefix}");
                }
            }
        }
    }

    #[test]
    fn manifest_parsers_survive_arbitrary_bytes() {
        let fingerprint = "{\"k\":[1,\"a\"],\"e\":0.01}".to_string();
        let part = PartManifest { part: 1, of: 2, start: 0, end: 3, fingerprint };
        let valid = [render_part_manifest(&part), render_manifest(true, &part.fingerprint)];
        for seed in 0..4_000u64 {
            // Valid manifests with a few bytes overwritten, by JSON
            // punctuation or by anything, and bytes drawn at random.
            let mut bytes = valid[seed as usize % 2].clone().into_bytes();
            for i in 0..1 + seed % 4 {
                let r = mix64(seed * 8 + i);
                let at = (r % bytes.len() as u64) as usize;
                bytes[at] = if r & 1 == 0 {
                    b"{}[]\":,\\u0-e"[(r >> 8) as usize % 12]
                } else {
                    (r >> 16) as u8
                };
            }
            let random: Vec<u8> = (0..seed % 64).map(|i| mix64(seed << 8 | i) as u8).collect();
            for bytes in [bytes, random] {
                let text = String::from_utf8_lossy(&bytes);
                let _ = (parse_manifest(&text), parse_part_manifest(&text));
            }
        }
    }

    #[test]
    fn write_part_and_read_part_roundtrip_through_the_store() {
        let dir = temp_dir("parts");
        let store = CampaignStore::open(&dir, "{\"k\":1}".to_string(), false).unwrap();
        store.write_part(1, 2, 0..3).unwrap();
        store.write_part(2, 2, 3..6).unwrap();
        let read = store.read_part(2).unwrap();
        assert_eq!(read.part, 2);
        assert_eq!(read.of, 2);
        assert_eq!((read.start, read.end), (3, 6));
        assert_eq!(read.fingerprint, "{\"k\":1}");
        // Missing parts name the worker in the error.
        let err = store.read_part(3).unwrap_err();
        assert!(err.contains("worker 3"), "{err}");
        store.remove_part_manifests().unwrap();
        assert!(store.read_part(1).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_worker_validates_but_never_claims_the_directory() {
        let dir = temp_dir("worker-open");
        // Resume demands an initialized store…
        assert!(CampaignStore::open_worker(&dir, "{\"k\":1}".to_string(), true).is_err());
        // …but a fresh worker can open a directory no coordinator
        // initialized: it stamps the shared (incomplete) manifest so every
        // later worker validates against the same fingerprint.
        let worker = CampaignStore::open_worker(&dir, "{\"k\":1}".to_string(), false).unwrap();
        assert!(dir.join(MANIFEST_NAME).exists(), "first worker stamps the shared manifest");
        assert!(!worker.is_complete().unwrap());
        worker.write_shard(0, &[encode_instance(0, None, None, &sample(Some(1)))]).unwrap();
        // A hand-run worker with different flags is refused by the stamp.
        let err = CampaignStore::open_worker(&dir, "{\"k\":2}".to_string(), false).unwrap_err();
        assert!(err.contains("different configuration"), "{err}");
        // With a coordinator manifest present, the fingerprint must match and
        // existing shards survive (workers never clear the directory).
        let coordinator = CampaignStore::open(&dir, "{\"k\":1}".to_string(), false).unwrap();
        coordinator.write_shard(1, &[encode_instance(1, None, None, &sample(Some(2)))]).unwrap();
        let worker = CampaignStore::open_worker(&dir, "{\"k\":1}".to_string(), false).unwrap();
        assert_eq!(worker.load().unwrap().len(), 1);
        let err = CampaignStore::open_worker(&dir, "{\"k\":2}".to_string(), false).unwrap_err();
        assert!(err.contains("different configuration"), "{err}");
        assert!(CampaignStore::open_worker(&dir, "{\"k\":1}".to_string(), true).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }
}
