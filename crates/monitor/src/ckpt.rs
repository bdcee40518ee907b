//! Checkpoint/restore: the whole monitor session as one versioned blob.
//!
//! [`save`] serializes everything a [`Monitor`] is — interned
//! processor/location names, the incorporated event and lifecycle
//! stream, every frontier engine's state arena, per-model verdicts and
//! first-refuted prefixes, churn and window bookkeeping, cumulative
//! counters — so [`load`] resumes *warm*: no replay, and every verdict
//! the restored monitor emits from then on is byte-identical to one
//! that never stopped.
//!
//! The format is guarded three ways:
//!
//! * a **magic + version** prefix (`SMCCKPT\x01`) rejects files that
//!   are not checkpoints at all;
//! * the **model list and tuning** are embedded (name + parameter key
//!   per model, frontier cap, window size) and must match what the
//!   caller passes to [`load`] — a checkpoint taken under one model set
//!   must not silently resume under another;
//! * every length and index is validated against the bytes remaining
//!   and the tables already decoded, under the [`smc_core::binfmt`]
//!   contract: corrupt or truncated input returns `Err` naming a byte
//!   offset, never panics and never allocates past the input size.

use crate::{churn::ChurnState, window::WindowState, Engine, Monitor, MonitorConfig, TriVerdict};
use smc_core::binfmt::{write_i64, write_str, write_u32, write_u64, Reader};
use smc_core::frontier::FrontierEngine;
use smc_core::lattice::Stronger;
use smc_core::spec::{ModelSpec, OperationSet};
use smc_history::trace::{Lifecycle, Trace, TraceEvent};
use smc_history::{Label, Location, OpKind, ProcId, Value};

/// File magic: `SMCCKPT` + format version byte.
pub const MAGIC: [u8; 8] = *b"SMCCKPT\x01";

/// Largest checkpoint file a resume reads: 256 MiB. A checkpoint grows
/// with its session's stream — the trace at 18 bytes an event, plus 13
/// bytes an event in each frontier view that takes it — on top of state
/// rows capped by `--max-states`. A three-processor session of the
/// eight lattice models measures about 57 bytes an event past a fixed
/// ~135 KB, so the cap still takes sessions of millions of events,
/// while one `RESUME` of a huge file, or of one that never ends, costs
/// at most this much memory.
pub const MAX_CHECKPOINT_BYTES: u64 = 256 << 20;

/// Serialize `m` completely; [`load`] inverts this.
pub fn save(m: &Monitor) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&MAGIC);
    write_u32(&mut buf, m.models.len() as u32);
    for spec in &m.models {
        write_str(&mut buf, &spec.name);
        write_u64(&mut buf, spec.param_key());
    }
    write_u64(&mut buf, m.cfg.max_frontier_states as u64);
    write_u32(&mut buf, m.cfg.window.unwrap_or(0) as u32);
    save_trace(&mut buf, &m.trace);
    m.churn.save_into(&mut buf);
    if let Some(w) = &m.window {
        w.save_into(&mut buf);
    }
    for (i, &v) in m.verdicts.iter().enumerate() {
        buf.push(v as u8);
        write_u64(
            &mut buf,
            m.first_violation[i].map(|n| n as u64).unwrap_or(u64::MAX),
        );
    }
    let t = &m.totals;
    for c in [
        t.created,
        t.expanded,
        t.reuse_hits,
        t.rechecks,
        t.recheck_nodes,
        t.propagated,
        t.rebuild_work,
    ] {
        write_u64(&mut buf, c);
    }
    write_u32(&mut buf, m.built_procs as u32);
    write_u32(&mut buf, m.built_locs as u32);
    for engine in &m.engines {
        match engine {
            Engine::Restart => buf.push(0),
            // Tag 1 is a shared view, stored as its one engine; tag 2 a
            // per-processor view table.
            Engine::Frontier {
                views, delta: None, ..
            } => {
                buf.push(1);
                views[0]
                    .as_ref()
                    .expect("the shared view is never freed")
                    .save_into(&mut buf);
            }
            Engine::Frontier {
                views,
                delta: Some(delta),
                latched_unknown,
            } => {
                buf.push(2);
                buf.push(match delta {
                    OperationSet::AllOps => 0,
                    OperationSet::WritesOnly => 1,
                });
                write_u64(&mut buf, *latched_unknown as u64);
                write_u32(&mut buf, views.len() as u32);
                for v in views {
                    match v {
                        None => buf.push(0),
                        Some(e) => {
                            buf.push(1);
                            e.save_into(&mut buf);
                        }
                    }
                }
            }
        }
    }
    buf
}

fn save_trace(buf: &mut Vec<u8>, t: &Trace) {
    write_u32(buf, t.num_procs() as u32);
    for name in t.proc_names() {
        write_str(buf, name);
    }
    write_u32(buf, t.num_locs() as u32);
    for name in t.loc_names() {
        write_str(buf, name);
    }
    write_u32(buf, t.len() as u32);
    for e in t.events() {
        write_u32(buf, e.proc.0);
        buf.push(e.kind.is_write() as u8);
        buf.push(e.label.is_labeled() as u8);
        write_u32(buf, e.loc.0);
        write_i64(buf, e.value.0);
    }
    write_u32(buf, t.lifecycle().len() as u32);
    for &(pos, lc) in t.lifecycle() {
        write_u32(buf, pos);
        match lc {
            Lifecycle::Join(p) => {
                buf.push(0);
                write_u32(buf, p.0);
            }
            Lifecycle::Retire(p) => {
                buf.push(1);
                write_u32(buf, p.0);
            }
        }
    }
}

fn load_trace(r: &mut Reader<'_>) -> Result<Trace, String> {
    let mut t = Trace::new();
    let procs = r.len_prefix(1)?;
    for _ in 0..procs {
        let at = r.pos();
        let name = r.str()?;
        t.add_proc(&name);
        if t.num_procs() != t.proc_names().len() {
            return Err(format!("duplicate processor name at byte {at}"));
        }
    }
    if t.num_procs() != procs {
        return Err(format!("duplicate processor name in table of {procs}"));
    }
    let locs = r.len_prefix(1)?;
    for _ in 0..locs {
        r.str().map(|name| t.add_loc(&name))?;
    }
    if t.num_locs() != locs {
        return Err(format!("duplicate location name in table of {locs}"));
    }
    let events = r.len_prefix(18)?;
    let mut decoded = Vec::with_capacity(events);
    for _ in 0..events {
        let at = r.pos();
        let proc = r.u32()?;
        let kind = if r.u8()? != 0 {
            OpKind::Write
        } else {
            OpKind::Read
        };
        let label = if r.u8()? != 0 {
            Label::Labeled
        } else {
            Label::Ordinary
        };
        let loc = r.u32()?;
        let value = r.i64()?;
        if proc as usize >= procs {
            return Err(format!("event processor {proc} at byte {at} out of range"));
        }
        if loc as usize >= locs {
            return Err(format!("event location {loc} at byte {at} out of range"));
        }
        decoded.push(TraceEvent {
            proc: ProcId(proc),
            kind,
            loc: Location(loc),
            value: Value(value),
            label,
        });
    }
    let lcs = r.len_prefix(9)?;
    let mut lifecycle = Vec::with_capacity(lcs);
    let mut last_pos = 0u32;
    for _ in 0..lcs {
        let at = r.pos();
        let pos = r.u32()?;
        let tag = r.u8()?;
        let p = r.u32()?;
        if pos as usize > events || pos < last_pos {
            return Err(format!(
                "lifecycle position {pos} at byte {at} out of order"
            ));
        }
        last_pos = pos;
        if p as usize >= procs {
            return Err(format!("lifecycle processor {p} at byte {at} out of range"));
        }
        let lc = match tag {
            0 => Lifecycle::Join(ProcId(p)),
            1 => Lifecycle::Retire(ProcId(p)),
            v => return Err(format!("unknown lifecycle tag {v} at byte {at}")),
        };
        lifecycle.push((pos, lc));
    }
    // `push_lifecycle` records the position itself (the current event
    // count), so interleave: lifecycle entries land before the event at
    // their recorded position.
    let mut li = 0usize;
    for (i, ev) in decoded.into_iter().enumerate() {
        while li < lifecycle.len() && lifecycle[li].0 as usize <= i {
            t.push_lifecycle(lifecycle[li].1);
            li += 1;
        }
        t.push(ev);
    }
    for &(_, lc) in &lifecycle[li..] {
        t.push_lifecycle(lc);
    }
    Ok(t)
}

fn load_engine(r: &mut Reader<'_>, built_procs: usize) -> Result<Engine, String> {
    let at = r.pos();
    match r.u8()? {
        0 => Ok(Engine::Restart),
        1 => {
            let e = FrontierEngine::load_from(r)?;
            if e.num_procs() != built_procs {
                return Err(format!(
                    "engine at byte {at} has width {}, monitor built for {built_procs}",
                    e.num_procs()
                ));
            }
            Ok(Engine::Frontier {
                views: vec![Some(e)],
                delta: None,
                latched_unknown: 0,
            })
        }
        2 => {
            let dat = r.pos();
            let delta = match r.u8()? {
                0 => OperationSet::AllOps,
                1 => OperationSet::WritesOnly,
                v => return Err(format!("unknown operation set {v} at byte {dat}")),
            };
            let latched_unknown = r.u64()? as usize;
            let n = r.len_prefix(1)?;
            if n != built_procs {
                return Err(format!(
                    "viewer table at byte {at} has {n} slots, monitor built for {built_procs}"
                ));
            }
            let mut views = Vec::with_capacity(n);
            for _ in 0..n {
                let vat = r.pos();
                views.push(match r.u8()? {
                    0 => None,
                    1 => {
                        let e = FrontierEngine::load_from(r)?;
                        if e.num_procs() != built_procs {
                            return Err(format!(
                                "viewer at byte {vat} has width {}, monitor built for {built_procs}",
                                e.num_procs()
                            ));
                        }
                        Some(e)
                    }
                    v => return Err(format!("unknown viewer tag {v} at byte {vat}")),
                });
            }
            Ok(Engine::Frontier {
                views,
                delta: Some(delta),
                latched_unknown,
            })
        }
        v => Err(format!("unknown engine tag {v} at byte {at}")),
    }
}

/// The part of a checkpoint every reader needs first: the model names
/// and parameter keys (each with its byte offset), the frontier cap and
/// the window size (0 = unwindowed).
struct Header {
    models: Vec<(usize, String, u64)>,
    max_states: usize,
    window: usize,
}

/// Check the magic and read the [`Header`], leaving `r` at the trace.
fn read_header(r: &mut Reader<'_>) -> Result<Header, String> {
    if r.take(MAGIC.len()).ok() != Some(&MAGIC[..]) {
        return Err("not a monitor checkpoint (bad magic at byte 0)".into());
    }
    let n = r.len_prefix(10)?;
    let mut models = Vec::with_capacity(n);
    for _ in 0..n {
        models.push((r.pos(), r.str()?, r.u64()?));
    }
    Ok(Header {
        models,
        max_states: r.u64()? as usize,
        window: r.u32()? as usize,
    })
}

/// The model names embedded in a checkpoint, without decoding the rest.
/// Lets a server resolve the right model set before calling [`load`].
pub fn peek_models(bytes: &[u8]) -> Result<Vec<String>, String> {
    let header = read_header(&mut Reader::new(bytes))?;
    Ok(header.models.into_iter().map(|(_, name, _)| name).collect())
}

/// The frontier cap and window size (0 = unwindowed) a checkpoint was
/// cut with, without loading it. A restore must resume under the same
/// limits; a caller that did not pick its own can inherit these.
pub fn peek_limits(bytes: &[u8]) -> Result<(usize, usize), String> {
    let header = read_header(&mut Reader::new(bytes))?;
    Ok((header.max_states, header.window))
}

/// Rebuild a [`Monitor`] from [`save`] bytes. `models` and `cfg` must
/// match the checkpointed session (same models in the same order, same
/// frontier cap and window size); the embedded copies are checked and a
/// mismatch is an error, not a silent reinterpretation.
pub fn load(bytes: &[u8], models: Vec<ModelSpec>, cfg: MonitorConfig) -> Result<Monitor, String> {
    let mut r = Reader::new(bytes);
    let Header {
        models: saved,
        max_states,
        window: win,
    } = read_header(&mut r)?;
    let n = saved.len();
    if n != models.len() {
        return Err(format!(
            "checkpoint monitors {n} models, caller supplied {}",
            models.len()
        ));
    }
    for (i, (spec, (at, name, key))) in models.iter().zip(&saved).enumerate() {
        if *name != spec.name || *key != spec.param_key() {
            return Err(format!(
                "model {i} mismatch at byte {at}: checkpoint has {name:?}, caller supplied {:?}",
                spec.name
            ));
        }
    }
    if max_states != cfg.max_frontier_states {
        return Err(format!(
            "checkpoint frontier cap {max_states} != configured {}",
            cfg.max_frontier_states
        ));
    }
    if win != cfg.window.unwrap_or(0) {
        return Err(format!(
            "checkpoint window size {win} != configured {}",
            cfg.window.unwrap_or(0)
        ));
    }
    let trace = load_trace(&mut r)?;
    let churn = ChurnState::load_from(&mut r, trace.num_procs(), trace.num_locs())?;
    let window = if win != 0 {
        Some(WindowState::load_from(&mut r, models.len())?)
    } else {
        None
    };
    let mut verdicts = Vec::with_capacity(n);
    let mut first_violation = Vec::with_capacity(n);
    for _ in 0..n {
        let at = r.pos();
        verdicts.push(match r.u8()? {
            0 => TriVerdict::Admitted,
            1 => TriVerdict::Violated,
            2 => TriVerdict::Unknown,
            v => return Err(format!("unknown verdict {v} at byte {at}")),
        });
        let fv = r.u64()?;
        first_violation.push((fv != u64::MAX).then_some(fv as usize));
    }
    // Struct-literal fields evaluate in source order, matching the
    // order `save` wrote them.
    let totals = crate::StepReport {
        created: r.u64()?,
        expanded: r.u64()?,
        reuse_hits: r.u64()?,
        rechecks: r.u64()?,
        recheck_nodes: r.u64()?,
        propagated: r.u64()?,
        rebuild_work: r.u64()?,
        ..Default::default()
    };
    let built_procs = r.u32()? as usize;
    let built_locs = r.u32()? as usize;
    if built_locs > trace.num_locs() {
        return Err(format!(
            "monitor built for {built_locs} locations, trace has {}",
            trace.num_locs()
        ));
    }
    let mut engines = Vec::with_capacity(n);
    for _ in 0..n {
        engines.push(load_engine(&mut r, built_procs)?);
    }
    if !r.is_at_end() {
        return Err(format!(
            "{} trailing bytes after checkpoint at byte {}",
            r.remaining(),
            r.pos()
        ));
    }
    let stronger = Stronger::new(&models);
    Ok(Monitor {
        models,
        stronger,
        cfg,
        trace,
        engines,
        built_procs,
        built_locs,
        verdicts,
        first_violation,
        totals,
        churn,
        window,
        pending_seeds: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smc_core::models;
    use smc_history::trace::parse_trace;

    fn fed_monitor(text: &str) -> Monitor {
        let t = parse_trace(text).unwrap();
        let mut m = Monitor::new(models::lattice_models(), MonitorConfig::default());
        m.feed_trace(&t);
        m
    }

    /// `unwrap_err` without requiring `Debug` on [`Monitor`].
    fn err_of(res: Result<Monitor, String>) -> String {
        match res {
            Err(e) => e,
            Ok(_) => panic!("expected a restore error"),
        }
    }

    #[test]
    fn checkpoint_round_trips_bytes_and_state() {
        let m = fed_monitor("p w(x)1\nq w(y)1\np r(y)0\nq r(x)0\n");
        let bytes = m.checkpoint_bytes();
        let back =
            Monitor::restore_bytes(&bytes, models::lattice_models(), MonitorConfig::default())
                .unwrap();
        assert_eq!(back.verdicts(), m.verdicts());
        assert_eq!(back.num_events(), m.num_events());
        assert_eq!(back.totals(), m.totals());
        // Re-checkpointing the restored monitor reproduces the blob.
        assert_eq!(back.checkpoint_bytes(), bytes);
    }

    #[test]
    fn restore_resumes_byte_identically() {
        // Feed the first half, checkpoint, restore, feed the rest: the
        // verdict history must match a monitor that never stopped.
        let full = "p w(d)1\np w(f)1\nq r(f)1\nq r(d)0\nr w(d)2\nq r(d)2\n";
        let t = parse_trace(full).unwrap();
        let mut cold = Monitor::new(models::lattice_models(), MonitorConfig::default());
        let mut warm = Monitor::new(models::lattice_models(), MonitorConfig::default());
        for (i, ev) in t.events().iter().enumerate() {
            cold.feed(
                t.proc_name(ev.proc),
                ev.kind,
                t.loc_name(ev.loc),
                ev.value.0,
                ev.label,
            );
            if i == 2 {
                let bytes = warm.checkpoint_bytes();
                warm = Monitor::restore_bytes(
                    &bytes,
                    models::lattice_models(),
                    MonitorConfig::default(),
                )
                .unwrap();
            }
            warm.feed(
                t.proc_name(ev.proc),
                ev.kind,
                t.loc_name(ev.loc),
                ev.value.0,
                ev.label,
            );
            assert_eq!(warm.verdicts(), cold.verdicts(), "event {i}");
        }
        assert_eq!(warm.checkpoint_bytes(), cold.checkpoint_bytes());
    }

    #[test]
    fn truncated_and_corrupt_checkpoints_are_rejected() {
        let m = fed_monitor("p w(x)1\nq r(x)1\n");
        let bytes = m.checkpoint_bytes();
        for cut in 0..bytes.len() {
            let e = err_of(Monitor::restore_bytes(
                &bytes[..cut],
                models::lattice_models(),
                MonitorConfig::default(),
            ));
            assert!(!e.is_empty(), "cut {cut}");
        }
        // Garbage magic.
        let mut bad = bytes.clone();
        bad[0] = b'X';
        let e = err_of(Monitor::restore_bytes(
            &bad,
            models::lattice_models(),
            MonitorConfig::default(),
        ));
        assert!(e.contains("bad magic"), "{e}");
        // Trailing garbage.
        let mut long = bytes.clone();
        long.push(0);
        let e = err_of(Monitor::restore_bytes(
            &long,
            models::lattice_models(),
            MonitorConfig::default(),
        ));
        assert!(e.contains("trailing"), "{e}");
    }

    #[test]
    fn model_and_config_mismatches_are_rejected() {
        let m = fed_monitor("p w(x)1\n");
        let bytes = m.checkpoint_bytes();
        let e = err_of(Monitor::restore_bytes(
            &bytes,
            vec![models::sc()],
            MonitorConfig::default(),
        ));
        assert!(e.contains("models"), "{e}");
        let e = err_of(Monitor::restore_bytes(
            &bytes,
            models::lattice_models(),
            MonitorConfig {
                max_frontier_states: 7,
                ..MonitorConfig::default()
            },
        ));
        assert!(e.contains("frontier cap"), "{e}");
        let e = err_of(Monitor::restore_bytes(
            &bytes,
            models::lattice_models(),
            MonitorConfig {
                window: Some(64),
                ..MonitorConfig::default()
            },
        ));
        assert!(e.contains("window"), "{e}");
    }
}
