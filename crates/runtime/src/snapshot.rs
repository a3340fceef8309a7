//! Versioned snapshot save/restore for [`Runtime`].
//!
//! A snapshot captures everything a resumed replay needs — topology
//! (capacities included, since [`Event::CapacityChange`] mutates them),
//! exponential lengths, load table, the admission log with live trees,
//! and the counters. Every `f64` is serialized as its IEEE-754 bit
//! pattern, so `save → restore` is **bit-identical**: a replay resumed
//! from a snapshot produces exactly the bytes an uninterrupted run would.
//!
//! Two formats exist:
//!
//! * **v2 (current)** — a compact binary layout with a versioned header
//!   and length-prefixed sections; see [`crate::snapshot_v2`] and
//!   `docs/FLEET.md`. Produced by [`Runtime::snapshot_v2`].
//! * **v1 (legacy)** — the line-based hex text format below, kept
//!   readable for already-persisted blobs. Produced by
//!   [`Runtime::snapshot`]; see `docs/RUNTIME.md` for the migration
//!   note.
//!
//! [`Runtime::restore_bytes`] accepts either (it sniffs the v2 magic and
//! falls back to the v1 text parser), so a service upgrading to v2 can
//! still restore its pre-upgrade state.
//!
//! Format `v1` (the leading header line is the version gate; restoring a
//! snapshot written by a future incompatible version fails loudly rather
//! than misparsing):
//!
//! ```text
//! omcf-runtime-snapshot v1
//! rho <bits>
//! routing fixed-ip|arbitrary
//! events <count>
//! counters <mst_ops> <iterations>
//! graph <nodes> <edges>
//! node <idx> <xbits> <ybits>          (× nodes)
//! edge <u> <v> <capbits>              (× edges)
//! lengths <bits…>                     (edges words)
//! loads <bits…>                       (edges words)
//! admitted <count>
//! session <idx> <alive> <dembits> <k> <members…>
//! hops <idx> <count>
//! hop <a> <b> <src> <dst> <n> <edges…>  (× count, per admitted session)
//! end
//! ```
//!
//! Both formats decode into one `SnapshotImage`, and a single
//! `SnapshotImage::assemble` performs every semantic check and the
//! engine-state reassembly — the formats differ only in framing, never
//! in what is validated or how state is rebuilt.
//!
//! Not serialized (reconstructed on restore): the
//! [`TreeStore`](omcf_overlay::TreeStore) (rebuilt
//! from the live trees at their demands — bit-identical, flows were never
//! mutated in place), the epoch clock (a fresh clock is correct
//! because oracles are per-event; a restored runtime's first queries
//! simply miss) and the per-edge index of live contributions (rebuilt
//! from the admission log).
//!
//! [`Event::CapacityChange`]: crate::Event::CapacityChange

use crate::runtime::{Admitted, EdgeIndex, Runtime, RuntimeConfig};
use omcf_core::engine::{Contribution, EngineState};
use omcf_core::solver::RoutingMode;
use omcf_overlay::{OverlayHop, OverlayTree, Session};
use omcf_routing::Path;
use omcf_telemetry::stats;
use omcf_topology::{EdgeId, GraphBuilder, NodeId};
use std::fmt::Write as _;
use std::sync::Arc;

/// Current snapshot format version ([`Runtime::snapshot_v2`]).
pub const SNAPSHOT_VERSION: u32 = 2;

/// The legacy text format version ([`Runtime::snapshot`]).
pub const SNAPSHOT_V1_VERSION: u32 = 1;

const HEADER: &str = "omcf-runtime-snapshot v1";

/// Why a snapshot failed to restore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The header names an unknown format version (or the blob starts
    /// with neither the v2 magic nor the v1 header line).
    UnsupportedVersion(String),
    /// A v1 text line failed to parse or validate.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        what: String,
    },
    /// A v2 binary snapshot failed to decode or validate.
    CorruptBinary {
        /// Byte offset at which decoding failed.
        offset: usize,
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnsupportedVersion(h) => {
                write!(f, "unsupported snapshot header `{h}` (expected the v2 binary magic or `{HEADER}`)")
            }
            Self::Malformed { line, what } => write!(f, "snapshot line {line}: {what}"),
            Self::CorruptBinary { offset, what } => write!(f, "snapshot byte {offset}: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// One hop of a serialized overlay tree.
#[derive(Clone, Debug)]
pub(crate) struct HopImage {
    pub(crate) a: u32,
    pub(crate) b: u32,
    pub(crate) src: u32,
    pub(crate) dst: u32,
    pub(crate) edges: Vec<u32>,
}

/// One admission-log entry of a serialized runtime.
#[derive(Clone, Debug)]
pub(crate) struct SessionImage {
    pub(crate) alive: bool,
    pub(crate) demand: f64,
    pub(crate) members: Vec<u32>,
    pub(crate) hops: Vec<HopImage>,
}

/// The format-independent content of a snapshot: what both the v1 text
/// and v2 binary layouts carry, decoded but not yet validated. One
/// [`Self::assemble`] owns every semantic check and the engine-state
/// reassembly for both formats.
#[derive(Clone, Debug)]
pub(crate) struct SnapshotImage {
    pub(crate) rho: f64,
    pub(crate) routing: RoutingMode,
    pub(crate) events: u64,
    pub(crate) mst_ops: u64,
    pub(crate) iterations: u64,
    /// Node positions, indexed by `NodeId`.
    pub(crate) nodes: Vec<(f64, f64)>,
    /// `(u, v, capacity)` per edge, in `EdgeId` order.
    pub(crate) edges: Vec<(u32, u32, f64)>,
    pub(crate) lengths: Vec<f64>,
    pub(crate) loads: Vec<f64>,
    pub(crate) sessions: Vec<SessionImage>,
}

impl SnapshotImage {
    /// Captures the full state of a live runtime.
    pub(crate) fn capture(rt: &Runtime) -> Self {
        let g = &rt.graph;
        Self {
            rho: rt.rho,
            routing: rt.routing,
            events: rt.events_processed,
            mst_ops: rt.state.mst_ops,
            iterations: rt.state.iterations,
            nodes: g.nodes().map(|n| g.position(n)).collect(),
            edges: g
                .edge_ids()
                .map(|e| {
                    let edge = g.edge(e);
                    (edge.u.0, edge.v.0, edge.capacity)
                })
                .collect(),
            lengths: rt.state.lengths.stored().to_vec(),
            loads: rt.state.load.clone(),
            sessions: rt
                .admitted
                .iter()
                .map(|a| SessionImage {
                    alive: a.alive,
                    demand: a.session.demand,
                    members: a.session.members.iter().map(|m| m.0).collect(),
                    hops: a
                        .tree
                        .hops
                        .iter()
                        .map(|h| HopImage {
                            a: h.a as u32,
                            b: h.b as u32,
                            src: h.path.src.0,
                            dst: h.path.dst.0,
                            edges: h.path.edges.iter().map(|e| e.0).collect(),
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Validates every semantic invariant a flipped bit could violate —
    /// positive finite capacities/lengths/demands/ρ, in-range node/edge/
    /// member indices, distinct session members, trees that actually span
    /// and embed — and reassembles the runtime bit-identically. Errors
    /// are plain strings; the format decoders wrap them with their
    /// line/offset context.
    pub(crate) fn assemble(self) -> Result<Runtime, String> {
        if !(self.rho > 0.0 && self.rho.is_finite()) {
            return Err(format!("step size must be positive and finite, got {}", self.rho));
        }
        let n = self.nodes.len();
        let m = self.edges.len();
        let mut b = GraphBuilder::new(n);
        for (idx, &(x, y)) in self.nodes.iter().enumerate() {
            b.set_position(NodeId(idx as u32), x, y);
        }
        for &(u, v, cap) in &self.edges {
            if u as usize >= n || v as usize >= n || u == v {
                return Err(format!("bad edge endpoints {u}-{v}"));
            }
            if !(cap > 0.0 && cap.is_finite()) {
                return Err(format!("capacity must be positive and finite, got {cap}"));
            }
            b.add_edge(NodeId(u), NodeId(v), cap);
        }
        let graph = Arc::new(b.finish());

        if self.lengths.len() != m {
            return Err(format!("expected {m} length words, got {}", self.lengths.len()));
        }
        if let Some(bad) = self.lengths.iter().find(|l| !(**l > 0.0 && l.is_finite())) {
            return Err(format!("length must be positive and finite, got {bad}"));
        }
        if self.loads.len() != m {
            return Err(format!("expected {m} load words, got {}", self.loads.len()));
        }
        if let Some(bad) = self.loads.iter().find(|l| !(**l >= 0.0 && l.is_finite())) {
            return Err(format!("load must be nonnegative and finite, got {bad}"));
        }

        let mut admitted = Vec::with_capacity(self.sessions.len());
        for (i, s) in self.sessions.into_iter().enumerate() {
            if !(s.demand > 0.0 && s.demand.is_finite()) {
                return Err(format!(
                    "session {i}: demand must be positive and finite, got {}",
                    s.demand
                ));
            }
            let k = s.members.len();
            if k < 2 {
                return Err(format!("session {i}: needs at least 2 members, got {k}"));
            }
            if s.members.iter().any(|node| *node as usize >= n) {
                return Err(format!("session {i}: member out of range"));
            }
            let mut dedup = s.members.clone();
            dedup.sort_unstable();
            dedup.dedup();
            if dedup.len() != k {
                return Err(format!("session {i}: duplicate session members"));
            }
            let session =
                Session::new(s.members.iter().map(|&mm| NodeId(mm)).collect::<Vec<_>>(), s.demand);

            let mut hops = Vec::with_capacity(s.hops.len());
            for h in &s.hops {
                if h.edges.iter().any(|e| *e as usize >= m) {
                    return Err(format!("session {i}: hop path edge out of range"));
                }
                hops.push(OverlayHop {
                    a: h.a as usize,
                    b: h.b as usize,
                    path: Path {
                        src: NodeId(h.src),
                        dst: NodeId(h.dst),
                        edges: h.edges.iter().map(|&e| EdgeId(e)).collect(),
                    },
                });
            }
            let tree = OverlayTree { session: i, hops };
            if let Err(what) = check_tree(&session, &tree, &graph) {
                return Err(format!("session {i}: {what}"));
            }
            let contribution =
                Contribution { edges: tree.edge_multiplicities(), amount: session.demand };
            admitted.push(Admitted { session, tree, contribution, alive: s.alive });
        }

        // Reassemble the engine state: bit-exact lengths/loads, a fresh
        // epoch clock, and the store and the per-edge index rebuilt from
        // the live admission log.
        let mut state = EngineState::online(&graph);
        for (e, bits) in self.lengths.iter().enumerate() {
            state.lengths.set_edge(e, *bits);
        }
        state.load = self.loads;
        state.mst_ops = self.mst_ops;
        state.iterations = self.iterations;
        for a in &admitted {
            let slot = state.store.push_session();
            if a.alive {
                debug_assert_eq!(slot, a.tree.session);
                state.store.add(a.tree.clone(), a.session.demand);
            }
        }

        let mut rt = Runtime::new(Arc::clone(&graph), RuntimeConfig::new(self.rho, self.routing));
        rt.state = state;
        rt.index = EdgeIndex::build(m, &admitted);
        rt.admitted = admitted;
        rt.events_processed = self.events;
        Ok(rt)
    }
}

impl Runtime {
    /// Serializes the full runtime state to the **legacy v1 text
    /// format**. New persistence should prefer the compact binary
    /// [`Self::snapshot_v2`]; this stays for debuggability (the blob is
    /// line-oriented and greppable) and for tools still speaking v1.
    #[must_use]
    pub fn snapshot(&self) -> String {
        let _span = omcf_telemetry::span("runtime.snapshot");
        let t0 = omcf_telemetry::enabled().then(std::time::Instant::now);
        let g = &self.graph;
        let mut out = String::new();
        let _ = writeln!(out, "{HEADER}");
        let _ = writeln!(out, "rho {:016x}", self.rho.to_bits());
        let _ = writeln!(out, "routing {}", self.routing.label());
        let _ = writeln!(out, "events {}", self.events_processed);
        let _ = writeln!(out, "counters {} {}", self.state.mst_ops, self.state.iterations);
        let _ = writeln!(out, "graph {} {}", g.node_count(), g.edge_count());
        for n in g.nodes() {
            let (x, y) = g.position(n);
            let _ = writeln!(out, "node {} {:016x} {:016x}", n.0, x.to_bits(), y.to_bits());
        }
        for e in g.edge_ids() {
            let edge = g.edge(e);
            let _ =
                writeln!(out, "edge {} {} {:016x}", edge.u.0, edge.v.0, edge.capacity.to_bits());
        }
        let _ = write!(out, "lengths");
        for l in self.state.lengths.stored() {
            let _ = write!(out, " {:016x}", l.to_bits());
        }
        out.push('\n');
        let _ = write!(out, "loads");
        for l in &self.state.load {
            let _ = write!(out, " {:016x}", l.to_bits());
        }
        out.push('\n');
        let _ = writeln!(out, "admitted {}", self.admitted.len());
        for (i, a) in self.admitted.iter().enumerate() {
            let _ = write!(
                out,
                "session {i} {} {:016x} {}",
                u8::from(a.alive),
                a.session.demand.to_bits(),
                a.session.members.len()
            );
            for m in &a.session.members {
                let _ = write!(out, " {}", m.0);
            }
            out.push('\n');
            let _ = writeln!(out, "hops {i} {}", a.tree.hops.len());
            for h in &a.tree.hops {
                let _ = write!(
                    out,
                    "hop {} {} {} {} {}",
                    h.a,
                    h.b,
                    h.path.src.0,
                    h.path.dst.0,
                    h.path.edges.len()
                );
                for e in h.path.edges.iter() {
                    let _ = write!(out, " {}", e.0);
                }
                out.push('\n');
            }
        }
        out.push_str("end\n");
        if let Some(t0) = t0 {
            stats::RUNTIME_SNAPSHOT_BYTES.observe(out.len() as u64);
            stats::RUNTIME_SNAPSHOT_US.observe_duration(t0.elapsed());
        }
        out
    }

    /// Restores a runtime from either snapshot format: the v2 binary
    /// magic is sniffed first, anything else is handed to the v1 text
    /// parser. This is the restore entry point a service should use — a
    /// fleet upgraded to v2 can still load its pre-upgrade v1 blobs.
    pub fn restore_bytes(bytes: &[u8]) -> Result<Runtime, SnapshotError> {
        if crate::snapshot_v2::is_v2(bytes) {
            return Runtime::restore_v2(bytes);
        }
        match std::str::from_utf8(bytes) {
            Ok(text) => Runtime::restore(text),
            Err(_) => Err(SnapshotError::UnsupportedVersion("<non-UTF-8 binary data>".into())),
        }
    }

    /// Restores a runtime from [`Self::snapshot`] (v1 text) output. The
    /// restored state is bit-identical: lengths, loads, counters,
    /// admission log and the reconstructed flow store all match the
    /// snapshotted runtime exactly.
    ///
    /// Corruption is an `Err`, never a panic: beyond line-shape parsing,
    /// every semantic invariant a flipped bit could violate is checked by
    /// the shared `SnapshotImage::assemble`, so a service restoring a
    /// persisted blob can handle a bad one instead of aborting.
    pub fn restore(text: &str) -> Result<Runtime, SnapshotError> {
        // Every node/edge/session record occupies at least one line, so
        // the line count bounds any declared count a corrupt header could
        // inflate (guards the pre-allocations below).
        let total_lines = text.lines().count();
        let mut p = Parser { lines: text.lines().enumerate(), line: 0 };
        let header = p.next_line()?;
        if header != HEADER {
            return Err(SnapshotError::UnsupportedVersion(header.to_string()));
        }
        let rho = f64::from_bits(p.tagged_u64_hex("rho")?);
        let routing = match p.tagged_str("routing")?.as_str() {
            "fixed-ip" => RoutingMode::FixedIp,
            "arbitrary" => RoutingMode::Arbitrary,
            other => return Err(p.err(format!("unknown routing `{other}`"))),
        };
        let events = p.tagged_u64("events")?;
        let (mst_ops, iterations) = {
            let toks = p.tagged_tokens("counters", 2)?;
            (p.parse_u64(&toks[0])?, p.parse_u64(&toks[1])?)
        };
        let (n, m) = {
            let toks = p.tagged_tokens("graph", 2)?;
            (p.parse_usize(&toks[0])?, p.parse_usize(&toks[1])?)
        };
        if n > total_lines || m > total_lines {
            return Err(p.err(format!("implausible graph dimensions {n}x{m}")));
        }
        let mut nodes = vec![(0.0, 0.0); n];
        for _ in 0..n {
            let toks = p.tagged_tokens("node", 3)?;
            let idx = p.parse_usize(&toks[0])?;
            if idx >= n {
                return Err(p.err(format!("node index {idx} out of range")));
            }
            let x = f64::from_bits(p.parse_u64_hex(&toks[1])?);
            let y = f64::from_bits(p.parse_u64_hex(&toks[2])?);
            nodes[idx] = (x, y);
        }
        let mut edges = Vec::with_capacity(m);
        for _ in 0..m {
            let toks = p.tagged_tokens("edge", 3)?;
            let u = p.parse_usize(&toks[0])?;
            let v = p.parse_usize(&toks[1])?;
            let cap = f64::from_bits(p.parse_u64_hex(&toks[2])?);
            edges.push((u as u32, v as u32, cap));
        }

        let lengths = p.tagged_f64_bits("lengths", m)?;
        let loads = p.tagged_f64_bits("loads", m)?;

        let admitted_count = p.tagged_u64("admitted")? as usize;
        if admitted_count > total_lines {
            return Err(p.err(format!("implausible admission count {admitted_count}")));
        }
        let mut sessions = Vec::with_capacity(admitted_count);
        for i in 0..admitted_count {
            let toks = p.line_tokens("session")?;
            if toks.len() < 4 {
                return Err(p.err("truncated session line".to_string()));
            }
            if p.parse_usize(&toks[0])? != i {
                return Err(p.err(format!("session index mismatch (expected {i})")));
            }
            let alive = match toks[1].as_str() {
                "0" => false,
                "1" => true,
                other => return Err(p.err(format!("bad alive flag `{other}`"))),
            };
            let demand = f64::from_bits(p.parse_u64_hex(&toks[2])?);
            let k = p.parse_usize(&toks[3])?;
            if toks.len() != 4 + k {
                return Err(p.err(format!("expected {k} members, got {}", toks.len() - 4)));
            }
            let members: Vec<u32> = toks[4..]
                .iter()
                .map(|t| p.parse_usize(t).map(|v| v as u32))
                .collect::<Result<_, _>>()?;

            let hop_toks = p.tagged_tokens("hops", 2)?;
            if p.parse_usize(&hop_toks[0])? != i {
                return Err(p.err(format!("hops index mismatch (expected {i})")));
            }
            let hop_count = p.parse_usize(&hop_toks[1])?;
            if hop_count > total_lines {
                return Err(p.err(format!("implausible hop count {hop_count}")));
            }
            let mut hops = Vec::with_capacity(hop_count);
            for _ in 0..hop_count {
                let t = p.line_tokens("hop")?;
                if t.len() < 5 {
                    return Err(p.err("truncated hop line".to_string()));
                }
                let a = p.parse_usize(&t[0])?;
                let hb = p.parse_usize(&t[1])?;
                let src = p.parse_usize(&t[2])? as u32;
                let dst = p.parse_usize(&t[3])? as u32;
                let ne = p.parse_usize(&t[4])?;
                if t.len() != 5 + ne {
                    return Err(p.err(format!("expected {ne} path edges, got {}", t.len() - 5)));
                }
                let hop_edges: Vec<u32> = t[5..]
                    .iter()
                    .map(|tok| p.parse_usize(tok).map(|v| v as u32))
                    .collect::<Result<_, _>>()?;
                hops.push(HopImage { a: a as u32, b: hb as u32, src, dst, edges: hop_edges });
            }
            sessions.push(SessionImage { alive, demand, members, hops });
        }
        if p.next_line()? != "end" {
            return Err(p.err("missing `end` terminator".to_string()));
        }

        let image = SnapshotImage {
            rho,
            routing,
            events,
            mst_ops,
            iterations,
            nodes,
            edges,
            lengths,
            loads,
            sessions,
        };
        image.assemble().map_err(|what| p.err(what))
    }
}

/// Non-panicking twin of `OverlayTree::validate` for untrusted snapshot
/// input: checks that the hops span the session's member indices without
/// cycles and that every hop's path is a walk through `g` joining the
/// right members. Indices into `g` must already be bounds-checked.
fn check_tree(
    session: &Session,
    tree: &OverlayTree,
    g: &omcf_topology::Graph,
) -> Result<(), String> {
    let k = session.size();
    if tree.hops.len() != k - 1 {
        return Err(format!("tree must have {} hops, got {}", k - 1, tree.hops.len()));
    }
    let mut parent: Vec<usize> = (0..k).collect();
    fn root(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for h in &tree.hops {
        if h.a >= k || h.b >= k || h.a == h.b {
            return Err(format!("bad hop endpoints {}-{}", h.a, h.b));
        }
        let (ra, rb) = (root(&mut parent, h.a), root(&mut parent, h.b));
        if ra == rb {
            return Err("cycle in overlay tree".to_string());
        }
        parent[ra] = rb;
        let (pa, pb) = (session.members[h.a], session.members[h.b]);
        if !((h.path.src == pa && h.path.dst == pb) || (h.path.src == pb && h.path.dst == pa)) {
            return Err("hop path endpoints disagree with members".to_string());
        }
        let mut cur = h.path.src;
        for &e in h.path.edges.iter() {
            let edge = g.edge(e);
            cur = if edge.u == cur {
                edge.v
            } else if edge.v == cur {
                edge.u
            } else {
                return Err(format!("path edge {e:?} not incident to walk"));
            };
        }
        if cur != h.path.dst {
            return Err("hop path does not reach its destination".to_string());
        }
    }
    Ok(())
}

/// Line-cursor with tagged-line helpers; every error carries the 1-based
/// line number.
struct Parser<'a> {
    lines: std::iter::Enumerate<std::str::Lines<'a>>,
    line: usize,
}

impl Parser<'_> {
    fn err(&self, what: String) -> SnapshotError {
        SnapshotError::Malformed { line: self.line, what }
    }

    fn next_line(&mut self) -> Result<&str, SnapshotError> {
        match self.lines.next() {
            Some((i, l)) => {
                self.line = i + 1;
                Ok(l.trim_end())
            }
            None => {
                Err(SnapshotError::Malformed { line: self.line + 1, what: "unexpected end".into() })
            }
        }
    }

    /// Next line, checked to start with `tag`; returns the remaining
    /// whitespace-separated tokens.
    fn line_tokens(&mut self, tag: &str) -> Result<Vec<String>, SnapshotError> {
        let line = self.next_line()?.to_string();
        let mut toks = line.split_whitespace();
        match toks.next() {
            Some(t) if t == tag => Ok(toks.map(str::to_string).collect()),
            other => Err(self.err(format!("expected `{tag}` line, got `{}`", other.unwrap_or("")))),
        }
    }

    fn tagged_tokens(&mut self, tag: &str, n: usize) -> Result<Vec<String>, SnapshotError> {
        let toks = self.line_tokens(tag)?;
        if toks.len() == n {
            Ok(toks)
        } else {
            Err(self.err(format!("`{tag}` expects {n} fields, got {}", toks.len())))
        }
    }

    fn tagged_str(&mut self, tag: &str) -> Result<String, SnapshotError> {
        Ok(self.tagged_tokens(tag, 1)?.remove(0))
    }

    fn tagged_u64(&mut self, tag: &str) -> Result<u64, SnapshotError> {
        let tok = self.tagged_str(tag)?;
        self.parse_u64(&tok)
    }

    fn tagged_u64_hex(&mut self, tag: &str) -> Result<u64, SnapshotError> {
        let tok = self.tagged_str(tag)?;
        self.parse_u64_hex(&tok)
    }

    fn tagged_f64_bits(&mut self, tag: &str, n: usize) -> Result<Vec<f64>, SnapshotError> {
        let toks = self.tagged_tokens(tag, n)?;
        toks.iter().map(|t| self.parse_u64_hex(t).map(f64::from_bits)).collect()
    }

    fn parse_u64(&self, t: &str) -> Result<u64, SnapshotError> {
        t.parse().map_err(|_| self.err(format!("bad integer `{t}`")))
    }

    fn parse_usize(&self, t: &str) -> Result<usize, SnapshotError> {
        t.parse().map_err(|_| self.err(format!("bad index `{t}`")))
    }

    fn parse_u64_hex(&self, t: &str) -> Result<u64, SnapshotError> {
        u64::from_str_radix(t, 16).map_err(|_| self.err(format!("bad hex word `{t}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_topology::canned;

    fn populated_runtime() -> Runtime {
        let g = canned::grid(4, 4, 10.0);
        let mut rt = Runtime::new(g, RuntimeConfig::new(25.0, RoutingMode::FixedIp));
        let a = rt.join(Session::new(vec![NodeId(0), NodeId(15)], 1.0));
        let _b = rt.join(Session::new(vec![NodeId(3), NodeId(12), NodeId(6)], 2.0));
        let _ = rt.leave(a);
        let _c = rt.join(Session::new(vec![NodeId(1), NodeId(14)], 1.0));
        rt
    }

    #[test]
    fn snapshot_roundtrip_is_bit_identical() {
        let rt = populated_runtime();
        let snap = rt.snapshot();
        let restored = Runtime::restore(&snap).expect("restore");
        assert_eq!(restored.snapshot(), snap, "snapshot of a restore re-serializes identically");
        assert_eq!(restored.live_count(), rt.live_count());
        assert_eq!(restored.admitted_count(), rt.admitted_count());
        assert_eq!(restored.events_processed(), rt.events_processed());
        assert_eq!(restored.mst_ops(), rt.mst_ops());
        for (a, b) in restored.lengths().iter().zip(rt.lengths()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in restored.load().iter().zip(rt.load()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let (ra, rb) = (restored.saturating_rates(), rt.saturating_rates());
        assert_eq!(ra.len(), rb.len());
        for ((ia, va), (ib, vb)) in ra.iter().zip(&rb) {
            assert_eq!(ia, ib);
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn rejects_unknown_version_and_garbage() {
        let err = Runtime::restore("omcf-runtime-snapshot v999\n").unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(_)), "{err}");
        let err = Runtime::restore("not a snapshot").unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(_)), "{err}");
        let rt = populated_runtime();
        let snap = rt.snapshot();
        let truncated = &snap[..snap.len() / 2];
        let err = Runtime::restore(truncated).unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed { .. }), "{err}");
        let corrupted = snap.replace("routing fixed-ip", "routing pigeon");
        let err = Runtime::restore(&corrupted).unwrap_err();
        assert!(err.to_string().contains("pigeon"), "{err}");
    }

    #[test]
    fn restore_bytes_accepts_v1_text() {
        let rt = populated_runtime();
        let snap = rt.snapshot();
        let restored = Runtime::restore_bytes(snap.as_bytes()).expect("restore v1 via bytes");
        assert_eq!(restored.snapshot(), snap);
        let err = Runtime::restore_bytes(&[0xff, 0xfe, 0x00, 0x01]).unwrap_err();
        assert!(matches!(err, SnapshotError::UnsupportedVersion(_)), "{err}");
    }

    /// Corruption that still parses as hex/integers must come back as a
    /// `SnapshotError`, never a downstream panic or abort — the restore
    /// path is a `Result` contract a service can actually handle.
    #[test]
    fn semantically_corrupt_snapshots_return_errors_not_panics() {
        let snap = populated_runtime().snapshot();
        type Mutation = Box<dyn Fn(&str) -> String>;
        let zero = "0000000000000000";
        let mutations: Vec<(&str, Mutation)> = vec![
            ("zero rho", Box::new(|s: &str| rewrite(s, "rho", 1, zero))),
            ("zero length word", Box::new(|s: &str| rewrite(s, "lengths", 1, zero))),
            ("negative load word", Box::new(|s: &str| rewrite(s, "loads", 1, "bff0000000000000"))),
            ("zero capacity", Box::new(|s: &str| rewrite(s, "edge", 3, zero))),
            ("self-loop edge", Box::new(|s: &str| rewrite(s, "edge", 2, "0"))),
            ("huge node count", Box::new(|s: &str| rewrite(s, "graph", 1, "99999999999"))),
            ("huge admission count", Box::new(|s: &str| rewrite(s, "admitted", 1, "99999999999"))),
            ("zero demand", Box::new(|s: &str| rewrite(s, "session", 3, zero))),
            ("member out of range", Box::new(|s: &str| rewrite(s, "session", 5, "4096"))),
            ("out-of-range hop edge", Box::new(|s: &str| rewrite(s, "hop", 6, "9999"))),
            ("disconnected hop walk", Box::new(|s: &str| rewrite(s, "hop", 3, "2"))),
        ];
        for (what, mutate) in mutations {
            let bad = mutate(&snap);
            assert_ne!(bad, snap, "mutation `{what}` must change the blob");
            let err = Runtime::restore(&bad).expect_err(what);
            assert!(matches!(err, SnapshotError::Malformed { .. }), "{what}: {err}");
        }
    }

    /// Replaces field `field_idx` (0 = the tag itself) on the first line
    /// starting with `tag`.
    fn rewrite(snap: &str, tag: &str, field_idx: usize, value: &str) -> String {
        let mut done = false;
        let lines: Vec<String> = snap
            .lines()
            .map(|l| {
                if done || !l.starts_with(&format!("{tag} ")) {
                    return l.to_string();
                }
                done = true;
                let mut toks: Vec<&str> = l.split_whitespace().collect();
                toks[field_idx] = value;
                toks.join(" ")
            })
            .collect();
        assert!(done, "no `{tag}` line found");
        lines.join("\n") + "\n"
    }
}
