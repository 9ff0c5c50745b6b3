//! Fully per-node distributed `DOMPartition_1` (Fig. 5).
//!
//! This is the honest message-passing realization of the contraction
//! cascade that the cluster engine (`crate::cluster`) otherwise executes
//! with charged rounds: every virtual operation of `BalancedDOM` on the
//! contracted cluster tree is routed through the real network —
//! intra-cluster broadcasts from the center, boundary crossings over the
//! (unique) tree edge between adjacent clusters, and aggregating
//! convergecasts back to the center. Rounds are **measured**; experiment
//! E20 compares them against the engine's charges.
//!
//! Two structural facts make the protocol lockstep-schedulable without
//! any coordination:
//!
//! * **Inherited orientation.** Each cluster is a connected subtree of
//!   the input rooted tree, so it has a unique *topmost* node whose tree
//!   parent lies outside; the cluster across that edge is the virtual
//!   parent. Every contraction level is thus properly rooted for free.
//! * **A-priori radius bounds.** Iteration `i` budgets its phases by
//!   `R_1 = 0`, `R_{i+1} = 3·R_i + 1` (the star-merge growth), so all
//!   nodes derive the same global timetable from `(k, id width)` alone —
//!   the same phase-scheduling trick `SimpleMST` uses.
//!
//! Each `BalancedDOM` virtual round is one *phase* of `2R+3` rounds:
//! a Down broadcast (`R+1`), one Cross round at the boundaries, and an
//! aggregating Up convergecast (`R+1`).

use kdom_congest::wire::{BitReader, BitWriter, Wire, WireError};
use kdom_congest::{Message, NodeCtx, Outbox, Port, Protocol, RunReport};
use kdom_graph::{Graph, NodeId, RootedTree};

use crate::dist::coloring::cv_schedule;
use crate::logstar::ceil_log2;

const NONE64: u64 = u64::MAX;

/// Width of one aggregate slot payload: a CONGEST word plus two packed
/// boolean flags. The Info segment's topmost crossing folds
/// `parent_cluster << 2 | parent_in_mis << 1 | present` into the `c`
/// slot, so slots are two bits wider than a bare 48-bit word.
const SLOT_BITS: u32 = 50;

/// Payload slots hold either a packed value (< 2^[`SLOT_BITS`]) or the
/// in-memory absence sentinel [`NONE64`]; on the wire the sentinel
/// travels as a cleared presence flag, not as 64 raw bits.
fn put_slot(w: &mut BitWriter, v: u64) {
    if v == NONE64 {
        w.flag(false);
    } else {
        w.flag(true);
        w.push(v, SLOT_BITS);
    }
}

fn get_slot(r: &mut BitReader<'_>) -> Result<u64, WireError> {
    Ok(if r.flag()? {
        r.pull(SLOT_BITS)?
    } else {
        NONE64
    })
}

/// Width of the segment-discriminator field (codes run 0..=36).
const SEG_BITS: u32 = 6;

/// Wire messages of the distributed partition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum P1Msg {
    /// Iteration-start exchange: the sender's cluster id.
    Xchg(u64),
    /// Intra-cluster broadcast away from the center.
    Down {
        /// Segment discriminator (lockstep check).
        seg: u8,
        /// Payload (color, flag, target id, fate…).
        a: u64,
    },
    /// Intra-cluster aggregating convergecast toward the center.
    Up {
        /// Segment discriminator.
        seg: u8,
        /// Min-aggregated slot.
        a: u64,
        /// Min-aggregated slot.
        b: u64,
        /// OR-aggregated slot.
        c: u64,
    },
    /// Boundary crossing: the sender's cluster id plus a payload.
    Cross {
        /// Segment discriminator.
        seg: u8,
        /// Sender's cluster id.
        cluster: u64,
        /// Payload.
        a: u64,
    },
    /// Merge wave re-homing a cluster onto its dominator.
    Wave {
        /// New cluster id (the dominator's center id).
        cluster: u64,
        /// Depth of the sender in the merged cluster.
        depth: u32,
    },
}

impl Wire for P1Msg {
    fn encode(&self, w: &mut BitWriter) {
        match self {
            P1Msg::Xchg(cl) => {
                w.tag(0, 5);
                w.word(*cl);
            }
            P1Msg::Down { seg, a } => {
                w.tag(1, 5);
                w.push(u64::from(*seg), SEG_BITS);
                put_slot(w, *a);
            }
            P1Msg::Up { seg, a, b, c } => {
                w.tag(2, 5);
                w.push(u64::from(*seg), SEG_BITS);
                put_slot(w, *a);
                put_slot(w, *b);
                put_slot(w, *c);
            }
            P1Msg::Cross { seg, cluster, a } => {
                w.tag(3, 5);
                w.push(u64::from(*seg), SEG_BITS);
                w.word(*cluster);
                put_slot(w, *a);
            }
            P1Msg::Wave { cluster, depth } => {
                w.tag(4, 5);
                w.word(*cluster);
                w.u32(*depth);
            }
        }
    }

    #[allow(clippy::cast_possible_truncation)]
    fn decode(r: &mut BitReader<'_>) -> Result<Self, WireError> {
        Ok(match r.tag(5)? {
            0 => P1Msg::Xchg(r.word()?),
            1 => P1Msg::Down {
                seg: r.pull(SEG_BITS)? as u8,
                a: get_slot(r)?,
            },
            2 => P1Msg::Up {
                seg: r.pull(SEG_BITS)? as u8,
                a: get_slot(r)?,
                b: get_slot(r)?,
                c: get_slot(r)?,
            },
            3 => P1Msg::Cross {
                seg: r.pull(SEG_BITS)? as u8,
                cluster: r.word()?,
                a: get_slot(r)?,
            },
            4 => P1Msg::Wave {
                cluster: r.word()?,
                depth: r.u32()?,
            },
            value => {
                return Err(WireError::BadTag {
                    context: "P1Msg",
                    value,
                })
            }
        })
    }
}

impl Message for P1Msg {}

/// Segment kinds within one iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Seg {
    Xchg,
    Cv(u32),
    Mis(u32),
    Info,
    Choose,
    Select,
    NewDom,
    Fate,
    MergePrep,
    Wave,
}

fn seg_from_code(code: u8) -> Seg {
    match code {
        0 => Seg::Xchg,
        10..=19 => Seg::Cv(u32::from(code - 10)),
        20..=25 => Seg::Mis(u32::from(code - 20)),
        30 => Seg::Info,
        31 => Seg::Choose,
        32 => Seg::Select,
        33 => Seg::NewDom,
        34 => Seg::Fate,
        35 => Seg::MergePrep,
        36 => Seg::Wave,
        _ => unreachable!("unknown segment code {code}"),
    }
}

fn seg_code(seg: Seg) -> u8 {
    match seg {
        Seg::Xchg => 0,
        Seg::Cv(j) => 10 + j as u8,
        Seg::Mis(c) => 20 + c as u8,
        Seg::Info => 30,
        Seg::Choose => 31,
        Seg::Select => 32,
        Seg::NewDom => 33,
        Seg::Fate => 34,
        Seg::MergePrep => 35,
        Seg::Wave => 36,
    }
}

/// Whether a segment is a Down/Cross/Up phase (length `2R+3`).
fn is_phase(seg: Seg) -> bool {
    matches!(
        seg,
        Seg::Cv(_) | Seg::Mis(_) | Seg::Info | Seg::Choose | Seg::Select | Seg::NewDom
    )
}

/// The deterministic global timetable shared by all nodes.
#[derive(Clone, Debug)]
pub struct Timetable {
    cv_iters: u32,
    starts: Vec<u64>,
    radius: Vec<u64>,
    /// First round after the whole schedule.
    pub end: u64,
}

impl Timetable {
    /// Builds the timetable for parameter `k` and the given id width.
    pub fn new(k: usize, id_bits: u32) -> Self {
        let iterations = ceil_log2(k as u64 + 1).max(1);
        let cv_iters = cv_schedule(id_bits);
        let mut starts = Vec::new();
        let mut radius = Vec::new();
        let mut t = 0u64;
        let mut r = 0u64;
        for _ in 0..iterations {
            starts.push(t);
            radius.push(r);
            t += Self::iteration_len(r, cv_iters);
            r = 3 * r + 1;
        }
        Timetable {
            cv_iters,
            starts,
            radius,
            end: t,
        }
    }

    fn phase_len(r: u64) -> u64 {
        2 * r + 3
    }

    fn wave_len(r: u64) -> u64 {
        2 * (3 * r + 1) + 2
    }

    fn iteration_len(r: u64, cv_iters: u32) -> u64 {
        1 + u64::from(cv_iters + 6 + 4) * Self::phase_len(r) + (r + 1) + 1 + Self::wave_len(r)
    }

    /// Segment layout of one iteration with radius bound `r`.
    fn segments(&self, r: u64) -> Vec<(Seg, u64)> {
        let mut v = Vec::new();
        v.push((Seg::Xchg, 1));
        for j in 0..self.cv_iters {
            v.push((Seg::Cv(j), Self::phase_len(r)));
        }
        for c in 0..6 {
            v.push((Seg::Mis(c), Self::phase_len(r)));
        }
        v.push((Seg::Info, Self::phase_len(r)));
        v.push((Seg::Choose, Self::phase_len(r)));
        v.push((Seg::Select, Self::phase_len(r)));
        v.push((Seg::NewDom, Self::phase_len(r)));
        v.push((Seg::Fate, r + 1));
        v.push((Seg::MergePrep, 1));
        v.push((Seg::Wave, Self::wave_len(r)));
        v
    }

    /// Locates a round: (radius bound, segment, offset, segment length).
    fn locate(&self, round: u64) -> Option<(u64, Seg, u64, u64)> {
        if round >= self.end {
            return None;
        }
        let i = match self.starts.binary_search(&round) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let r = self.radius[i];
        let mut t = round - self.starts[i];
        for (seg, len) in self.segments(r) {
            if t < len {
                return Some((r, seg, t, len));
            }
            t -= len;
        }
        unreachable!("iteration length covers all segments")
    }
}

/// Center-only scratch for one iteration.
#[derive(Clone, Debug, Default)]
struct CenterState {
    color: u64,
    in_mis: bool,
    blocked: bool,
    has_chooser: bool,
    lone: bool,
    min_any_neighbor: u64,
}

/// Per-node automaton of the distributed `DOMPartition_1`.
#[derive(Clone, Debug)]
pub struct Partition1Node {
    t_parent: Option<Port>,
    all_ports: Vec<Port>,
    tt: Timetable,
    /// Current cluster id (= the center's unique node id).
    pub cluster: u64,
    /// Whether this node is its cluster's center.
    pub is_center: bool,
    /// Port toward the center inside the cluster (`None` at the center).
    pub pc_parent: Option<Port>,
    /// Depth inside the cluster.
    pub depth: u32,
    // per-iteration wiring
    neighbor_cluster: Vec<(Port, u64)>,
    cluster_ports: Vec<Port>,
    topmost: bool,
    // per-segment scratch
    down_val: Option<u64>,
    /// Down payload stashed by the previous segment's end (survives the
    /// segment reset).
    pending_down: Option<u64>,
    up_acc: (u64, u64, u64),
    up_recv: usize,
    up_sent: bool,
    // boundary memory for the Fig. 4 steps
    chooser_ports: Vec<(Port, u64)>,
    // fate
    stay: bool,
    merge_target: Option<u64>,
    contact: Option<(Port, u32)>, // (port to the host cluster, host depth)
    wave_done: bool,
    center: CenterState,
    done: bool,
}

impl Partition1Node {
    /// A fresh automaton for a node of the input rooted tree.
    pub fn new(t_parent: Option<Port>, all_ports: Vec<Port>, k: usize, id: u64) -> Self {
        Partition1Node {
            t_parent,
            all_ports,
            tt: Timetable::new(k, 48),
            cluster: id,
            is_center: true,
            pc_parent: None,
            depth: 0,
            neighbor_cluster: Vec::new(),
            cluster_ports: Vec::new(),
            topmost: false,
            down_val: None,
            pending_down: None,
            up_acc: (NONE64, NONE64, 0),
            up_recv: 0,
            up_sent: false,
            chooser_ports: Vec::new(),
            stay: true,
            merge_target: None,
            contact: None,
            wave_done: false,
            center: CenterState::default(),
            done: false,
        }
    }

    fn cluster_children(&self) -> Vec<Port> {
        self.cluster_ports
            .iter()
            .copied()
            .filter(|p| Some(*p) != self.pc_parent)
            .collect()
    }

    fn boundary_ports(&self) -> Vec<(Port, u64)> {
        self.neighbor_cluster
            .iter()
            .copied()
            .filter(|(_, cl)| *cl != self.cluster)
            .collect()
    }

    fn reset_segment(&mut self) {
        self.down_val = None;
        self.up_acc = (NONE64, NONE64, 0);
        self.up_recv = 0;
        self.up_sent = false;
    }

    /// The Down payload a center emits at a phase start, updating its own
    /// state in the process. `None` means the cluster sits this phase out.
    fn center_payload(&mut self, seg: Seg) -> Option<u64> {
        let cs = &mut self.center;
        match seg {
            Seg::Cv(_) => Some(cs.color),
            Seg::Mis(c) => {
                if !cs.in_mis && !cs.blocked && cs.color == u64::from(c) {
                    cs.in_mis = true;
                }
                Some(u64::from(cs.in_mis))
            }
            Seg::Info => Some(u64::from(cs.in_mis)),
            Seg::Choose | Seg::Select | Seg::NewDom | Seg::Fate => {
                // decided at the previous segment's end
                self.pending_down.take()
            }
            _ => None,
        }
    }

    /// Node-local contribution folded into the Up aggregate. Set when the
    /// Cross round delivers boundary info (see `on_cross`).
    fn fold_up(&mut self, a: u64, b: u64, c: u64) {
        self.up_acc.0 = self.up_acc.0.min(a);
        self.up_acc.1 = self.up_acc.1.min(b);
        self.up_acc.2 |= c;
    }

    /// Handles one boundary crossing during a phase's Cross round.
    fn on_cross(&mut self, seg: Seg, port: Port, their_cluster: u64, a: u64) {
        match seg {
            Seg::Cv(_)
                // parent-cluster color reaches the topmost node
                if self.topmost && Some(port) == self.t_parent => {
                    self.fold_up(a, NONE64, 0);
                }
            Seg::Mis(_)
                if a == 1 => {
                    self.fold_up(NONE64, NONE64, 1); // some neighbor joined
                }
            Seg::Info => {
                // a = neighbor's in_mis flag
                if a == 1 {
                    self.fold_up(their_cluster, their_cluster, 0);
                } else {
                    self.fold_up(NONE64, their_cluster, 0);
                }
                if self.topmost && Some(port) == self.t_parent {
                    // bit0 = parent info present, bit1 = parent in MIS,
                    // bits 2.. = the parent cluster's id
                    self.fold_up(NONE64, NONE64, 1 | (a << 1) | (their_cluster << 2));
                }
            }
            Seg::Choose
                // a == 1 marks "I choose your cluster"
                if a == 1 => {
                    self.chooser_ports.push((port, their_cluster));
                    self.fold_up(NONE64, NONE64, 1);
                }
            Seg::Select
                if a == 1 => {
                    self.fold_up(NONE64, NONE64, 1); // our cluster got selected
                }
            Seg::NewDom => {
                // a = neighbor became a dominator this iteration
                if let Some(&(_, cl)) = self.chooser_ports.iter().find(|(p, _)| *p == port) {
                    if a == 1 {
                        self.fold_up(cl, NONE64, 0); // defected chooser
                    } else {
                        self.fold_up(NONE64, NONE64, 1); // a chooser remains
                    }
                }
            }
            Seg::MergePrep
                // a = (depth << 1) | stays
                if !self.stay
                    && self.merge_target == Some(their_cluster)
                    && a & 1 == 1
                    && self.contact.is_none()
                => {
                    self.contact = Some((port, (a >> 1) as u32));
                }
            _ => {}
        }
    }

    /// Center logic at the last round of a segment, consuming aggregates
    /// and stashing the next segment's Down payload where needed.
    fn on_segment_end(&mut self, seg: Seg) {
        if !self.is_center {
            // non-centers only finalize bookkeeping
            return;
        }
        let (a, b, c) = self.up_acc;
        match seg {
            Seg::Cv(_) => {
                let cs = &mut self.center;
                let parent_color = if a != NONE64 { Some(a) } else { None };
                let pc = parent_color.unwrap_or(cs.color ^ 1);
                let diff = cs.color ^ pc;
                debug_assert_ne!(diff, 0, "virtual coloring stays proper");
                let i = diff.trailing_zeros();
                cs.color = u64::from(2 * i) + ((cs.color >> i) & 1);
            }
            Seg::Mis(_) if c & 1 == 1 => {
                self.center.blocked = true;
            }
            Seg::Info => {
                // a = min MIS neighbor, b = min neighbor, c = flags | pcl<<2
                // the whole cluster saw no foreign neighbor ⟺ lone
                self.center.lone = b == NONE64;
                let parent_in_mis = if c & 1 == 1 { Some(c & 2 != 0) } else { None };
                let parent_cluster = if c & 1 == 1 { Some(c >> 2) } else { None };
                // stash the Choose payload: target cluster id or NONE
                self.pending_down = if !self.center.in_mis && !self.center.lone {
                    let target = match (parent_in_mis, parent_cluster) {
                        (Some(true), Some(pcl)) => pcl,
                        _ => a, // min-id MIS neighbor (MIS maximality: exists)
                    };
                    debug_assert_ne!(target, NONE64, "an MIS neighbor must exist");
                    self.merge_target = Some(target);
                    self.stay = false;
                    Some(target)
                } else {
                    None
                };
                // remember min-any neighbor for a potential Select
                self.center.has_chooser = false;
                self.center.min_any_neighbor = b;
            }
            Seg::Choose => {
                let _ = b;
                let min_any = self.center.min_any_neighbor;
                if c & 1 == 1 {
                    self.center.has_chooser = true;
                }
                // stash the Select payload
                self.pending_down =
                    if self.center.in_mis && !self.center.has_chooser && !self.center.lone {
                        // deserted singleton: follow the min-id neighbor
                        debug_assert_ne!(min_any, NONE64);
                        self.merge_target = Some(min_any);
                        self.stay = false;
                        Some(min_any)
                    } else {
                        None
                    };
            }
            Seg::Select => {
                // stash the NewDom payload: did we just get selected?
                self.pending_down = if c & 1 == 1 {
                    // we become a dominator; cancel our own choose
                    self.merge_target = None;
                    self.stay = true;
                    Some(1)
                } else {
                    None
                };
            }
            Seg::NewDom => {
                // a = min defected chooser, c = a chooser remains
                if self.center.in_mis && self.center.has_chooser && c & 1 == 0 {
                    // deserted center: follow a departed member
                    debug_assert_ne!(a, NONE64, "Lemma 3.3: someone departed");
                    self.merge_target = Some(a);
                    self.stay = false;
                }
                // stash the Fate payload
                self.pending_down = Some(self.merge_target.unwrap_or(NONE64));
            }
            _ => {}
        }
    }
}

impl Protocol for Partition1Node {
    type Msg = P1Msg;

    fn round(&mut self, ctx: &NodeCtx<'_>, inbox: &[(Port, P1Msg)], out: &mut Outbox<P1Msg>) {
        let Some((r, seg, off, len)) = self.tt.locate(ctx.round) else {
            self.done = true;
            return;
        };
        let code = seg_code(seg);
        let cross_round = r + 1; // within Down/Cross/Up phases
        let up_start = r + 2;

        // ——— intake ———
        for (p, m) in inbox {
            match m {
                P1Msg::Xchg(cl) => self.neighbor_cluster.push((*p, *cl)),
                P1Msg::Down { seg: s, a } => {
                    debug_assert_eq!(*s, code, "lockstep violated (down)");
                    self.down_val = Some(*a);
                    for q in self.cluster_children() {
                        out.send(q, P1Msg::Down { seg: *s, a: *a });
                    }
                    // record Fate payloads at members
                    if seg == Seg::Fate {
                        if *a == NONE64 {
                            self.stay = true;
                            self.merge_target = None;
                        } else {
                            self.stay = false;
                            self.merge_target = Some(*a);
                        }
                    }
                }
                P1Msg::Up { seg: s, a, b, c } => {
                    debug_assert_eq!(*s, code, "lockstep violated (up)");
                    self.up_recv += 1;
                    self.fold_up(*a, *b, *c);
                }
                P1Msg::Cross { seg: s, cluster, a } => {
                    // crossings sent in a segment's last round (MergePrep)
                    // arrive in the next segment: dispatch by their tag
                    self.on_cross(seg_from_code(*s), *p, *cluster, *a);
                }
                P1Msg::Wave { cluster, depth } => {
                    if !self.wave_done {
                        let old = self.cluster;
                        self.cluster = *cluster;
                        self.depth = depth + 1;
                        self.pc_parent = Some(*p);
                        self.is_center = false;
                        self.wave_done = true;
                        for (q, ncl) in self.neighbor_cluster.clone() {
                            if ncl == old && q != *p {
                                out.send(
                                    q,
                                    P1Msg::Wave {
                                        cluster: *cluster,
                                        depth: self.depth,
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }

        // ——— slot-start actions ———
        if off == 0 {
            match seg {
                Seg::Xchg => {
                    self.neighbor_cluster.clear();
                    self.chooser_ports.clear();
                    self.stay = true;
                    self.merge_target = None;
                    self.contact = None;
                    self.wave_done = false;
                    self.reset_segment();
                    if self.is_center {
                        self.center = CenterState {
                            color: ctx.id,
                            ..CenterState::default()
                        };
                    }
                    for &p in &self.all_ports.clone() {
                        out.send(p, P1Msg::Xchg(self.cluster));
                    }
                }
                Seg::MergePrep => {
                    let payload = (u64::from(self.depth) << 1) | u64::from(self.stay);
                    for (p, _) in self.boundary_ports() {
                        out.send(
                            p,
                            P1Msg::Cross {
                                seg: code,
                                cluster: self.cluster,
                                a: payload,
                            },
                        );
                    }
                }
                Seg::Wave => {
                    if let Some((port, host_depth)) = self.contact {
                        let old = self.cluster;
                        self.cluster = self.merge_target.expect("contact implies a target");
                        self.depth = host_depth + 1;
                        self.pc_parent = Some(port);
                        self.is_center = false;
                        self.wave_done = true;
                        for (q, ncl) in self.neighbor_cluster.clone() {
                            if ncl == old {
                                out.send(
                                    q,
                                    P1Msg::Wave {
                                        cluster: self.cluster,
                                        depth: self.depth,
                                    },
                                );
                            }
                        }
                    }
                }
                _ => {
                    self.reset_segment();
                    if seg == Seg::Cv(0) {
                        // wiring for the fresh contraction level
                        self.cluster_ports = self
                            .neighbor_cluster
                            .iter()
                            .filter(|(_, cl)| *cl == self.cluster)
                            .map(|(p, _)| *p)
                            .collect();
                        self.topmost = match self.t_parent {
                            None => true,
                            Some(tp) => self
                                .neighbor_cluster
                                .iter()
                                .any(|(p, cl)| *p == tp && *cl != self.cluster),
                        };
                        // NOTE: "lone" (no neighboring cluster anywhere)
                        // is only known after the Info convergecast
                    }
                    if self.is_center && is_phase(seg) {
                        if let Some(a) = self.center_payload(seg) {
                            self.down_val = Some(a);
                            for q in self.cluster_children() {
                                out.send(q, P1Msg::Down { seg: code, a });
                            }
                        }
                    }
                    if self.is_center && seg == Seg::Fate {
                        let a = self.pending_down.take().unwrap_or(NONE64);
                        for q in self.cluster_children() {
                            out.send(q, P1Msg::Down { seg: code, a });
                        }
                        if a == NONE64 {
                            self.stay = true;
                        } else {
                            self.stay = false;
                            self.merge_target = Some(a);
                        }
                    }
                }
            }
        }

        // ——— phase cross round ———
        if is_phase(seg) && off == cross_round {
            match seg {
                Seg::Cv(_) | Seg::Mis(_) | Seg::Info => {
                    // broadcast the cluster's value across every boundary
                    let a = self.down_val.unwrap_or_else(|| {
                        debug_assert!(self.is_center, "members got the Down by now");
                        0
                    });
                    for (p, _) in self.boundary_ports() {
                        out.send(
                            p,
                            P1Msg::Cross {
                                seg: code,
                                cluster: self.cluster,
                                a,
                            },
                        );
                    }
                }
                Seg::Choose | Seg::Select => {
                    // directed crossing to the target cluster only
                    if let Some(target) = self.down_val {
                        if target != NONE64 {
                            for (p, cl) in self.boundary_ports() {
                                if cl == target {
                                    out.send(
                                        p,
                                        P1Msg::Cross {
                                            seg: code,
                                            cluster: self.cluster,
                                            a: 1,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
                Seg::NewDom => {
                    let a = self.down_val.unwrap_or(0);
                    for (p, _) in self.boundary_ports() {
                        out.send(
                            p,
                            P1Msg::Cross {
                                seg: code,
                                cluster: self.cluster,
                                a,
                            },
                        );
                    }
                }
                _ => unreachable!("phases only"),
            }
        }

        // ——— phase up window ———
        if is_phase(seg)
            && off >= up_start
            && !self.up_sent
            && !self.is_center
            && self.up_recv >= self.cluster_children().len()
        {
            let (a, b, c) = self.up_acc;
            out.send(
                self.pc_parent.expect("non-center has a center-ward port"),
                P1Msg::Up { seg: code, a, b, c },
            );
            self.up_sent = true;
        }

        // ——— segment end: centers consume ———
        if off + 1 == len && is_phase(seg) {
            self.on_segment_end(seg);
        }

        if ctx.round + 1 >= self.tt.end {
            self.done = true;
        }
    }

    fn is_done(&self) -> bool {
        self.done
    }
}

/// Runs the distributed `DOMPartition_1` over a tree graph rooted at
/// `root`; returns the automata (cluster assignments) and the report.
///
/// # Panics
///
/// Panics if `g` is not a tree.
pub fn run_partition1(g: &Graph, root: NodeId, k: usize) -> (Vec<Partition1Node>, RunReport) {
    let t = RootedTree::from_graph(g, root);
    let nodes: Vec<Partition1Node> = g
        .nodes()
        .map(|v| {
            let t_parent = t.parent(v).map(|p| {
                Port(
                    g.neighbors(v)
                        .iter()
                        .position(|a| a.to == p)
                        .expect("tree edge"),
                )
            });
            let ports = (0..g.degree(v)).map(Port).collect();
            Partition1Node::new(t_parent, ports, k, g.id_of(v))
        })
        .collect();
    let budget = Timetable::new(k, 48).end + 16;
    kdom_congest::run_protocol(g, nodes, budget, kdom_congest::EngineConfig::default())
        .expect("partition1 quiesces")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastdom::clusters_to_clustering;
    use crate::verify::check_clusters;
    use kdom_graph::generators::Family;

    fn check_run(g: &Graph, k: usize) -> (usize, RunReport) {
        let (nodes, report) = run_partition1(g, NodeId(0), k);
        // reconstruct clusters from per-node state
        let id_to_node: std::collections::HashMap<u64, NodeId> =
            g.nodes().map(|v| (g.id_of(v), v)).collect();
        let mut members: std::collections::HashMap<u64, Vec<NodeId>> =
            std::collections::HashMap::new();
        for v in g.nodes() {
            members.entry(nodes[v.0].cluster).or_default().push(v);
        }
        let clusters: Vec<(NodeId, Vec<NodeId>)> = members
            .iter()
            .map(|(cid, m)| (id_to_node[cid], m.clone()))
            .collect();
        // centers flagged consistently
        for (center, m) in &clusters {
            assert!(nodes[center.0].is_center, "center flag at {center:?}");
            assert!(m.contains(center));
        }
        let cl = clusters_to_clustering(g.node_count(), &clusters);
        // connected clusters; Fig. 5 radius bound 4k² (loose)
        check_clusters(g, &cl, 1, 4 * (k as u32) * (k as u32).max(1)).unwrap();
        // size ≥ k+1 (Lemma 3.4) when the tree is big enough
        if g.node_count() > k {
            let min = clusters.iter().map(|(_, m)| m.len()).min().unwrap();
            assert!(min > k, "cluster of {min} < {}", k + 1);
        }
        // depths consistent with pc_parent pointers
        for v in g.nodes() {
            if let Some(p) = nodes[v.0].pc_parent {
                let w = g.neighbors(v)[p.0].to;
                assert_eq!(
                    nodes[w.0].cluster, nodes[v.0].cluster,
                    "{v:?} points inside"
                );
                assert_eq!(nodes[w.0].depth + 1, nodes[v.0].depth, "{v:?} depth chain");
            } else {
                assert_eq!(nodes[v.0].depth, 0);
                assert!(nodes[v.0].is_center);
            }
        }
        (clusters.len(), report)
    }

    #[test]
    fn partitions_paths() {
        for (n, k) in [(16usize, 1usize), (40, 3), (100, 7)] {
            let g = Family::Path.generate(n, 3);
            let (count, _) = check_run(&g, k);
            assert!(count >= 1 && count <= n / (k + 1).max(1) + 1);
        }
    }

    #[test]
    fn partitions_tree_families() {
        for fam in Family::TREES {
            for k in [1usize, 3, 7] {
                let g = fam.generate(80, 11);
                check_run(&g, k);
            }
        }
    }

    #[test]
    fn measured_rounds_match_timetable() {
        let g = Family::RandomTree.generate(120, 5);
        let k = 7;
        let (_, report) = check_run(&g, k);
        let tt = Timetable::new(k, 48);
        assert!(report.rounds >= tt.end - 1 && report.rounds <= tt.end + 2);
    }

    #[test]
    fn rounds_grow_with_k_not_n() {
        let k = 5;
        let tt = Timetable::new(k, 48);
        let (_, small) = check_run(&Family::RandomTree.generate(60, 7), k);
        let (_, large) = check_run(&Family::RandomTree.generate(600, 7), k);
        assert!(small.rounds.abs_diff(large.rounds) <= 2);
        assert!(large.rounds <= tt.end + 2);
    }
}
