//! Multicast sessions (the paper's commodities).

use omcf_numerics::Rng64;
use omcf_topology::{Graph, NodeId};

/// One overlay multicast session `K_i = (S_i, dem(i))`.
#[derive(Clone, Debug, PartialEq)]
pub struct Session {
    /// Members; `members[0]` is the data source, the rest are receivers.
    pub members: Vec<NodeId>,
    /// Demand `dem(i)` — only ratios between sessions matter for the
    /// concurrent-flow objective.
    pub demand: f64,
}

impl Session {
    /// Creates a session; validates ≥ 2 distinct members and a positive,
    /// finite demand (an infinite demand would turn M2's demand prescale
    /// into NaN).
    #[must_use]
    pub fn new(members: Vec<NodeId>, demand: f64) -> Self {
        assert!(members.len() >= 2, "a session needs a source and a receiver");
        assert!(
            demand.is_finite() && demand > 0.0,
            "demand must be positive and finite, got {demand}"
        );
        let mut sorted = members.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), members.len(), "duplicate session members");
        Self { members, demand }
    }

    /// Number of members `|S_i|`.
    #[must_use]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Number of receivers `|S_i| − 1`.
    #[must_use]
    pub fn receivers(&self) -> usize {
        self.members.len() - 1
    }

    /// The data source (first member).
    #[must_use]
    pub fn source(&self) -> NodeId {
        self.members[0]
    }
}

/// The set of concurrently competing sessions.
#[derive(Clone, Debug, Default)]
pub struct SessionSet {
    sessions: Vec<Session>,
}

impl SessionSet {
    /// Builds from a list of sessions.
    #[must_use]
    pub fn new(sessions: Vec<Session>) -> Self {
        assert!(!sessions.is_empty(), "at least one session required");
        Self { sessions }
    }

    /// Number of sessions `k`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when empty (only for `Default`-constructed sets).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Session by index.
    #[must_use]
    pub fn session(&self, i: usize) -> &Session {
        &self.sessions[i]
    }

    /// All sessions.
    #[must_use]
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Size of the largest session `|S_max|`.
    #[must_use]
    pub fn max_size(&self) -> usize {
        self.sessions.iter().map(Session::size).max().unwrap_or(0)
    }

    /// The paper's M1 objective weight for session `i`:
    /// `(|S_i| − 1) / (|S_max| − 1)`.
    #[must_use]
    pub fn m1_weight(&self, i: usize) -> f64 {
        self.sessions[i].receivers() as f64 / (self.max_size() as f64 - 1.0)
    }

    /// Appends a session (used by the online algorithm's arrival loop).
    pub fn push(&mut self, s: Session) {
        self.sessions.push(s);
    }
}

impl FromIterator<Session> for SessionSet {
    fn from_iter<I: IntoIterator<Item = Session>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

/// Draws `count` sessions of exactly `size` members each, sampled uniformly
/// without replacement from the nodes of `g` (sessions are independent and
/// may overlap each other, as in the paper's experiments). All sessions get
/// demand `demand`.
#[must_use]
pub fn random_sessions(
    g: &Graph,
    count: usize,
    size: usize,
    demand: f64,
    rng: &mut impl Rng64,
) -> SessionSet {
    assert!(size <= g.node_count(), "session larger than the graph");
    let sessions = (0..count)
        .map(|_| {
            let members = rng
                .sample_indices(g.node_count(), size)
                .into_iter()
                .map(|i| NodeId(i as u32))
                .collect();
            Session::new(members, demand)
        })
        .collect();
    SessionSet::new(sessions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omcf_numerics::Xoshiro256pp;
    use omcf_topology::canned;

    #[test]
    fn session_accessors() {
        let s = Session::new(vec![NodeId(3), NodeId(1), NodeId(7)], 100.0);
        assert_eq!(s.size(), 3);
        assert_eq!(s.receivers(), 2);
        assert_eq!(s.source(), NodeId(3));
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_members_rejected() {
        let _ = Session::new(vec![NodeId(1), NodeId(1)], 1.0);
    }

    #[test]
    #[should_panic(expected = "demand must be positive and finite, got inf")]
    fn infinite_demand_rejected() {
        let _ = Session::new(vec![NodeId(0), NodeId(1)], f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "demand must be positive and finite, got NaN")]
    fn nan_demand_rejected() {
        let _ = Session::new(vec![NodeId(0), NodeId(1)], f64::NAN);
    }

    #[test]
    #[should_panic(expected = "source and a receiver")]
    fn singleton_rejected() {
        let _ = Session::new(vec![NodeId(1)], 1.0);
    }

    #[test]
    fn m1_weights_match_paper() {
        // Paper §III-B: sessions of sizes 7 and 5 ⇒ weights 6/6 and 4/6.
        let set = SessionSet::new(vec![
            Session::new((0..7).map(NodeId).collect(), 100.0),
            Session::new((10..15).map(NodeId).collect(), 100.0),
        ]);
        assert_eq!(set.max_size(), 7);
        assert!((set.m1_weight(0) - 1.0).abs() < 1e-12);
        assert!((set.m1_weight(1) - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn random_sessions_have_distinct_members() {
        let g = canned::grid(5, 5, 1.0);
        let mut rng = Xoshiro256pp::new(1);
        let set = random_sessions(&g, 4, 6, 1.0, &mut rng);
        assert_eq!(set.len(), 4);
        for s in set.sessions() {
            assert_eq!(s.size(), 6);
            let mut m = s.members.clone();
            m.sort_unstable();
            m.dedup();
            assert_eq!(m.len(), 6);
        }
    }

    #[test]
    fn random_sessions_deterministic() {
        let g = canned::grid(5, 5, 1.0);
        let a = random_sessions(&g, 2, 5, 1.0, &mut Xoshiro256pp::new(9));
        let b = random_sessions(&g, 2, 5, 1.0, &mut Xoshiro256pp::new(9));
        assert_eq!(a.sessions(), b.sessions());
    }
}
