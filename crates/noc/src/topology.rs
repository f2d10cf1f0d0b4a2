//! 2D-mesh topology and dimension-ordered (XY) routing.

/// A router/node position in the mesh, stored as a flat index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates a node id from `(x, y)` coordinates in a mesh `cols` wide.
    pub fn at(x: u32, y: u32, cols: u32) -> NodeId {
        NodeId(y * cols + x)
    }

    /// The `(x, y)` coordinates in a mesh `cols` wide.
    pub fn coords(&self, cols: u32) -> (u32, u32) {
        (self.0 % cols, self.0 / cols)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A router port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// The node-local injection/ejection port.
    Local,
    /// Towards decreasing `y`.
    North,
    /// Towards increasing `y`.
    South,
    /// Towards increasing `x`.
    East,
    /// Towards decreasing `x`.
    West,
}

impl Direction {
    /// All five directions, Local first.
    pub const ALL: [Direction; 5] = [
        Direction::Local,
        Direction::North,
        Direction::South,
        Direction::East,
        Direction::West,
    ];

    /// Port index (0..5) for array indexing.
    pub fn index(&self) -> usize {
        match self {
            Direction::Local => 0,
            Direction::North => 1,
            Direction::South => 2,
            Direction::East => 3,
            Direction::West => 4,
        }
    }

    /// The port a flit sent out of `self` arrives on downstream.
    pub fn opposite(&self) -> Direction {
        match self {
            Direction::Local => Direction::Local,
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }
}

/// A `cols × rows` 2D mesh.
///
/// # Examples
///
/// ```
/// use autoplat_noc::{Mesh, NodeId, Direction};
///
/// let mesh = Mesh::new(4, 4);
/// let src = NodeId::at(0, 0, 4);
/// let dst = NodeId::at(2, 3, 4);
/// // XY routing goes East first.
/// assert_eq!(mesh.route_xy(src, dst), Direction::East);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mesh {
    cols: u32,
    rows: u32,
}

impl Mesh {
    /// Creates a mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(cols: u32, rows: u32) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be non-zero");
        Mesh { cols, rows }
    }

    /// Mesh width.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Mesh height.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.cols * self.rows
    }

    /// Whether `node` is inside the mesh.
    pub fn contains(&self, node: NodeId) -> bool {
        node.0 < self.nodes()
    }

    /// The neighbour of `node` in `dir`, if any (`Local` has none).
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let (x, y) = node.coords(self.cols);
        match dir {
            Direction::Local => None,
            Direction::North => y.checked_sub(1).map(|y| NodeId::at(x, y, self.cols)),
            Direction::South => {
                if y + 1 < self.rows {
                    Some(NodeId::at(x, y + 1, self.cols))
                } else {
                    None
                }
            }
            Direction::East => {
                if x + 1 < self.cols {
                    Some(NodeId::at(x + 1, y, self.cols))
                } else {
                    None
                }
            }
            Direction::West => x.checked_sub(1).map(|x| NodeId::at(x, y, self.cols)),
        }
    }

    /// Dimension-ordered routing: the output port at `current` towards
    /// `dest` (X first, then Y; `Local` when arrived).
    ///
    /// # Panics
    ///
    /// Panics if either node is outside the mesh.
    pub fn route_xy(&self, current: NodeId, dest: NodeId) -> Direction {
        assert!(
            self.contains(current) && self.contains(dest),
            "node outside mesh"
        );
        let (cx, cy) = current.coords(self.cols);
        let (dx, dy) = dest.coords(self.cols);
        if cx < dx {
            Direction::East
        } else if cx > dx {
            Direction::West
        } else if cy < dy {
            Direction::South
        } else if cy > dy {
            Direction::North
        } else {
            Direction::Local
        }
    }

    /// Manhattan hop count between two nodes.
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay) = a.coords(self.cols);
        let (bx, by) = b.coords(self.cols);
        ax.abs_diff(bx) + ay.abs_diff(by)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let m = Mesh::new(5, 3);
        for n in 0..m.nodes() {
            let id = NodeId(n);
            let (x, y) = id.coords(5);
            assert_eq!(NodeId::at(x, y, 5), id);
        }
    }

    #[test]
    fn neighbors_at_edges() {
        let m = Mesh::new(3, 3);
        let corner = NodeId::at(0, 0, 3);
        assert_eq!(m.neighbor(corner, Direction::North), None);
        assert_eq!(m.neighbor(corner, Direction::West), None);
        assert_eq!(
            m.neighbor(corner, Direction::East),
            Some(NodeId::at(1, 0, 3))
        );
        assert_eq!(
            m.neighbor(corner, Direction::South),
            Some(NodeId::at(0, 1, 3))
        );
        assert_eq!(m.neighbor(corner, Direction::Local), None);
    }

    #[test]
    fn xy_routing_goes_x_first() {
        let m = Mesh::new(4, 4);
        let src = NodeId::at(0, 0, 4);
        let dst = NodeId::at(3, 2, 4);
        assert_eq!(m.route_xy(src, dst), Direction::East);
        let mid = NodeId::at(3, 0, 4);
        assert_eq!(m.route_xy(mid, dst), Direction::South);
        assert_eq!(m.route_xy(dst, dst), Direction::Local);
        assert_eq!(m.route_xy(dst, src), Direction::West);
        assert_eq!(m.route_xy(NodeId::at(0, 2, 4), src), Direction::North);
    }

    #[test]
    fn routing_walk_terminates_in_hops() {
        let m = Mesh::new(6, 4);
        let src = NodeId::at(5, 3, 6);
        let dst = NodeId::at(0, 0, 6);
        let mut cur = src;
        let mut steps = 0;
        while cur != dst {
            let dir = m.route_xy(cur, dst);
            cur = m.neighbor(cur, dir).expect("route leads inside the mesh");
            steps += 1;
            assert!(steps <= 20, "routing must terminate");
        }
        assert_eq!(steps, m.hops(src, dst));
    }

    #[test]
    fn opposite_is_involution() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn port_indices_unique() {
        let mut seen = [false; 5];
        for d in Direction::ALL {
            assert!(!seen[d.index()]);
            seen[d.index()] = true;
        }
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn routing_rejects_foreign_nodes() {
        let m = Mesh::new(2, 2);
        let _ = m.route_xy(NodeId(0), NodeId(99));
    }
}
