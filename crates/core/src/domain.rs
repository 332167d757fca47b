//! Sets, maps and dats — the OP2 mesh declaration layer.
//!
//! A [`Domain`] owns the *global* (unpartitioned) view of the mesh:
//! declarations mirror OP2's `op_decl_set` / `op_decl_map` / `op_decl_dat`.
//! The distributed back-ends later slice this view into per-rank local
//! pieces; applications and the sequential reference executor work on the
//! global view directly.

use crate::error::{CoreError, Result};

/// Index of a [`Set`] within its [`Domain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetId(pub u32);

/// Index of a [`MapData`] within its [`Domain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MapId(pub u32);

/// Index of a [`DatData`] within its [`Domain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DatId(pub u32);

impl SetId {
    /// The raw index, for use as a `Vec` subscript.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl MapId {
    /// The raw index, for use as a `Vec` subscript.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}
impl DatId {
    /// The raw index, for use as a `Vec` subscript.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A collection of mesh elements of one kind (`op_set`).
#[derive(Debug, Clone)]
pub struct Set {
    /// Human-readable name, unique within the domain.
    pub name: String,
    /// Number of elements.
    pub size: usize,
}

/// Explicit connectivity from every element of `from` to `arity` elements
/// of `to` (`op_map`). Entry `i` of element `e` lives at
/// `values[e * arity + i]`.
#[derive(Debug, Clone)]
pub struct MapData {
    /// Human-readable name, unique within the domain.
    pub name: String,
    /// Iteration-side set.
    pub from: SetId,
    /// Data-side set.
    pub to: SetId,
    /// Number of target elements per source element.
    pub arity: usize,
    /// Flattened `from.size * arity` target indices.
    pub values: Vec<u32>,
}

/// Data attached to every element of a set (`op_dat`). All dats are `f64`;
/// an element occupies `dim` consecutive values, so the per-element payload
/// is `dim * 8` bytes (the `δ` of Eq 4 in the paper).
#[derive(Debug, Clone)]
pub struct DatData {
    /// Human-readable name, unique within the domain.
    pub name: String,
    /// Owning set.
    pub set: SetId,
    /// Components per element.
    pub dim: usize,
    /// Flattened `set.size * dim` values.
    pub data: Vec<f64>,
    /// See [`DatData::known_zero`].
    zeroed: bool,
}

impl DatData {
    /// True while the dat holds what [`Domain::decl_dat_zeros`] gave it,
    /// every value `+0.0`: [`Domain::dat_mut`], the one mutable path to
    /// a dat, has not been called on it since.
    #[inline]
    pub fn known_zero(&self) -> bool {
        self.zeroed
    }

    /// Per-element payload in bytes (`δ` in Eq 4).
    #[inline]
    pub fn elem_bytes(&self) -> usize {
        self.dim * std::mem::size_of::<f64>()
    }
}

/// The global, unpartitioned mesh declaration: every set, map and dat.
#[derive(Debug, Clone, Default)]
pub struct Domain {
    sets: Vec<Set>,
    maps: Vec<MapData>,
    dats: Vec<DatData>,
}

impl Domain {
    /// An empty domain.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a set of `size` elements (`op_decl_set`).
    pub fn decl_set(&mut self, name: &str, size: usize) -> SetId {
        debug_assert!(
            self.set_by_name(name).is_none(),
            "duplicate set name `{name}`"
        );
        self.sets.push(Set {
            name: name.to_string(),
            size,
        });
        SetId((self.sets.len() - 1) as u32)
    }

    /// Declare a map (`op_decl_map`). Validates that every entry is in
    /// range for the target set.
    pub fn decl_map(
        &mut self,
        name: &str,
        from: SetId,
        to: SetId,
        arity: usize,
        values: Vec<u32>,
    ) -> Result<MapId> {
        assert_eq!(
            values.len(),
            self.set(from).size * arity,
            "map `{name}`: values length must be from.size * arity"
        );
        let to_size = self.set(to).size;
        if let Some((entry, &v)) = values
            .iter()
            .enumerate()
            .find(|(_, &v)| v as usize >= to_size)
        {
            return Err(CoreError::MapOutOfRange {
                map: name.to_string(),
                entry,
                value: v as usize,
                to_size,
            });
        }
        self.maps.push(MapData {
            name: name.to_string(),
            from,
            to,
            arity,
            values,
        });
        Ok(MapId((self.maps.len() - 1) as u32))
    }

    /// Declare a dat (`op_decl_dat`) with initial `data`.
    pub fn decl_dat(&mut self, name: &str, set: SetId, dim: usize, data: Vec<f64>) -> DatId {
        assert_eq!(
            data.len(),
            self.set(set).size * dim,
            "dat `{name}`: data length must be set.size * dim"
        );
        self.dats.push(DatData {
            name: name.to_string(),
            set,
            dim,
            data,
            zeroed: false,
        });
        DatId((self.dats.len() - 1) as u32)
    }

    /// Declare a zero-initialised dat; it is [`DatData::known_zero`]
    /// until its first [`Domain::dat_mut`].
    pub fn decl_dat_zeros(&mut self, name: &str, set: SetId, dim: usize) -> DatId {
        let n = self.set(set).size * dim;
        let id = self.decl_dat(name, set, dim, vec![0.0; n]);
        self.dats[id.idx()].zeroed = true;
        id
    }

    /// Borrow a set.
    #[inline]
    pub fn set(&self, id: SetId) -> &Set {
        &self.sets[id.idx()]
    }

    /// Borrow a map.
    #[inline]
    pub fn map(&self, id: MapId) -> &MapData {
        &self.maps[id.idx()]
    }

    /// Mutably borrow a map — used by renumbering utilities
    /// (partition-local relabelling, shuffles). Callers must keep every
    /// value within the target set's range.
    #[inline]
    pub fn map_mut(&mut self, id: MapId) -> &mut MapData {
        &mut self.maps[id.idx()]
    }

    /// Borrow a dat.
    #[inline]
    pub fn dat(&self, id: DatId) -> &DatData {
        &self.dats[id.idx()]
    }

    /// Mutably borrow a dat's payload. This ends the dat's
    /// [`DatData::known_zero`] record, whatever the borrower writes.
    #[inline]
    pub fn dat_mut(&mut self, id: DatId) -> &mut DatData {
        let d = &mut self.dats[id.idx()];
        d.zeroed = false;
        d
    }

    /// All sets in declaration order.
    pub fn sets(&self) -> &[Set] {
        &self.sets
    }

    /// Element count of every set, in declaration order — the bound on
    /// each set's target index space that the owner-computes windows take.
    pub fn set_sizes(&self) -> Vec<usize> {
        self.sets.iter().map(|s| s.size).collect()
    }

    /// All maps in declaration order.
    pub fn maps(&self) -> &[MapData] {
        &self.maps
    }

    /// All dats in declaration order.
    pub fn dats(&self) -> &[DatData] {
        &self.dats
    }

    /// Number of declared sets.
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }

    /// Number of declared maps.
    pub fn n_maps(&self) -> usize {
        self.maps.len()
    }

    /// Number of declared dats.
    pub fn n_dats(&self) -> usize {
        self.dats.len()
    }

    /// Look a set up by name.
    pub fn set_by_name(&self, name: &str) -> Option<SetId> {
        self.sets
            .iter()
            .position(|s| s.name == name)
            .map(|i| SetId(i as u32))
    }

    /// Look a map up by name.
    pub fn map_by_name(&self, name: &str) -> Option<MapId> {
        self.maps
            .iter()
            .position(|m| m.name == name)
            .map(|i| MapId(i as u32))
    }

    /// Look a dat up by name.
    pub fn dat_by_name(&self, name: &str) -> Option<DatId> {
        self.dats
            .iter()
            .position(|d| d.name == name)
            .map(|i| DatId(i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 4);
        let edges = dom.decl_set("edges", 3);
        assert_eq!(dom.set(nodes).size, 4);
        assert_eq!(dom.set_by_name("edges"), Some(edges));
        assert_eq!(dom.set_by_name("cells"), None);

        let e2n = dom
            .decl_map("e2n", edges, nodes, 2, vec![0, 1, 1, 2, 2, 3])
            .unwrap();
        assert_eq!(dom.map(e2n).arity, 2);
        assert_eq!(dom.map_by_name("e2n"), Some(e2n));

        let x = dom.decl_dat("x", nodes, 2, vec![0.0; 8]);
        assert_eq!(dom.dat(x).elem_bytes(), 16);
        let z = dom.decl_dat_zeros("z", edges, 1);
        assert_eq!(dom.dat(z).data.len(), 3);
    }

    /// A zero declaration is recorded, survives a clone of the domain,
    /// and ends at the first mutable borrow; `decl_dat` records nothing,
    /// even for zero values.
    #[test]
    fn zero_record_survives_clone_and_ends_at_dat_mut() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 3);
        let z = dom.decl_dat_zeros("z", nodes, 2);
        let x = dom.decl_dat("x", nodes, 1, vec![0.0; 3]);
        assert!(dom.dat(z).known_zero());
        assert!(!dom.dat(x).known_zero());
        let mut copy = dom.clone();
        assert!(copy.dat(z).known_zero());
        let _ = copy.dat_mut(z);
        assert!(!copy.dat(z).known_zero());
        assert_eq!(copy.dat(z).data, vec![0.0; 6]);
        assert!(dom.dat(z).known_zero(), "the original keeps its record");
    }

    #[test]
    fn map_range_checked() {
        let mut dom = Domain::new();
        let nodes = dom.decl_set("nodes", 2);
        let edges = dom.decl_set("edges", 1);
        let err = dom.decl_map("bad", edges, nodes, 2, vec![0, 5]).unwrap_err();
        match err {
            CoreError::MapOutOfRange { entry, value, .. } => {
                assert_eq!(entry, 1);
                assert_eq!(value, 5);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
