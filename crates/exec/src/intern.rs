//! Dictionary encoding of instances: `Value → u32` codes and columnar batches.
//!
//! Tree-walking evaluation compares [`Value`]s — heap-allocated strings, enum tags —
//! at every step. The compiled engine instead interns the active domain of an
//! instance **once** into dense `u32` codes (constants first, then nulls, in the
//! deterministic [`Instance::adom_ordered`] order) and stores every relation as a
//! column-major batch of codes. All downstream operators work on codes: equality is
//! an integer compare, hashing is integer hashing, and "is this answer tuple free of
//! nulls?" is a single comparison against the constant count.

use std::collections::HashMap;

use nev_incomplete::{Constant, Instance, Value};

/// A per-instance interning dictionary: a bijection between `adom(D)` and the code
/// range `0..len`, with constants occupying the low codes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Dictionary {
    values: Vec<Value>,
    codes: HashMap<Value, u32>,
    const_count: u32,
}

impl Dictionary {
    /// Interns the active domain of an instance. Codes `0..const_count` are the
    /// constants of `D`, codes `const_count..len` its nulls.
    pub fn from_instance(d: &Instance) -> Self {
        let values = d.adom_ordered();
        let const_count = values.iter().take_while(|v| v.is_const()).count() as u32;
        let codes = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
        Dictionary {
            values,
            codes,
            const_count,
        }
    }

    /// Interns the active domain plus a set of extra constants that do not
    /// occur in the instance (e.g. constants mentioned only by a query).
    ///
    /// Extras are appended after the instance's own constants (deduplicated,
    /// in sorted order) and before the nulls, so the "constants occupy the
    /// low codes" invariant of [`Dictionary::is_const`] still holds and the
    /// codes of the instance's own values are unchanged relative to
    /// [`Dictionary::from_instance`].
    pub fn from_instance_with_extras<'a, I>(d: &Instance, extras: I) -> Self
    where
        I: IntoIterator<Item = &'a Constant>,
    {
        let adom = d.adom_ordered();
        let own_consts = adom.iter().take_while(|v| v.is_const()).count();
        let mut fresh: Vec<Value> = extras
            .into_iter()
            .map(|c| Value::Const(c.clone()))
            .filter(|v| !adom[..own_consts].contains(v))
            .collect();
        fresh.sort();
        fresh.dedup();
        let mut values = Vec::with_capacity(adom.len() + fresh.len());
        values.extend_from_slice(&adom[..own_consts]);
        values.extend(fresh);
        let const_count = values.len() as u32;
        values.extend_from_slice(&adom[own_consts..]);
        let codes = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
        Dictionary {
            values,
            codes,
            const_count,
        }
    }

    /// The code of a value, if the value occurs in the instance.
    pub fn code(&self, v: &Value) -> Option<u32> {
        self.codes.get(v).copied()
    }

    /// The value behind a code.
    ///
    /// # Panics
    /// Panics if the code is out of range.
    pub fn value(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// Returns `true` iff the code denotes a constant (not a null).
    pub fn is_const(&self, code: u32) -> bool {
        code < self.const_count
    }

    /// The size of the interned active domain.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` iff the active domain is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The number of constants in the active domain.
    pub fn const_count(&self) -> usize {
        self.const_count as usize
    }
}

/// One relation stored column-major: `cols[i][r]` is the code at position `i` of
/// row `r`. Rows follow the relation's deterministic tuple order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ColumnarRelation {
    arity: usize,
    len: usize,
    cols: Vec<Vec<u32>>,
}

impl ColumnarRelation {
    /// The arity of the relation.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` iff the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// One column of codes.
    pub fn col(&self, i: usize) -> &[u32] {
        &self.cols[i]
    }

    /// Materialises row `r` as a vector of codes.
    pub fn row(&self, r: usize) -> Vec<u32> {
        self.cols.iter().map(|c| c[r]).collect()
    }
}

/// An instance interned for compiled execution: the dictionary plus every
/// relation as a columnar code batch, addressed by a dense `u32` **relation
/// id** assigned in sorted-name order. The executor resolves each scanned name
/// to its id once and keys every per-relation cache (hash indexes) on the id —
/// no `String` clone or string hash on the hot path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InternedInstance {
    dict: Dictionary,
    /// Relation names in id order (sorted, so ids are deterministic).
    names: Vec<String>,
    ids: HashMap<String, u32>,
    relations: Vec<ColumnarRelation>,
}

impl InternedInstance {
    /// Interns an instance: builds the dictionary, encodes every relation
    /// column by column (via [`nev_incomplete::Relation::column`]), and assigns
    /// relation ids `0..n` in sorted-name order.
    pub fn new(d: &Instance) -> Self {
        let dict = Dictionary::from_instance(d);
        let mut encoded: Vec<(String, ColumnarRelation)> = d
            .relations()
            .map(|r| {
                let cols: Vec<Vec<u32>> = (0..r.arity())
                    .map(|i| {
                        r.column(i)
                            .map(|v| dict.code(v).expect("every relation value is in adom"))
                            .collect()
                    })
                    .collect();
                let rel = ColumnarRelation {
                    arity: r.arity(),
                    len: r.len(),
                    cols,
                };
                (r.name().to_string(), rel)
            })
            .collect();
        encoded.sort_by(|a, b| a.0.cmp(&b.0));
        let mut names = Vec::with_capacity(encoded.len());
        let mut ids = HashMap::with_capacity(encoded.len());
        let mut relations = Vec::with_capacity(encoded.len());
        for (id, (name, rel)) in encoded.into_iter().enumerate() {
            ids.insert(name.clone(), id as u32);
            names.push(name);
            relations.push(rel);
        }
        InternedInstance {
            dict,
            names,
            ids,
            relations,
        }
    }

    /// The interning dictionary.
    pub fn dictionary(&self) -> &Dictionary {
        &self.dict
    }

    /// Looks up a relation's columnar batch by name.
    pub fn relation(&self, name: &str) -> Option<&ColumnarRelation> {
        self.ids.get(name).map(|&id| &self.relations[id as usize])
    }

    /// The dense id of a relation, if the instance has one by that name. Ids
    /// are assigned in sorted-name order, so they are stable across re-interns
    /// of equal instances.
    pub fn relation_id(&self, name: &str) -> Option<u32> {
        self.ids.get(name).copied()
    }

    /// The columnar batch behind a relation id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn relation_by_id(&self, id: u32) -> &ColumnarRelation {
        &self.relations[id as usize]
    }

    /// The name behind a relation id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    pub fn relation_name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }

    /// The number of relations in the instance.
    pub fn relation_count(&self) -> usize {
        self.relations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    fn sample() -> Instance {
        inst! {
            "R" => [[c(1), x(1)], [x(2), x(3)]],
            "S" => [[x(1), c(4)], [x(3), c(5)]],
        }
    }

    #[test]
    fn dictionary_codes_constants_first() {
        let d = sample();
        let dict = Dictionary::from_instance(&d);
        assert_eq!(dict.len(), 6);
        assert_eq!(dict.const_count(), 3);
        for code in 0..dict.len() as u32 {
            assert_eq!(dict.is_const(code), dict.value(code).is_const());
            assert_eq!(dict.code(dict.value(code)), Some(code));
        }
        assert_eq!(dict.code(&Value::int(999)), None);
        assert!(!dict.is_empty());
        assert!(Dictionary::from_instance(&Instance::new()).is_empty());
    }

    #[test]
    fn extras_extend_the_constant_block_without_moving_nulls_behind_constants() {
        let d = sample();
        let extras = [Constant::from(99), Constant::from(1)]; // 1 already interned
        let dict = Dictionary::from_instance_with_extras(&d, extras.iter());
        assert_eq!(dict.const_count(), 4, "one genuinely new constant");
        assert_eq!(dict.len(), 7);
        let code = dict.code(&Value::int(99)).expect("extra is interned");
        assert!(dict.is_const(code));
        // Every interned value still round-trips and nulls stay above the
        // constant block.
        for code in 0..dict.len() as u32 {
            assert_eq!(dict.is_const(code), dict.value(code).is_const());
            assert_eq!(dict.code(dict.value(code)), Some(code));
        }
        // No extras: identical to the plain constructor.
        let plain = Dictionary::from_instance(&d);
        let empty = Dictionary::from_instance_with_extras(&d, std::iter::empty());
        assert_eq!(plain, empty);
    }

    #[test]
    fn columnar_relations_round_trip_rows() {
        let d = sample();
        let interned = InternedInstance::new(&d);
        let dict = interned.dictionary();
        let r = interned.relation("R").expect("R interned");
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.col(0).len(), 2);
        // Decode every row back to values and check it is a tuple of R.
        for row in 0..r.len() {
            let decoded: Vec<Value> = r.row(row).iter().map(|&c| dict.value(c).clone()).collect();
            assert!(d.contains_tuple("R", &decoded.into_iter().collect()));
        }
        assert!(interned.relation("T").is_none());
    }

    #[test]
    fn relation_ids_are_dense_and_sorted_by_name() {
        let d = sample();
        let interned = InternedInstance::new(&d);
        assert_eq!(interned.relation_count(), 2);
        let r = interned.relation_id("R").expect("R has an id");
        let s = interned.relation_id("S").expect("S has an id");
        assert_eq!((r, s), (0, 1), "ids follow sorted-name order");
        assert_eq!(interned.relation_name(r), "R");
        assert_eq!(interned.relation_name(s), "S");
        assert_eq!(interned.relation_id("T"), None);
        // Id and name lookups resolve to the same batch.
        assert_eq!(
            interned.relation_by_id(r),
            interned.relation("R").expect("R interned")
        );
        // Re-interning an equal instance assigns the same ids.
        let again = InternedInstance::new(&sample());
        assert_eq!(again.relation_id("R"), Some(r));
        assert_eq!(again.relation_id("S"), Some(s));
    }
}
