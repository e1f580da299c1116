//! A dictionary-encoded columnar triple store.
//!
//! Plays the role of the paper's Sesame repositories (Execution Trace and
//! Provenance triple stores of Figure 5). Terms are interned to dense
//! `u32` ids by a [`Dictionary`]; the triples themselves live in three
//! **sorted `Vec<[u32; 3]>` permutation indexes** (SPO, POS, OSP), so
//! every bound-prefix lookup is a pair of binary searches yielding a
//! contiguous row slice — no tree nodes, no per-triple allocation, no
//! sentinel terms. Inserts are batched: a batch is sorted, deduplicated,
//! checked against the SPO index, and merged into each permutation in one
//! linear pass (appends that land entirely past the current tail — the
//! common shape for interned monotone workloads — skip the merge).
//!
//! The store also maintains the summary statistics the SPARQL join
//! planner feeds on: global distinct subject/predicate/object counts and
//! a per-predicate `(rows, distinct subjects, distinct objects)` table,
//! refreshed in O(n) boundary-counting passes after each merge.
//!
//! Id order is first-seen order, not term order, so the read paths that
//! promise term-sorted output ([`TripleStore::iter`],
//! [`TripleStore::matching`]) decode and re-sort in term space — results
//! remain byte-identical to the seed `BTreeSet` engine.

use std::collections::HashMap;

use crate::dict::Dictionary;
use crate::term::{Term, Triple};

/// Triple pattern component: bound term or wildcard.
pub type TermPattern = Option<Term>;

/// Per-predicate planner statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PredStat {
    /// Triples with this predicate.
    pub rows: u64,
    /// Distinct subjects under this predicate.
    pub distinct_s: u64,
    /// Distinct objects under this predicate.
    pub distinct_o: u64,
}

/// Store-wide planner statistics, refreshed after every merge.
#[derive(Debug, Clone, Default)]
pub(crate) struct StoreStats {
    /// Distinct subjects across the store.
    pub distinct_s: u64,
    /// Distinct predicates across the store.
    pub distinct_p: u64,
    /// Distinct objects across the store.
    pub distinct_o: u64,
    /// Per-predicate cardinalities.
    pub preds: HashMap<u32, PredStat>,
}

/// Indexed triple store (see the module docs for the layout).
#[derive(Debug, Clone, Default)]
pub struct TripleStore {
    dict: Dictionary,
    /// Rows `[s, p, o]`, sorted lexicographically.
    spo: Vec<[u32; 3]>,
    /// Rows `[p, o, s]`, sorted lexicographically.
    pos: Vec<[u32; 3]>,
    /// Rows `[o, s, p]`, sorted lexicographically.
    osp: Vec<[u32; 3]>,
    stats: StoreStats,
}

/// The half-open row range of `col` whose first `prefix.len()` columns
/// equal `prefix` — two binary searches over the sorted rows.
fn range_of<'a>(col: &'a [[u32; 3]], prefix: &[u32]) -> &'a [[u32; 3]] {
    let k = prefix.len();
    let lo = col.partition_point(|row| row[..k] < *prefix);
    let hi = lo + col[lo..].partition_point(|row| row[..k] == *prefix);
    &col[lo..hi]
}

/// Merge a sorted, deduplicated, disjoint batch into a sorted column.
fn merge_into(col: &mut Vec<[u32; 3]>, add: &[[u32; 3]]) {
    if add.is_empty() {
        return;
    }
    match col.last() {
        // append-only fast path: the whole batch lands past the tail
        None => col.extend_from_slice(add),
        Some(last) if add[0] > *last => col.extend_from_slice(add),
        _ => {
            let mut merged = Vec::with_capacity(col.len() + add.len());
            let (mut i, mut j) = (0, 0);
            while i < col.len() && j < add.len() {
                if col[i] <= add[j] {
                    merged.push(col[i]);
                    i += 1;
                } else {
                    merged.push(add[j]);
                    j += 1;
                }
            }
            merged.extend_from_slice(&col[i..]);
            merged.extend_from_slice(&add[j..]);
            *col = merged;
        }
    }
}

impl TripleStore {
    /// Empty store.
    pub fn new() -> Self {
        TripleStore::default()
    }

    /// Insert a triple; returns `false` if it was already present.
    pub fn insert(&mut self, t: Triple) -> bool {
        let row = [
            self.dict.intern(&t.s),
            self.dict.intern(&t.p),
            self.dict.intern(&t.o),
        ];
        self.insert_rows(vec![row]) == 1
    }

    /// Bulk insert (one sort-dedup-merge for the whole batch).
    pub fn extend(&mut self, triples: impl IntoIterator<Item = Triple>) {
        self.extend_count(triples);
    }

    /// Bulk insert, returning how many triples were actually new.
    pub fn extend_count(&mut self, triples: impl IntoIterator<Item = Triple>) -> usize {
        let rows: Vec<[u32; 3]> = triples
            .into_iter()
            .map(|t| {
                [
                    self.dict.intern(&t.s),
                    self.dict.intern(&t.p),
                    self.dict.intern(&t.o),
                ]
            })
            .collect();
        self.insert_rows(rows)
    }

    /// Intern a term into this store's dictionary without inserting any
    /// triple — the id-level entry point of `export_prov_into`.
    pub(crate) fn intern_term(&mut self, t: &Term) -> u32 {
        self.dict.intern(t)
    }

    /// Merge pre-interned `[s, p, o]` rows, returning how many were new.
    pub(crate) fn insert_rows(&mut self, mut rows: Vec<[u32; 3]>) -> usize {
        rows.sort_unstable();
        rows.dedup();
        rows.retain(|r| range_of(&self.spo, r).is_empty());
        if rows.is_empty() {
            return 0;
        }
        let fresh = rows.len();
        let mut pos: Vec<[u32; 3]> = rows.iter().map(|&[s, p, o]| [p, o, s]).collect();
        pos.sort_unstable();
        let mut osp: Vec<[u32; 3]> = rows.iter().map(|&[s, p, o]| [o, s, p]).collect();
        osp.sort_unstable();
        merge_into(&mut self.spo, &rows);
        merge_into(&mut self.pos, &pos);
        merge_into(&mut self.osp, &osp);
        self.refresh_stats();
        fresh
    }

    /// Recount the planner statistics: three linear boundary-counting
    /// passes (one per permutation), no hashing of row contents.
    fn refresh_stats(&mut self) {
        let mut stats = StoreStats::default();
        let mut prev: Option<[u32; 3]> = None;
        for &row in &self.spo {
            let new_s = prev.map(|p| p[0] != row[0]).unwrap_or(true);
            if new_s {
                stats.distinct_s += 1;
            }
            if new_s || prev.map(|p| p[1] != row[1]).unwrap_or(true) {
                stats.preds.entry(row[1]).or_default().distinct_s += 1;
            }
            prev = Some(row);
        }
        prev = None;
        for &row in &self.pos {
            let new_p = prev.map(|p| p[0] != row[0]).unwrap_or(true);
            if new_p {
                stats.distinct_p += 1;
            }
            let entry = stats.preds.entry(row[0]).or_default();
            entry.rows += 1;
            if new_p || prev.map(|p| p[1] != row[1]).unwrap_or(true) {
                entry.distinct_o += 1;
            }
            prev = Some(row);
        }
        prev = None;
        for &row in &self.osp {
            if prev.map(|p| p[0] != row[0]).unwrap_or(true) {
                stats.distinct_o += 1;
            }
            prev = Some(row);
        }
        self.stats = stats;
    }

    /// The planner statistics as of the last merge.
    pub(crate) fn stats(&self) -> &StoreStats {
        &self.stats
    }

    /// The term dictionary.
    pub(crate) fn dict(&self) -> &Dictionary {
        &self.dict
    }

    /// The SPO rows with subject-prefix `prefix` (`[]`, `[s]`, `[s,p]`,
    /// `[s,p,o]`).
    pub(crate) fn rows_spo(&self, prefix: &[u32]) -> &[[u32; 3]] {
        range_of(&self.spo, prefix)
    }

    /// The POS rows (`[p, o, s]`) with the given prefix.
    pub(crate) fn rows_pos(&self, prefix: &[u32]) -> &[[u32; 3]] {
        range_of(&self.pos, prefix)
    }

    /// The OSP rows (`[o, s, p]`) with the given prefix.
    pub(crate) fn rows_osp(&self, prefix: &[u32]) -> &[[u32; 3]] {
        range_of(&self.osp, prefix)
    }

    /// Membership in id space.
    pub(crate) fn contains_row(&self, row: [u32; 3]) -> bool {
        !range_of(&self.spo, &row).is_empty()
    }

    /// Number of triples.
    pub fn len(&self) -> usize {
        self.spo.len()
    }

    /// Number of distinct terms interned in this store's dictionary.
    pub fn distinct_terms(&self) -> usize {
        self.dict.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.spo.is_empty()
    }

    /// Membership test. Never interns: unknown terms simply do not match.
    pub fn contains(&self, t: &Triple) -> bool {
        let (Some(s), Some(p), Some(o)) = (
            self.dict.lookup(&t.s),
            self.dict.lookup(&t.p),
            self.dict.lookup(&t.o),
        ) else {
            return false;
        };
        self.contains_row([s, p, o])
    }

    /// Decode one id row (in `[s, p, o]` component order) to a `Triple`.
    pub(crate) fn decode(&self, [s, p, o]: [u32; 3]) -> Triple {
        Triple::new(
            self.dict.term(s).clone(),
            self.dict.term(p).clone(),
            self.dict.term(o).clone(),
        )
    }

    /// All triples, in term-sorted SPO order (the seed `BTreeSet` order).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        let mut out: Vec<Triple> = self.spo.iter().map(|&r| self.decode(r)).collect();
        out.sort_unstable();
        out.into_iter()
    }

    /// Match a pattern, using the best index for the bound components.
    /// Results are in the seed engine's order: the term order of the
    /// chosen index (SPO when the subject is bound, POS when only the
    /// predicate is, OSP when only the object is).
    pub fn matching(&self, s: &TermPattern, p: &TermPattern, o: &TermPattern) -> Vec<Triple> {
        // resolve constants without interning; any miss → no matches
        let ids = [s, p, o].map(|t| t.as_ref().map(|t| self.dict.lookup(t)));
        if ids.iter().any(|r| matches!(r, Some(None))) {
            return Vec::new();
        }
        let (s_id, p_id, o_id) = (ids[0].flatten(), ids[1].flatten(), ids[2].flatten());
        let mut out: Vec<Triple> = match (s_id, p_id, o_id) {
            (Some(s), Some(p), Some(o)) => {
                return if self.contains_row([s, p, o]) {
                    vec![self.decode([s, p, o])]
                } else {
                    Vec::new()
                };
            }
            (Some(s), p, o) => {
                let prefix: Vec<u32> = match p {
                    Some(p) => vec![s, p],
                    None => vec![s],
                };
                self.rows_spo(&prefix)
                    .iter()
                    .filter(|r| o.map(|o| r[2] == o).unwrap_or(true))
                    .map(|&r| self.decode(r))
                    .collect()
            }
            (None, Some(p), o) => {
                let prefix: Vec<u32> = match o {
                    Some(o) => vec![p, o],
                    None => vec![p],
                };
                self.rows_pos(&prefix)
                    .iter()
                    .map(|&[p, o, s]| self.decode([s, p, o]))
                    .collect()
            }
            (None, None, Some(o)) => self
                .rows_osp(&[o])
                .iter()
                .map(|&[o, s, p]| self.decode([s, p, o]))
                .collect(),
            (None, None, None) => return self.iter().collect(),
        };
        match (s_id, p_id) {
            // SPO scan order: (s, p, o) term order
            (Some(_), _) => out.sort_unstable(),
            // POS scan order: (p, o, s) term order
            (None, Some(_)) => {
                out.sort_unstable_by(|a, b| (&a.p, &a.o, &a.s).cmp(&(&b.p, &b.o, &b.s)))
            }
            // OSP scan order: (o, s, p) term order
            (None, None) => {
                out.sort_unstable_by(|a, b| (&a.o, &a.s, &a.p).cmp(&(&b.o, &b.s, &b.p)))
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str, p: &str, o: &str) -> Triple {
        Triple::new(Term::iri(s), Term::iri(p), Term::iri(o))
    }

    #[test]
    fn insert_is_idempotent() {
        let mut st = TripleStore::new();
        assert!(st.insert(t("a", "p", "b")));
        assert!(!st.insert(t("a", "p", "b")));
        assert_eq!(st.len(), 1);
        assert!(st.contains(&t("a", "p", "b")));
    }

    #[test]
    fn pattern_matching_uses_all_shapes() {
        let mut st = TripleStore::new();
        st.extend([
            t("a", "p", "b"),
            t("a", "q", "c"),
            t("d", "p", "b"),
            t("d", "p", "e"),
        ]);
        assert_eq!(st.matching(&Some(Term::iri("a")), &None, &None).len(), 2);
        assert_eq!(st.matching(&None, &Some(Term::iri("p")), &None).len(), 3);
        assert_eq!(st.matching(&None, &None, &Some(Term::iri("b"))).len(), 2);
        assert_eq!(
            st.matching(&None, &Some(Term::iri("p")), &Some(Term::iri("b")))
                .len(),
            2
        );
        assert_eq!(
            st.matching(&Some(Term::iri("a")), &Some(Term::iri("p")), &Some(Term::iri("b")))
                .len(),
            1
        );
        assert_eq!(st.matching(&None, &None, &None).len(), 4);
    }

    #[test]
    fn literals_and_blanks_participate() {
        let mut st = TripleStore::new();
        st.insert(Triple::new(
            Term::Blank("b0".into()),
            Term::iri("p"),
            Term::lit("v"),
        ));
        assert_eq!(st.matching(&None, &None, &Some(Term::lit("v"))).len(), 1);
        // a term that was never interned matches nothing
        assert!(st.matching(&None, &None, &Some(Term::lit("w"))).is_empty());
    }

    #[test]
    fn iter_yields_everything_term_sorted() {
        let mut st = TripleStore::new();
        // inserted out of term order: ids follow insertion, iter re-sorts
        st.extend([t("c", "p", "d"), t("a", "p", "b")]);
        let all: Vec<Triple> = st.iter().collect();
        assert_eq!(all, vec![t("a", "p", "b"), t("c", "p", "d")]);
    }

    #[test]
    fn batched_and_single_inserts_agree() {
        let triples = [
            t("a", "p", "b"),
            t("d", "p", "e"),
            t("a", "q", "c"),
            t("a", "p", "b"), // duplicate inside the batch
        ];
        let mut batched = TripleStore::new();
        assert_eq!(batched.extend_count(triples.iter().cloned()), 3);
        let mut single = TripleStore::new();
        for t in &triples {
            single.insert(t.clone());
        }
        assert_eq!(batched.len(), 3);
        assert_eq!(
            batched.iter().collect::<Vec<_>>(),
            single.iter().collect::<Vec<_>>()
        );
        // merging an overlapping batch counts only the genuinely new rows
        assert_eq!(batched.extend_count([t("a", "p", "b"), t("x", "y", "z")]), 1);
    }

    #[test]
    fn stats_track_per_predicate_cardinalities() {
        let mut st = TripleStore::new();
        st.extend([
            t("a", "p", "b"),
            t("a", "p", "c"),
            t("d", "p", "b"),
            t("d", "q", "b"),
        ]);
        let stats = st.stats();
        assert_eq!(stats.distinct_s, 2);
        assert_eq!(stats.distinct_p, 2);
        assert_eq!(stats.distinct_o, 2);
        let p = st.dict().lookup(&Term::iri("p")).unwrap();
        let ps = stats.preds[&p];
        assert_eq!((ps.rows, ps.distinct_s, ps.distinct_o), (3, 2, 2));
        let q = st.dict().lookup(&Term::iri("q")).unwrap();
        let qs = stats.preds[&q];
        assert_eq!((qs.rows, qs.distinct_s, qs.distinct_o), (1, 1, 1));
    }

    #[test]
    fn range_lookups_are_prefix_exact() {
        let mut st = TripleStore::new();
        st.extend([t("a", "p", "b"), t("a", "p", "c"), t("a", "q", "b"), t("b", "p", "b")]);
        let a = st.dict().lookup(&Term::iri("a")).unwrap();
        let p = st.dict().lookup(&Term::iri("p")).unwrap();
        assert_eq!(st.rows_spo(&[a]).len(), 3);
        assert_eq!(st.rows_spo(&[a, p]).len(), 2);
        assert_eq!(st.rows_spo(&[]).len(), 4);
        assert_eq!(st.rows_pos(&[p]).len(), 3);
    }
}
