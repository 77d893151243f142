//! The correctness oracle: the benchmark's own mirror of the live
//! records and a linear-scan check of served answers. Runs off the
//! clock, at cycle boundaries.

use gir_core::RegionKind;
use gir_query::Record;
use gir_serve::{TopKRequest, Update};
use std::collections::HashMap;

/// Scores are sums of at most five products in `[0,1]`; the program may
/// add them in another order, so rankings are compared up to this.
const SCORE_EPS: f64 = 1e-9;

/// Every applied record, row-major, with an id index for deletes.
pub struct Mirror {
    d: usize,
    ids: Vec<u64>,
    coords: Vec<f64>,
    row_of: HashMap<u64, usize>,
}

impl Mirror {
    pub fn new(d: usize, records: &[Record]) -> Mirror {
        let mut m = Mirror {
            d,
            ids: Vec::with_capacity(records.len()),
            coords: Vec::with_capacity(records.len() * d),
            row_of: HashMap::with_capacity(records.len()),
        };
        for r in records {
            m.insert(r);
        }
        m
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    fn insert(&mut self, rec: &Record) {
        self.row_of.insert(rec.id, self.ids.len());
        self.ids.push(rec.id);
        self.coords.extend_from_slice(rec.attrs.coords());
    }

    fn delete(&mut self, id: u64) {
        let row = self
            .row_of
            .remove(&id)
            .expect("the stream only deletes live records");
        let last = self.ids.len() - 1;
        self.ids.swap(row, last);
        self.ids.pop();
        for i in 0..self.d {
            self.coords[row * self.d + i] = self.coords[last * self.d + i];
        }
        self.coords.truncate(last * self.d);
        if row != last {
            self.row_of.insert(self.ids[row], row);
        }
    }

    /// Tracks a batch the engine accepted.
    pub fn apply(&mut self, updates: &[Update]) {
        for u in updates {
            match u {
                Update::Insert(rec) => self.insert(rec),
                Update::Delete { id, .. } => self.delete(*id),
            }
        }
    }

    fn score(&self, row: usize, w: &[f64]) -> f64 {
        let at = row * self.d;
        w.iter()
            .zip(&self.coords[at..at + self.d])
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Is `ids` the top-`k` of the live records under `req`'s weights —
    /// in rank order for `Gir`, as a set for `GirStar` (whose cached
    /// order may lag the live ranking by design)?
    pub fn answers(&self, req: &TopKRequest, ids: &[u64]) -> bool {
        let w = req.weights.coords();
        if ids.len() != req.k.min(self.len()) {
            return false;
        }
        let mut scores = Vec::with_capacity(ids.len());
        for (i, id) in ids.iter().enumerate() {
            let Some(&row) = self.row_of.get(id) else {
                return false;
            };
            if ids[..i].contains(id) {
                return false;
            }
            scores.push(self.score(row, w));
        }
        if req.kind == RegionKind::Gir && scores.windows(2).any(|p| p[0] + SCORE_EPS < p[1]) {
            return false;
        }
        let weakest = scores.iter().copied().fold(f64::INFINITY, f64::min);
        // No record left out may beat the weakest one returned.
        (0..self.len())
            .all(|row| self.score(row, w) <= weakest + SCORE_EPS || ids.contains(&self.ids[row]))
    }

    /// Is `snapshot` exactly the mirrored set (ids and coordinate bits)?
    pub fn same_records(&self, snapshot: &[Record]) -> bool {
        let mut seen = vec![false; self.len()];
        snapshot.len() == self.len()
            && snapshot.iter().all(|r| {
                self.row_of.get(&r.id).is_some_and(|&row| {
                    let at = row * self.d;
                    let fresh = !std::mem::replace(&mut seen[row], true);
                    fresh && r.attrs.coords() == &self.coords[at..at + self.d]
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mirror() -> Mirror {
        let recs: Vec<Record> = (0..10)
            .map(|i| Record::new(i, vec![i as f64 / 10.0, 1.0 - i as f64 / 10.0]))
            .collect();
        Mirror::new(2, &recs)
    }

    #[test]
    fn accepts_the_true_ranking_and_rejects_others() {
        let m = mirror();
        let req = TopKRequest::new(vec![1.0, 0.0], 3);
        assert!(m.answers(&req, &[9, 8, 7]));
        assert!(!m.answers(&req, &[8, 9, 7]), "wrong order");
        assert!(!m.answers(&req, &[9, 8, 6]), "wrong member");
        assert!(!m.answers(&req, &[9, 8]), "short");
        assert!(!m.answers(&req, &[9, 9, 8]), "duplicate");
        let star = req.clone().kind(RegionKind::GirStar);
        assert!(m.answers(&star, &[8, 9, 7]), "a set has no order");
        assert!(!m.answers(&star, &[9, 8, 6]));
    }

    #[test]
    fn tracks_updates() {
        let mut m = mirror();
        let req = TopKRequest::new(vec![1.0, 0.0], 2);
        m.apply(&[
            Update::Delete {
                id: 9,
                attrs: vec![0.9, 0.1].into(),
            },
            Update::Insert(Record::new(77, vec![0.95, 0.0])),
        ]);
        assert!(m.answers(&req, &[77, 8]));
        assert!(!m.answers(&req, &[9, 8]), "deleted id");
        assert_eq!(m.len(), 10);
        let mut snap: Vec<Record> = (0..9)
            .map(|i| Record::new(i, vec![i as f64 / 10.0, 1.0 - i as f64 / 10.0]))
            .collect();
        snap.push(Record::new(77, vec![0.95, 0.0]));
        assert!(m.same_records(&snap));
        snap[0] = Record::new(0, vec![0.5, 0.5]);
        assert!(!m.same_records(&snap));
        snap[0] = snap[1].clone();
        assert!(!m.same_records(&snap), "one record twice, another missing");
    }
}
