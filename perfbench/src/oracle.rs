//! The correctness oracle: every answer is compared with the same query
//! run without rewriting, on the same state.

use std::collections::HashMap;
use sumtab::{sort_rows, Row, SumtabError, Value};

/// Multiset equality with a relative tolerance of 1e-9 on doubles:
/// answering from a summary regroups partial sums, which changes the
/// order of floating-point additions.
pub fn same_multiset(a: &[Row], b: &[Row]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let a = sort_rows(a.to_vec());
    let b = sort_rows(b.to_vec());
    a.iter().zip(&b).all(|(ra, rb)| {
        ra.len() == rb.len()
            && ra.iter().zip(rb).all(|(x, y)| match (x, y) {
                (Value::Double(p), Value::Double(q)) => {
                    let scale = p.abs().max(q.abs()).max(1.0);
                    (p - q).abs() <= scale * 1e-9
                }
                _ => x == y,
            })
    })
}

/// Base-plan answers, optionally remembered per SQL text while the data
/// cannot change.
pub struct Oracle {
    memo: Option<HashMap<String, Vec<Row>>>,
}

impl Oracle {
    /// An oracle; `memoize` is only sound while no table changes.
    pub fn new(memoize: bool) -> Oracle {
        Oracle {
            memo: memoize.then(HashMap::new),
        }
    }

    /// Does `got` equal the base-plan answer of `sql`? `base` runs the
    /// query without rewriting on the current state.
    pub fn agrees(
        &mut self,
        sql: &str,
        got: &[Row],
        base: impl FnOnce(&str) -> Result<Vec<Row>, SumtabError>,
    ) -> Result<bool, SumtabError> {
        let Some(memo) = &mut self.memo else {
            return Ok(same_multiset(got, &base(sql)?));
        };
        if let Some(want) = memo.get(sql) {
            return Ok(same_multiset(got, want));
        }
        let want = base(sql)?;
        let ok = same_multiset(got, &want);
        memo.insert(sql.to_string(), want);
        Ok(ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerates_reassociated_sums_only() {
        let a = vec![vec![Value::Int(1), Value::Double(0.1 + 0.2)]];
        let b = vec![vec![Value::Int(1), Value::Double(0.3)]];
        assert!(same_multiset(&a, &b));
        let c = vec![vec![Value::Int(1), Value::Double(0.31)]];
        assert!(!same_multiset(&a, &c));
    }

    #[test]
    fn order_free_but_count_sensitive() {
        let r1 = vec![Value::Int(1)];
        let r2 = vec![Value::Int(2)];
        assert!(same_multiset(
            &[r1.clone(), r2.clone()],
            &[r2.clone(), r1.clone()]
        ));
        assert!(!same_multiset(
            &[r1.clone(), r1.clone()],
            &[r1.clone(), r2.clone()]
        ));
        assert!(!same_multiset(
            std::slice::from_ref(&r1),
            &[r1.clone(), r1.clone()]
        ));
    }
}
