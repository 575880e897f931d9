//! Output checks. Each returns `Err` with a reason on a wrong output;
//! the tests feed deliberately corrupted outputs and expect rejection.

use csmpc_graph::CsrAdjacency;

/// Minimum vertex index of each vertex's component, by union-find.
pub fn component_minima(csr: &CsrAdjacency) -> Vec<u64> {
    let n = csr.n();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    for v in 0..n {
        for &w in csr.neighbors(v) {
            let (a, b) = (find(&mut parent, v), find(&mut parent, w as usize));
            // Union under the smaller root keeps every root at its
            // component's minimum.
            let (lo, hi) = (a.min(b), a.max(b));
            parent[hi] = lo;
        }
    }
    (0..n).map(|v| find(&mut parent, v) as u64).collect()
}

/// `labels` equal the per-component minimum index `expected`.
pub fn cc_labels(labels: &[u64], expected: &[u64]) -> Result<(), String> {
    if labels.len() != expected.len() {
        return Err(format!(
            "cc labels: {} labels for {} vertices",
            labels.len(),
            expected.len()
        ));
    }
    match labels.iter().zip(expected).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(v) => Err(format!(
            "cc labels: vertex {v} labelled {} but its component minimum is {}",
            labels[v], expected[v]
        )),
    }
}

/// `state` (1 = in the set, 2 = out) is an independent and maximal set
/// of `csr`.
pub fn mis(csr: &CsrAdjacency, state: &[u8]) -> Result<(), String> {
    if state.len() != csr.n() {
        return Err(format!(
            "mis: {} states for {} vertices",
            state.len(),
            csr.n()
        ));
    }
    for (v, &s) in state.iter().enumerate() {
        match s {
            1 => {
                if let Some(&w) = csr.neighbors(v).iter().find(|&&w| state[w as usize] == 1) {
                    return Err(format!(
                        "mis: adjacent vertices {v} and {w} both in the set"
                    ));
                }
            }
            2 => {
                if !csr.neighbors(v).iter().any(|&w| state[w as usize] == 1) {
                    return Err(format!(
                        "mis: vertex {v} is out but has no neighbor in the set"
                    ));
                }
            }
            other => return Err(format!("mis: vertex {v} left undecided (state {other})")),
        }
    }
    Ok(())
}

/// `color` is a proper coloring of `csr` with at most Δ+1 colors, and
/// `used` is the number of colors it uses.
pub fn coloring(csr: &CsrAdjacency, color: &[u32], used: u32) -> Result<(), String> {
    if color.len() != csr.n() {
        return Err(format!(
            "coloring: {} colors for {} vertices",
            color.len(),
            csr.n()
        ));
    }
    let max_degree = (0..csr.n()).map(|v| csr.degree(v)).max().unwrap_or(0);
    let mut highest = 0u32;
    for (v, &c) in color.iter().enumerate() {
        if c as usize > max_degree {
            return Err(format!(
                "coloring: vertex {v} has color {c}, beyond Δ+1 = {} colors",
                max_degree + 1
            ));
        }
        if let Some(&w) = csr.neighbors(v).iter().find(|&&w| color[w as usize] == c) {
            return Err(format!(
                "coloring: adjacent vertices {v} and {w} share color {c}"
            ));
        }
        highest = highest.max(c);
    }
    if color.is_empty() || highest + 1 == used {
        Ok(())
    } else {
        Err(format!(
            "coloring: reported {used} colors, output uses {}",
            highest + 1
        ))
    }
}

/// The faulted engine run's labels equal the union-find oracle and the
/// quiet twin's labels, and the run really recovered from a crash.
pub fn engine(
    labels: &[u64],
    oracle: &[u64],
    quiet: &[u64],
    recovery_rounds: usize,
) -> Result<(), String> {
    cc_labels(labels, oracle).map_err(|e| format!("engine vs union-find: {e}"))?;
    cc_labels(labels, quiet).map_err(|e| format!("engine vs quiet twin: {e}"))?;
    if recovery_rounds == 0 {
        return Err("engine: the faulted run recorded no recovery rounds".to_owned());
    }
    Ok(())
}

/// Every pass has the same service fingerprint, and the service
/// recovered from the pass's journal reports it too.
pub fn service(expected: u64, got: u64, recovered: Option<u64>) -> Result<(), String> {
    if got != expected {
        return Err(format!(
            "service: fingerprint {got:#018x} differs from the first pass's {expected:#018x}"
        ));
    }
    match recovered {
        Some(r) if r != got => Err(format!(
            "service: recovered fingerprint {r:#018x} differs from the run's {got:#018x}"
        )),
        _ => Ok(()),
    }
}

/// Counts the determinism contract fixes (rounds, words, messages,
/// iterations, attempts, journal records) equal the first pass's.
pub fn exact_counts(first: &[(&str, u64)], got: &[(&str, u64)]) -> Result<(), String> {
    if first.len() != got.len() {
        return Err(format!(
            "counts: {} counters, first pass had {}",
            got.len(),
            first.len()
        ));
    }
    for ((name, a), (name_b, b)) in first.iter().zip(got) {
        if name != name_b || a != b {
            return Err(format!(
                "counts: {name_b} = {b}, first pass had {name} = {a}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmpc_graph::StreamFamily;

    fn two_cycles() -> CsrAdjacency {
        StreamFamily::TwoCycles { n: 12 }.stream_csr()
    }

    #[test]
    fn cc_labels_rejects_a_wrong_label() {
        let csr = two_cycles();
        let good = component_minima(&csr);
        assert_eq!(good[0], 0);
        assert_eq!(good[11], 6);
        assert!(cc_labels(&good, &good).is_ok());
        let mut bad = good.clone();
        bad[7] = 0;
        assert!(cc_labels(&bad, &good).is_err());
        assert!(cc_labels(&good[1..], &good).is_err());
    }

    #[test]
    fn mis_rejects_dependent_and_non_maximal_sets() {
        let csr = two_cycles();
        // Cycles 0..6 and 6..12: every other vertex is a maximal
        // independent set of each.
        let good: Vec<u8> = (0..12).map(|v| if v % 2 == 0 { 1 } else { 2 }).collect();
        assert!(mis(&csr, &good).is_ok());
        let mut dependent = good.clone();
        dependent[1] = 1;
        assert!(mis(&csr, &dependent).is_err());
        let mut not_maximal = good.clone();
        not_maximal[2] = 2;
        assert!(mis(&csr, &not_maximal).is_err());
        let mut undecided = good;
        undecided[3] = 0;
        assert!(mis(&csr, &undecided).is_err());
    }

    #[test]
    fn coloring_rejects_improper_and_oversized_colorings() {
        let csr = two_cycles();
        let good: Vec<u32> = (0..12).map(|v| v % 2).collect();
        assert!(coloring(&csr, &good, 2).is_ok());
        let mut clash = good.clone();
        clash[1] = 0;
        assert!(coloring(&csr, &clash, 2).is_err());
        let mut too_many = good.clone();
        too_many[4] = 3; // Δ = 2 allows colors 0..=2 only
        assert!(coloring(&csr, &too_many, 4).is_err());
        assert!(coloring(&csr, &good, 3).is_err());
    }

    #[test]
    fn engine_rejects_wrong_labels_and_missing_recovery() {
        let oracle = vec![0, 0, 0, 3, 3];
        assert!(engine(&oracle, &oracle, &oracle, 4).is_ok());
        let mut bad = oracle.clone();
        bad[4] = 4;
        assert!(engine(&bad, &oracle, &oracle, 4).is_err());
        assert!(engine(&oracle, &oracle, &bad, 4).is_err());
        assert!(engine(&oracle, &oracle, &oracle, 0).is_err());
    }

    #[test]
    fn service_rejects_fingerprint_drift() {
        assert!(service(7, 7, Some(7)).is_ok());
        assert!(service(7, 7, None).is_ok());
        assert!(service(7, 8, Some(8)).is_err());
        assert!(service(7, 7, Some(9)).is_err());
    }

    #[test]
    fn exact_counts_reject_any_drift() {
        let first = [("rounds", 10), ("words", 400)];
        assert!(exact_counts(&first, &first).is_ok());
        assert!(exact_counts(&first, &[("rounds", 10), ("words", 401)]).is_err());
        assert!(exact_counts(&first, &[("rounds", 10)]).is_err());
    }
}
