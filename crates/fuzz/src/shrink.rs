//! The greedy auto-shrinker: minimise a failing case while it still fails.
//!
//! Fuzz-generated reproducers are noisy — three client classes, deep `Par`
//! nests, an abort storm and a crash plan, of which perhaps one class and
//! one scheduler actually matter. [`shrink`] walks a fixed candidate order
//! (drop scheduler specs, drop client classes, drop untargeted ADT groups,
//! halve transactions/clients/depth/width/ops/objects/keys, then strip the
//! fault plan knob by knob), re-checking after every step that the caller's
//! predicate still fails. Each accepted step strictly shrinks the case, so
//! the walk reaches a fixed point; `max_tries` bounds the total number of
//! predicate evaluations for predicates that are expensive (a full
//! differential run) or flaky.
//!
//! Every candidate is pre-filtered through [`Scenario::validate`] — the
//! shrinker never hands the predicate (and hence the engines, whose
//! `compile()` panics on invalid specs) a scenario the DSL would reject.

use crate::FuzzCase;
use obase_scenario::Scenario;

/// The result of a shrink run.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The minimal case: every further candidate either stopped failing or
    /// was exhausted by `max_tries`.
    pub case: FuzzCase,
    /// Accepted shrink steps.
    pub steps: usize,
    /// Predicate evaluations spent.
    pub tried: usize,
}

fn half(n: usize, floor: usize) -> Option<usize> {
    let h = (n / 2).max(floor);
    (h < n).then_some(h)
}

/// All single-step simplifications of `case`, most aggressive first, each
/// already validated. Ordering matters: structural deletions (specs,
/// classes, groups) shrink the search space for every later halving step.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let s = &case.scenario;
    let mut out: Vec<FuzzCase> = Vec::new();
    let mut push = |scenario: Scenario| {
        if scenario.validate().is_ok() {
            out.push(FuzzCase { scenario });
        }
    };

    // Drop scheduler specs (a reproducer almost never needs the line-up).
    if s.specs.len() > 1 {
        for i in 0..s.specs.len() {
            let mut c = s.clone();
            c.specs.remove(i);
            push(c);
        }
    }

    // Drop client classes.
    if s.mix.len() > 1 {
        for i in 0..s.mix.len() {
            let mut c = s.clone();
            c.mix.remove(i);
            push(c);
        }
    }

    // Drop ADT groups no remaining class targets.
    if s.groups.len() > 1 {
        for i in 0..s.groups.len() {
            if s.mix.iter().any(|c| c.group == s.groups[i].name) {
                continue;
            }
            let mut c = s.clone();
            c.groups.remove(i);
            push(c);
        }
    }

    // Halve the workload volume.
    if let Some(t) = half(s.transactions, 1) {
        let mut c = s.clone();
        c.transactions = t;
        push(c);
    }
    if let Some(n) = half(s.clients, 1) {
        let mut c = s.clone();
        c.clients = n;
        push(c);
    }

    // Flatten per-class shape: nesting depth, fan-out, parallelism, ops.
    for i in 0..s.mix.len() {
        let class = &s.mix[i];
        if let Some(d) = half(class.nesting.depth, 1) {
            let mut c = s.clone();
            c.mix[i].nesting.depth = d;
            push(c);
        }
        if let Some(w) = half(class.nesting.width, 1) {
            let mut c = s.clone();
            c.mix[i].nesting.width = w;
            push(c);
        }
        if class.nesting.parallel {
            let mut c = s.clone();
            c.mix[i].nesting.parallel = false;
            push(c);
        }
        if let Some(o) = half(class.ops, 1) {
            let mut c = s.clone();
            c.mix[i].ops = o;
            push(c);
        }
    }

    // Shrink per-group footprint.
    for i in 0..s.groups.len() {
        let group = &s.groups[i];
        if let Some(o) = half(group.objects, 1) {
            let mut c = s.clone();
            c.groups[i].objects = o;
            push(c);
        }
        if let Some(k) = half(group.keys, 1) {
            let mut c = s.clone();
            c.groups[i].keys = k;
            push(c);
        }
    }

    // Strip the fault plan knob by knob.
    if s.faults.doom_rate > 0.0 {
        let mut c = s.clone();
        c.faults.doom_rate = 0.0;
        push(c);
    }
    if let Some(storm) = &s.faults.storm {
        let mut c = s.clone();
        c.faults.storm = None;
        push(c);
        let span = storm.until.saturating_sub(storm.from);
        if span > 1 {
            let mut c = s.clone();
            if let Some(narrowed) = &mut c.faults.storm {
                narrowed.until = narrowed.from + span / 2;
            }
            push(c);
        }
    }
    if s.faults.stall_rate > 0.0 {
        let mut c = s.clone();
        c.faults.stall_rate = 0.0;
        c.faults.stall_ticks = 0;
        push(c);
    }
    if s.faults.deadline_ms.is_some() {
        let mut c = s.clone();
        c.faults.deadline_ms = None;
        push(c);
    }
    if s.faults.crash.is_some() {
        let mut c = s.clone();
        c.faults.crash = None;
        push(c);
    }

    out
}

/// Greedily minimises `case` under `still_fails`, evaluating the predicate
/// at most `max_tries` times. The input case is assumed failing (it is not
/// re-checked); the returned case is the last one the predicate confirmed,
/// or the input if no shrink was accepted.
pub fn shrink(
    case: &FuzzCase,
    max_tries: usize,
    still_fails: &mut dyn FnMut(&FuzzCase) -> bool,
) -> ShrinkOutcome {
    let mut current = case.clone();
    let mut steps = 0;
    let mut tried = 0;
    'outer: loop {
        for candidate in candidates(&current) {
            if tried >= max_tries {
                break 'outer;
            }
            tried += 1;
            if still_fails(&candidate) {
                current = candidate;
                steps += 1;
                continue 'outer; // restart from the strongest candidates
            }
        }
        break; // fixed point: no candidate still fails
    }
    ShrinkOutcome {
        case: current,
        steps,
        tried,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use obase_rng::{ChaCha8Rng, SeedableRng};
    use obase_scenario::AdtKind;

    /// Every candidate the shrinker may hand a predicate must satisfy the
    /// scenario DSL's own validation — across a seeded sweep of generated
    /// cases and transitively down a worst-case (accept-everything) walk.
    #[test]
    fn every_shrink_step_is_a_valid_scenario() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for _ in 0..40 {
            let case = generate(&mut rng, &GenConfig::default());
            let mut checked = 0usize;
            let outcome = shrink(&case, 400, &mut |candidate| {
                assert!(
                    candidate.scenario.validate().is_ok(),
                    "shrinker produced an invalid scenario"
                );
                checked += 1;
                true // accept everything: the deepest possible walk
            });
            assert!(checked > 0);
            assert!(outcome.case.scenario.validate().is_ok());
        }
    }

    /// Shrinking a known-failing synthetic predicate ("the case still has a
    /// class targeting a Register group") converges to a fixed point in
    /// bounded steps, and re-shrinking the minimum is a no-op.
    #[test]
    fn a_synthetic_failure_converges_to_a_fixed_point() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let touches_register = |case: &FuzzCase| {
            case.scenario.mix.iter().any(|class| {
                case.scenario
                    .groups
                    .iter()
                    .any(|g| g.name == class.group && g.adt == AdtKind::Register)
            })
        };
        // Draw until the generator produces a case with the property.
        let case = std::iter::from_fn(|| Some(generate(&mut rng, &GenConfig::default())))
            .find(|c| touches_register(c))
            .expect("generator covers registers");

        let outcome = shrink(&case, 2_000, &mut |c| touches_register(c));
        assert!(outcome.tried <= 2_000);
        assert!(touches_register(&outcome.case), "minimum keeps the failure");
        // Fixed point: no candidate of the minimum still has the property
        // and shrinks it further.
        let again = shrink(&outcome.case, 2_000, &mut |c| touches_register(c));
        assert_eq!(again.steps, 0, "re-shrinking the minimum must be a no-op");
        // The minimum is genuinely small: one class, one effective group.
        assert_eq!(outcome.case.scenario.mix.len(), 1);
        assert_eq!(outcome.case.scenario.specs.len(), 1);
        assert!(outcome.case.scenario.faults.is_noop());
        assert!(outcome.case.scenario.faults.crash.is_none());
    }

    /// `max_tries` is a hard bound on predicate evaluations.
    #[test]
    fn the_try_budget_is_respected() {
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let case = generate(&mut rng, &GenConfig::default());
        let outcome = shrink(&case, 7, &mut |_| true);
        assert_eq!(outcome.tried, 7);
    }
}
