//! Acceptance tests for oftt-verify: exhaust a bounded space clean,
//! refine live oftt-check runs into the abstract model, demonstrate why
//! slot symmetry is not a sound reduction, and — under `inject_bugs` —
//! close the loop on the seeded defects: each is caught abstractly and
//! its rendered counterexample script reproduces the bug concretely.

use oftt::role::Role;
use oftt::transition::Defects;
use oftt_check::{run, FaultScript, Scenario, TraceExport};
use oftt_verify::explore::{explore, swapped, Explored};
use oftt_verify::liveness::find_persistent_dual_primary;
use oftt_verify::model::{apply, AbsState, Action, Bounds, Budgets, SLOTS};
use oftt_verify::refine::refine_export;

const CLEAN: Defects = Defects { dual_primary_window: false, stale_promotion: false };

/// The budget most tests exhaust: one crash, one partition and one
/// reset, which covers both stock oftt-check scenarios and the reset
/// shortcut while keeping the space small (the CLI sweeps the full
/// default budget).
fn crash_and_cut() -> Budgets {
    Budgets { crashes: 1, partitions: 1, distress: 0, advances: 0, hangs: 0, resets: 1 }
}

fn graph(budgets: Budgets, defects: &Defects) -> Explored {
    let ex = explore(AbsState::initial(budgets), &Bounds::default(), defects, 1_000_000);
    assert!(!ex.capped, "test budgets must fit the cap");
    ex
}

#[test]
fn the_crash_and_cut_space_is_exhausted_clean_and_lasso_free() {
    let ex = graph(crash_and_cut(), &CLEAN);
    assert!(ex.violations.is_empty(), "{:?}", ex.violations);
    assert!(
        find_persistent_dual_primary(&ex).is_none(),
        "no fair schedule may keep a dual primary alive in the clean protocol"
    );
    assert_eq!((ex.states.len(), ex.transitions), (27_589, 76_024));
    assert!(ex.por_reduced > 0, "the stutter reduction must engage");
}

/// With no resets the model is exactly the one before link resets
/// existed: the default-budget space keeps its pinned size.
#[test]
fn without_resets_the_default_space_keeps_its_pinned_size() {
    let budgets = Budgets { resets: 0, ..Budgets::default() };
    let ex = explore(AbsState::initial(budgets), &Bounds::default(), &CLEAN, 2_000_000);
    assert!(!ex.capped);
    assert_eq!(ex.states.len(), 1_939_405);
}

/// Gate 7 over a whole reachable space: in no state is a refusal of an
/// up peer enabled, whether the interconnect is whole or partitioned.
#[test]
fn a_refusal_is_never_enabled_while_the_peer_is_up() {
    let ex = graph(crash_and_cut(), &CLEAN);
    let mut enabled = 0;
    for state in &ex.states {
        for slot in SLOTS {
            let refused = apply(state, Action::Refuse(slot), &Bounds::default(), &CLEAN);
            if refused.is_some() {
                assert!(!state.nodes[slot.index()].up, "{slot} refused while up: {state:?}");
                enabled += 1;
            }
        }
    }
    assert!(enabled > 0, "the space must reach a refusal at all");
}

#[test]
fn live_scenario_exports_refine_into_the_abstract_model() {
    let ex = graph(crash_and_cut(), &CLEAN);
    // A process kill: the crash and its reset together, the fast path;
    // then the same with the survivor's redial refused, the faster one.
    let kill = "10000000 crash a\n10000000 reset a\n25000000 repair a\n";
    let refused = "10000000 crash a\n10000000 reset a\n10000050 refuse a\n25000000 repair a\n";
    let scenarios = [
        ("pair-failover", Scenario::named("pair-failover").unwrap()),
        ("partitioned-startup", Scenario::named("partitioned-startup").unwrap()),
        ("process-kill", Scenario::new(FaultScript::parse(kill).unwrap())),
        ("process-kill-refused", Scenario::new(FaultScript::parse(refused).unwrap())),
    ];
    for (name, scenario) in scenarios {
        for seed in 1..=3u64 {
            let export = TraceExport::from_run(name, &scenario, &run(&scenario, seed, &[]));
            let n = refine_export(&ex, &export, &Bounds::default())
                .unwrap_or_else(|e| panic!("{name} seed {seed}: {e}"));
            assert!(n > 0, "{name} seed {seed}: a live run must announce roles");
        }
    }
}

#[test]
fn slot_symmetry_is_not_a_sound_reduction() {
    // The NodeId tie-break bakes an asymmetry into the protocol: the
    // favored node wins every faultless election. Its slot-swapped
    // image (the unfavored node serving as primary) is therefore
    // unreachable without faults — merging swap-equivalent states, the
    // classic symmetry reduction for replica pairs, would identify a
    // reachable state with an unreachable one.
    let budgets =
        Budgets { crashes: 0, partitions: 0, distress: 0, advances: 0, hangs: 0, resets: 0 };
    let ex = graph(budgets, &CLEAN);
    let elected = ex
        .states
        .iter()
        .find(|s| s.nodes[0].role == Role::Primary)
        .expect("the faultless space elects the favored node");
    let mirror = swapped(elected);
    assert!(!ex.states.contains(&mirror), "the mirrored election must be unreachable");
    // The map itself is well-behaved — the asymmetry is the protocol's.
    assert_eq!(swapped(&mirror), *elected);
}

#[cfg(feature = "inject_bugs")]
mod seeded_defects {
    use super::*;
    use oftt_check::check_all;
    use oftt_verify::render::render_script;

    /// The dual-primary-window defect (a beaten primary keeps serving)
    /// is caught abstractly as both a safety violation and a fair
    /// lasso, and the rendered fault script reproduces it concretely.
    #[test]
    fn dual_primary_window_round_trips_from_abstract_find_to_concrete_repro() {
        let defects = Defects { dual_primary_window: true, stale_promotion: false };
        let budgets =
            Budgets { crashes: 0, partitions: 1, distress: 0, advances: 0, hangs: 0, resets: 0 };
        let ex = graph(budgets, &defects);
        let found = ex
            .violations
            .iter()
            .find(|v| v.invariant == "unyielded-beaten-primary")
            .expect("the defect must be caught abstractly");
        assert!(
            find_persistent_dual_primary(&ex).is_some(),
            "the unclosed window must also show up as a persistent lasso"
        );

        let script = render_script(&found.path);
        assert!(!script.steps.is_empty(), "the witness must use injectable faults");
        let mut scenario = Scenario::new(script);
        scenario.params.config.defects = defects;
        let reproduced = (1..=3u64).any(|seed| {
            check_all(&run(&scenario, seed, &[]).events).iter().any(|v| {
                v.invariant == "no-dual-primary-after-heal"
                    || v.invariant == "converged-single-primary"
            })
        });
        assert!(reproduced, "rendered script must reproduce the defect under oftt-check");
    }

    /// The stale-promotion defect (a promoting FTIM restores the image
    /// preceding the newest install) is caught abstractly, and the
    /// rendered script rolls the concrete store back past acknowledged
    /// state — tripping the checkpoint catalog.
    #[test]
    fn stale_promotion_round_trips_from_abstract_find_to_concrete_repro() {
        let defects = Defects { dual_primary_window: false, stale_promotion: true };
        let budgets =
            Budgets { crashes: 0, partitions: 0, distress: 1, advances: 0, hangs: 0, resets: 0 };
        let ex = graph(budgets, &defects);
        let found = ex
            .violations
            .iter()
            .find(|v| v.invariant == "promotion-from-stale-image")
            .expect("the defect must be caught abstractly");

        let script = render_script(&found.path);
        assert!(!script.steps.is_empty(), "the witness must use injectable faults");
        let mut scenario = Scenario::new(script);
        scenario.params.config.defects = defects;
        let reproduced = (1..=3u64).any(|seed| {
            check_all(&run(&scenario, seed, &[]).events)
                .iter()
                .any(|v| v.invariant.starts_with("ckpt-"))
        });
        assert!(reproduced, "rendered script must roll the store back under oftt-check");
    }
}
