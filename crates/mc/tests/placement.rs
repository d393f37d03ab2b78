//! The model → injector table: `ErrorModel::place` is the one place the
//! campaign runner and the model checker turn a Table 2 error model into
//! a `ree-os` injection call. For every model, placing through it must
//! be indistinguishable from making the raw call — same cluster state,
//! same trace, same "placed?" / `HeapHit` answer.

use ree_apps::Running;
use ree_inject::{activation_instants, candidate_targets, ErrorModel, Placement, Target};
use ree_mc::hash::state_digest;
use ree_mc::presets::two_node_register_plan;
use ree_os::{Cluster, HeapTarget, Pid, Signal};
use ree_sim::SimDuration;

const SEED: u64 = 7;

/// A mid-window fork with the application running, and one application
/// rank plus the FTM to inject into.
fn base() -> (Running, Vec<Pid>) {
    let plan = two_node_register_plan(SEED);
    let (_, snapshot) = plan.boot();
    let mut base = snapshot.fork(SEED);
    base.run_until(activation_instants(&plan, 1)[0]);
    let mut pids = candidate_targets(&base, &Target::App, 1);
    pids.extend(candidate_targets(&base, &Target::Ftm, 1));
    assert_eq!(pids.len(), 2, "an application rank and the FTM are alive mid-window");
    (base, pids)
}

type Raw = fn(&mut Cluster, Pid) -> Placement;

fn deliver(cluster: &mut Cluster, pid: Pid, sig: Signal) -> Placement {
    cluster.send_signal(pid, sig);
    Placement { placed: true, heap_hit: None }
}

fn heap(cluster: &mut Cluster, pid: Pid, target: &HeapTarget) -> Placement {
    let heap_hit = cluster.inject_heap(pid, target);
    Placement { placed: heap_hit.is_some(), heap_hit }
}

#[test]
fn place_is_the_raw_injection_call_for_every_model() {
    let table: [(ErrorModel, Raw); 8] = [
        (ErrorModel::Sigint, |c, p| deliver(c, p, Signal::Int)),
        (ErrorModel::Sigstop, |c, p| deliver(c, p, Signal::Stop)),
        (ErrorModel::Register, |c, p| Placement {
            placed: c.inject_register(p).is_some(),
            heap_hit: None,
        }),
        (ErrorModel::TextSegment, |c, p| Placement {
            placed: c.inject_text(p).is_some(),
            heap_hit: None,
        }),
        (ErrorModel::Heap, |c, p| heap(c, p, &HeapTarget::Any)),
        (ErrorModel::HeapSingle(HeapTarget::Any), |c, p| heap(c, p, &HeapTarget::Any)),
        (ErrorModel::HeapSingle(HeapTarget::DataOnly), |c, p| heap(c, p, &HeapTarget::DataOnly)),
        (ErrorModel::HeapSingle(HeapTarget::Region("no-such-region".into())), |c, p| {
            heap(c, p, &HeapTarget::Region("no-such-region".into()))
        }),
    ];
    let (base, pids) = base();
    let mut placed_heap = 0;
    for (model, raw) in &table {
        for &pid in &pids {
            let (mut via_model, mut via_raw) = (base.clone(), base.clone());
            let placement = model.place(&mut via_model.cluster, pid);
            assert_eq!(placement, raw(&mut via_raw.cluster, pid), "{model} on {pid:?}");
            placed_heap += u32::from(placement.heap_hit.is_some());
            // Same state at the injection instant, and — the injectors
            // draw from the cluster's streams — still after 5 s more.
            for _ in 0..2 {
                assert_eq!(
                    state_digest(&via_model.cluster),
                    state_digest(&via_raw.cluster),
                    "{model} on {pid:?}"
                );
                assert_eq!(
                    via_model.cluster.trace().render(),
                    via_raw.cluster.trace().render(),
                    "{model} on {pid:?}"
                );
                let until = via_model.cluster.now() + SimDuration::from_secs(5);
                via_model.run_until(until);
                via_raw.run_until(until);
            }
        }
    }
    assert!(placed_heap > 0, "at least one heap flip found state to corrupt");
}
