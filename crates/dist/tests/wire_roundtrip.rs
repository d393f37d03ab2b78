//! Round-trip tests for the message codec: every protocol message —
//! including a fully-populated `RunPlan` (topology, network faults,
//! every optional field) and a fully-populated `RunResult` — must cross
//! the wire bit-exactly, because byte-identical distributed aggregation
//! rests on bit-exact result transport.

use ree_dist::{decode_msg, encode_msg, Msg, WireError, PROTO_VERSION};
use ree_inject::{ErrorModel, FailureClass, NetFault, RunPlan, RunResult, SystemFailure, Target};
use ree_net::{LinkParams, Topology};
use ree_sift::JobSpec;
use ree_sim::{Fnv64, SimDuration, SimTime};
use std::fmt::Write as _;
use std::hash::Hasher;

fn rich_plan() -> RunPlan {
    let mut scenario = ree_apps::Scenario::two_apps(99);
    scenario.topology =
        Some(Topology::single_switch(scenario.nodes as u16, LinkParams::ethernet_100mbps()));
    scenario.jobs.push(JobSpec {
        app: "texture".into(),
        ranks: 1,
        nodes: vec![0],
        submit_at: SimDuration::from_millis(750),
    });
    RunPlan {
        scenario,
        target: Target::NamedApp("texture".into()),
        model: ErrorModel::HeapSingle(ree_os::HeapTarget::Region("texture".into())),
        timeout: SimTime::ZERO + SimDuration::from_secs(90),
        net_faults: vec![
            NetFault::partition_on_recovery(
                vec![vec![0, 1, 2], vec![3, 4, 5]],
                SimDuration::from_secs(3),
            ),
            NetFault::partition_on_recovery(vec![vec![1], vec![4]], SimDuration::from_secs(2)),
        ],
    }
}

fn rich_result() -> RunResult {
    RunResult {
        seed: 0xDEAD_BEEF_0BAD_CAFE,
        injections: 3,
        induced: Some(FailureClass::SegFault),
        completed: true,
        system_failure: Some(SystemFailure::AppDidNotComplete),
        output: ree_apps::Verdict::Correct,
        perceived: Some(12.625),
        actual: Some(11.25),
        perceived_all: vec![Some(12.625), None, Some(0.5)],
        actual_all: vec![Some(11.25), None],
        restarts: 2,
        recovery_times: vec![0.25, 1.5],
        correlated: true,
        assertion_fired: false,
        heap_hit: Some(ree_os::HeapHit {
            region: "texture".into(),
            field: "row_ptr".into(),
            kind: ree_os::FieldKind::Pointer,
        }),
        net_faults_applied: 2,
    }
}

/// A plan with every optional populated survives the codec. `RunPlan`
/// has no `PartialEq` (it holds a `Topology`), so equality goes through
/// the exhaustive `Debug` rendering.
#[test]
fn rich_plan_roundtrips() {
    let plan = rich_plan();
    let msg = Msg::Plan { plan: Box::new(plan.clone()) };
    let decoded = decode_msg(&encode_msg(&msg)).expect("decodes");
    let Msg::Plan { plan: back } = decoded else { panic!("wrong variant") };
    assert_eq!(format!("{plan:?}"), format!("{back:?}"));
    back.validate().expect("decoded plan still validates");
}

/// The wire cannot rule out an application name outside the table, so
/// the decoded plan must fail validation instead of running as texture.
#[test]
fn decoded_plan_naming_an_unknown_app_fails_validation() {
    let mut plan = minimal_plan();
    plan.scenario.jobs[0].app = "nope".into();
    let decoded = decode_msg(&encode_msg(&Msg::Plan { plan: Box::new(plan) })).expect("decodes");
    let Msg::Plan { plan: back } = decoded else { panic!("wrong variant") };
    let err = back.validate().unwrap_err();
    assert!(matches!(err, ree_inject::CampaignError::InvalidPlan(_)), "{err}");
    assert!(err.to_string().contains("nope"), "unexpected message: {err}");
}

fn minimal_plan() -> RunPlan {
    RunPlan {
        scenario: ree_apps::Scenario::single_texture(1),
        target: Target::App,
        model: ErrorModel::Register,
        timeout: SimTime::ZERO + SimDuration::from_secs(120),
        net_faults: Vec::new(),
    }
}

#[test]
fn minimal_plan_roundtrips() {
    let plan = minimal_plan();
    let msg = Msg::Plan { plan: Box::new(plan.clone()) };
    let Msg::Plan { plan: back } = decode_msg(&encode_msg(&msg)).expect("decodes") else {
        panic!("wrong variant")
    };
    assert_eq!(format!("{plan:?}"), format!("{back:?}"));
}

/// `RunResult` is `PartialEq`, so transport exactness is asserted
/// directly — including the NaN-free optional floats bit-for-bit.
#[test]
fn rich_result_roundtrips() {
    let results = vec![
        rich_result(),
        RunResult {
            seed: 1,
            injections: 0,
            induced: None,
            completed: false,
            system_failure: None,
            output: ree_apps::Verdict::Missing,
            perceived: None,
            actual: None,
            perceived_all: Vec::new(),
            actual_all: Vec::new(),
            restarts: 0,
            recovery_times: Vec::new(),
            correlated: false,
            assertion_fired: true,
            heap_hit: None,
            net_faults_applied: 0,
        },
    ];
    let msg = Msg::BatchDone { batch: 7, results: results.clone() };
    let Msg::BatchDone { batch, results: back } = decode_msg(&encode_msg(&msg)).expect("decodes")
    else {
        panic!("wrong variant")
    };
    assert_eq!(batch, 7);
    assert_eq!(back, results);
}

fn control_messages() -> Vec<Msg> {
    vec![
        Msg::Hello { proto: PROTO_VERSION },
        Msg::Batch { batch: 42, seed0: u64::MAX - 5, len: 16 },
        Msg::Shutdown,
        Msg::Ready { worker: 3, proto: PROTO_VERSION },
        Msg::PlanAccepted,
        Msg::PlanRejected { error: "invalid run plan: timeout must be positive".into() },
        Msg::Progress { batch: 9, done: 11 },
        Msg::BatchFailed { batch: 2, error: "run for seed 19 panicked: boom".into() },
    ]
}

#[test]
fn every_control_message_roundtrips() {
    for msg in &control_messages() {
        let back = decode_msg(&encode_msg(msg)).expect("decodes");
        assert_eq!(format!("{msg:?}"), format!("{back:?}"));
    }
}

fn all_models() -> Vec<ErrorModel> {
    vec![
        ErrorModel::Sigint,
        ErrorModel::Sigstop,
        ErrorModel::Register,
        ErrorModel::TextSegment,
        ErrorModel::Heap,
        ErrorModel::HeapSingle(ree_os::HeapTarget::Any),
        ErrorModel::HeapSingle(ree_os::HeapTarget::DataOnly),
        ErrorModel::HeapSingle(ree_os::HeapTarget::Region("stack".into())),
    ]
}

fn all_targets() -> Vec<Target> {
    vec![
        Target::App,
        Target::NamedApp("otis".into()),
        Target::Ftm,
        Target::ExecArmor,
        Target::Heartbeat,
        Target::AnyArmor,
    ]
}

/// Every error model and target variant crosses the wire.
#[test]
fn all_model_and_target_variants_roundtrip() {
    for model in &all_models() {
        for target in &all_targets() {
            let mut plan = RunPlan {
                scenario: ree_apps::Scenario::single_texture(0),
                target: target.clone(),
                model: model.clone(),
                timeout: SimTime::ZERO + SimDuration::from_secs(1),
                net_faults: Vec::new(),
            };
            plan.scenario.trace = false;
            let msg = Msg::Plan { plan: Box::new(plan.clone()) };
            let Msg::Plan { plan: back } = decode_msg(&encode_msg(&msg)).expect("decodes") else {
                panic!("wrong variant")
            };
            assert_eq!(format!("{plan:?}"), format!("{back:?}"));
        }
    }
}

/// Adversarial payloads: truncation, unknown tags, and trailing bytes
/// are typed errors, never panics.
#[test]
fn adversarial_payloads_yield_typed_errors() {
    // Unknown message tag.
    match decode_msg(&[0xEE]) {
        Err(WireError::BadTag { tag: 0xEE, .. }) => {}
        other => panic!("expected BadTag, got {other:?}"),
    }
    // Empty payload.
    match decode_msg(&[]) {
        Err(WireError::Truncated { .. }) => {}
        other => panic!("expected Truncated, got {other:?}"),
    }
    // Trailing garbage after a valid message.
    let mut bytes = encode_msg(&Msg::PlanAccepted);
    bytes.push(0x00);
    match decode_msg(&bytes) {
        Err(WireError::Trailing { .. }) => {}
        other => panic!("expected Trailing, got {other:?}"),
    }
    // Every truncation point of a complex message is a typed error.
    let full = encode_msg(&Msg::BatchDone { batch: 1, results: vec![rich_result()] });
    for cut in 0..full.len() {
        match decode_msg(&full[..cut]) {
            Err(_) => {}
            Ok(msg) => panic!("truncation at {cut} decoded as {msg:?}"),
        }
    }
    // Non-UTF-8 in a string field.
    let mut bad = encode_msg(&Msg::PlanRejected { error: "ascii".into() });
    let last = bad.len() - 1;
    bad[last] = 0xFF;
    match decode_msg(&bad) {
        Err(WireError::BadUtf8 { .. }) => {}
        other => panic!("expected BadUtf8, got {other:?}"),
    }
}

/// `name len=N fnv1a=H` of one encoded message.
fn golden_line(out: &mut String, name: &str, msg: &Msg) {
    let bytes = encode_msg(msg);
    let mut fnv = Fnv64::default();
    fnv.write(&bytes);
    writeln!(out, "{name} len={} fnv1a={:016x}", bytes.len(), fnv.finish()).unwrap();
}

/// The wire bytes are pinned: `snapshots/wire_v{PROTO_VERSION}.txt`
/// holds the length and FNV-1a-64 of every message shape and every enum
/// variant that crosses the wire. Any codec change that moves a byte
/// fails here. The golden is named after the protocol version, so a
/// codec change must bump `PROTO_VERSION`, regenerate with
/// `REGEN_WIRE_SNAPSHOT=1 cargo test -p ree-dist --test wire_roundtrip`
/// and delete the previous version's file.
#[test]
fn wire_bytes_match_the_versioned_snapshot() {
    let plan_msg = |plan: RunPlan| Msg::Plan { plan: Box::new(plan) };
    let mut out = String::new();
    golden_line(&mut out, "plan.rich", &plan_msg(rich_plan()));
    golden_line(&mut out, "plan.minimal", &plan_msg(minimal_plan()));
    golden_line(
        &mut out,
        "batch_done.rich",
        &Msg::BatchDone { batch: 7, results: vec![rich_result()] },
    );
    for msg in &control_messages() {
        let name = format!("{msg:?}");
        let name = name.split([' ', '{']).next().unwrap().to_lowercase();
        golden_line(&mut out, &format!("control.{name}"), msg);
    }
    for target in all_targets() {
        let name = format!("target.{target:?}");
        golden_line(&mut out, &name, &plan_msg(RunPlan { target, ..minimal_plan() }));
    }
    for model in all_models() {
        let name = format!("model.{model:?}");
        golden_line(&mut out, &name, &plan_msg(RunPlan { model, ..minimal_plan() }));
    }
    let groups = vec![vec![0, 1], vec![2], vec![3]];
    let name = format!("net_fault.groups={groups:?}");
    let fault = NetFault::partition_on_recovery(groups, SimDuration::from_secs(2));
    golden_line(&mut out, &name, &plan_msg(RunPlan { net_faults: vec![fault], ..minimal_plan() }));

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(format!("tests/snapshots/wire_v{PROTO_VERSION}.txt"));
    if std::env::var_os("REGEN_WIRE_SNAPSHOT").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {}: {e}", path.display()));
    for (line, (want, got)) in (1..).zip(expected.lines().zip(out.lines())) {
        assert_eq!(want, got, "wire bytes moved at {} line {line}", path.display());
    }
    assert_eq!(expected.lines().count(), out.lines().count(), "snapshot line count");
}

/// A CRC-valid frame can still carry a hostile payload. Overwriting any
/// single byte of a fully-populated `Plan` (topology, net faults) or
/// `BatchDone` with an out-of-range value must decode to a message or a
/// typed error — never a panic (historically: the topology decoder's
/// range `assert!`s, and `bool`/`Option` tags read as "anything non-zero").
#[test]
fn single_byte_mutations_never_panic() {
    let payloads = [
        encode_msg(&Msg::Plan { plan: Box::new(rich_plan()) }),
        encode_msg(&Msg::BatchDone { batch: 1, results: vec![rich_result()] }),
    ];
    let mut panics = Vec::new();
    for (which, payload) in payloads.iter().enumerate() {
        for at in 0..payload.len() {
            for value in [0x02, 0x7F, 0xFF] {
                let mut bytes = payload.clone();
                bytes[at] = value;
                if std::panic::catch_unwind(|| decode_msg(&bytes).map(drop)).is_err() {
                    panics.push((which, at, value));
                }
            }
        }
    }
    assert!(panics.is_empty(), "{} mutations panicked, first: {:?}", panics.len(), panics[0]);
}

/// `bool` and `Option` tags admit exactly 0 and 1.
#[test]
fn bool_and_option_tags_are_strict() {
    // The first `Option` tag and the first `bool` of a `BatchDone`: the
    // result's `induced` and `completed`.
    let clean = encode_msg(&Msg::BatchDone { batch: 1, results: vec![rich_result()] });
    // tag(1) batch(4) count(4) seed(8) injections(4) → induced tag, then
    // its class byte, then `completed`.
    let induced_tag = 1 + 4 + 4 + 8 + 4;
    let completed = induced_tag + 2;
    assert_eq!((clean[induced_tag], clean[completed]), (1, 1));
    for at in [induced_tag, completed] {
        let mut bytes = clean.clone();
        bytes[at] = 2;
        match decode_msg(&bytes) {
            Err(WireError::BadTag { tag: 2, .. }) => {}
            other => panic!("byte {at} = 2 should be BadTag, got {other:?}"),
        }
    }
}
