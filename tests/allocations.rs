//! Allocation regression test: a run pays for the objects it touches, not
//! for the whole object base, an ordered-dictionary read pays for what it
//! returns, not for the size of the dictionary, and the wire codec builds
//! nothing on the way between bytes and frames.
//!
//! One two-operation transaction goes through `Runtime::run` configured as
//! the server runs a batch (the serve default scheduler, workers and
//! retries, `Verify::Quick`, `Observe::Latency`), over a base of 8 and of
//! 2,048 accounts. A counting global allocator around [`System`] counts the
//! allocations the run makes; the minimum of 10 runs at 2,048 accounts may
//! exceed the one at 8 by at most 5% plus 16. A `BTreeDict` `Lookup` and
//! `Range` on a 4,096-pair state may allocate at most 4 more than the same
//! operation on a 16-pair state. Two counts are absolute: the served run
//! over 8 accounts may make at most 5% plus 4 more than the 174 it made
//! when this bound was set, and the codec's are exact. Decoding a `Result`
//! frame allocates nothing and encoding one allocates its bytes once; a
//! `Submit` shaped like servebench's `flat-accounts` and `large-dict`
//! submissions decodes with no allocation beyond the strings and vectors
//! the decoded frame owns, and encodes with one. Unlike a timing gate, the
//! count does not move with host load.
//!
//! The binary holds this one test so that no other test allocates while a
//! count is being taken. It spells the server's runtime out rather than
//! calling `ServeConfig::runtime`, so that it also builds against older
//! versions of the library for comparison. Run it with
//! `cargo test --release --test allocations -- --nocapture` to see the
//! counts.

use obase::adt::{Account, BTreeDict};
use obase::core::ids::ObjectId;
use obase::core::object::{ObjectBase, SemanticType};
use obase::core::op::Operation;
use obase::core::value::Value;
use obase::exec::{Expr, MethodDef, ObjectBaseDef, Program, TxnSpec, WorkloadSpec};
use obase::runtime::{ExecutionBackend, Observe, Runtime, Verify};
use obase::serve::wire::{decode_frame, encode_frame};
use obase::serve::{Frame, ServeConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// [`System`], counting every allocation and reallocation.
struct Counting;

/// Allocations so far. `Relaxed`: a statistic that publishes no other data.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method passes its caller's arguments unchanged to the same
// method of `System`, so `System`'s guarantees hold for the caller; the
// count beside it touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `accounts` accounts with a `deposit` and a `balance` method each, and
/// one transaction that deposits into account 3 and reads account 5.
fn accounts(accounts: usize) -> WorkloadSpec {
    let mut base = ObjectBase::new();
    for i in 0..accounts {
        base.add_object_with_state(
            format!("a{i}"),
            Arc::new(Account::with_initial(1_000)),
            Value::Int(1_000),
        );
    }
    let mut def = ObjectBaseDef::new(Arc::new(base));
    for i in 0..accounts {
        for (name, params, op) in [("deposit", 1, "Deposit"), ("balance", 0, "Balance")] {
            def.define_method(
                ObjectId(i as u32),
                MethodDef {
                    name: name.into(),
                    params,
                    body: Program::Local {
                        op: op.into(),
                        args: (0..params).map(Expr::Param).collect(),
                    },
                },
            );
        }
    }
    WorkloadSpec {
        def,
        transactions: vec![TxnSpec {
            name: "solo".into(),
            body: Program::Seq(vec![
                Program::invoke(ObjectId(3), "deposit", [Value::Int(5)]),
                Program::invoke(ObjectId(5), "balance", []),
            ]),
        }],
    }
}

/// `f`'s result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// The fewest allocations any of 10 runs of `workload` made.
fn min_allocations(runtime: &Runtime, workload: &WorkloadSpec) -> u64 {
    (0..10)
        .map(|_| {
            let (report, made) = counted(|| runtime.run(workload).expect("a well-formed workload"));
            assert_eq!(report.metrics.committed, 1, "{:?}", report.metrics);
            assert!(report.checks.all_passed());
            made
        })
        .min()
        .expect("ten runs")
}

/// The heap blocks `p` owns: one per non-empty string and vector, and a
/// list's shared vector. (The gated shapes hold no maps.)
fn owned_program(p: &Program) -> u64 {
    let vec = |empty: bool| u64::from(!empty);
    let string = |s: &str| u64::from(!s.is_empty());
    let args = |args: &[Expr]| {
        let values: u64 = args
            .iter()
            .map(|a| match a {
                Expr::Const(v) => owned_value(v),
                Expr::Param(_) => 0,
            })
            .sum();
        vec(args.is_empty()) + values
    };
    match p {
        Program::Local { op, args: a } => string(op) + args(a),
        Program::Invoke {
            method, args: a, ..
        } => string(method) + args(a),
        Program::Seq(ps) | Program::Par(ps) => {
            vec(ps.is_empty()) + ps.iter().map(owned_program).sum::<u64>()
        }
    }
}

fn owned_value(v: &Value) -> u64 {
    match v {
        Value::Str(s) => u64::from(!s.is_empty()),
        Value::List(items) => 2 + items.iter().map(owned_value).sum::<u64>(),
        Value::Map(_) => unreachable!("the gated shapes hold no maps"),
        _ => 0,
    }
}

/// The allocations one `decode_frame` and one `encode_frame` of `frame`
/// make, after a warm-up of each.
fn codec_allocations(frame: &Frame) -> (u64, u64) {
    let bytes = encode_frame(frame);
    decode_frame(&bytes).expect("an encoded frame decodes");
    let (decoded, decode) = counted(|| decode_frame(&bytes));
    assert_eq!(decoded.expect("an encoded frame decodes").0, *frame);
    let (encoded, encode) = counted(|| encode_frame(frame));
    assert_eq!(encoded, bytes);
    (decode, encode)
}

/// A `BTreeDict` state of `pairs` pairs `[k, 10k]`.
fn sorted_pairs(pairs: i64) -> Value {
    Value::list((0..pairs).map(|k| Value::list([Value::Int(k), Value::Int(10 * k)])))
}

#[test]
fn a_run_allocates_for_what_it_touches_not_for_the_base() {
    let serve = ServeConfig::default();
    let (small, large) = (accounts(8), accounts(2_048));
    let mut builder = Runtime::builder()
        .scheduler(serve.scheduler.clone())
        .backend(ExecutionBackend::Parallel {
            workers: serve.workers,
        })
        .retries(serve.retries)
        .verify(Verify::Quick)
        .observe(Observe::Latency);
    if serve.store_shards > 0 {
        builder = builder.store_shards(serve.store_shards);
    }
    let runtime = builder
        .build()
        .expect("the serve defaults are a valid runtime");
    let at_8 = min_allocations(&runtime, &small);
    let at_2048 = min_allocations(&runtime, &large);
    println!("allocations per run: {at_8} at 8 accounts, {at_2048} at 2048 accounts");
    const RECORDED: u64 = 174;
    let absolute = RECORDED + RECORDED * 5 / 100 + 4;
    assert!(
        at_8 <= absolute,
        "a served run over 8 accounts made {at_8} allocations, more than the \
         {absolute} allowed over the {RECORDED} recorded"
    );
    let bound = at_8 + at_8 / 20 + 16;
    assert!(
        at_2048 <= bound,
        "a run over 2048 accounts made {at_2048} allocations against \
         {at_8} over 8 (bound {bound}): the run is paying for the size of the object base"
    );

    let result = Frame::Result {
        id: 4_096,
        committed: true,
        latency_us: 1_250,
    };
    let (decode, encode) = codec_allocations(&result);
    println!("allocations per Result frame: decode {decode}, encode {encode}");
    assert_eq!(
        (decode, encode),
        (0, 1),
        "a Result frame's decode and encode"
    );
    let invoke = |o: u32, method: &str, args: Vec<Value>| Program::Invoke {
        object: obase::exec::ObjRef::Const(ObjectId(o)),
        method: method.into(),
        args: args.into_iter().map(Expr::Const).collect(),
    };
    for (shape, body) in [
        (
            "flat-accounts",
            Program::Seq(vec![
                invoke(17, "deposit", vec![Value::Int(5)]),
                invoke(200, "balance", vec![]),
            ]),
        ),
        (
            "large-dict",
            Program::Seq(vec![
                invoke(3, "lookup", vec![Value::from("k500")]),
                invoke(5, "put", vec![Value::from("k77"), Value::Int(-1)]),
            ]),
        ),
    ] {
        let owned = 1 + owned_program(&body);
        let submit = Frame::Submit {
            id: 81_920,
            name: "t".into(),
            body,
        };
        let (decode, encode) = codec_allocations(&submit);
        println!(
            "allocations per {shape} Submit frame: decode {decode} (the frame owns {owned}), \
             encode {encode}"
        );
        assert!(
            decode <= owned && encode == 1,
            "a {shape} Submit frame allocated {decode} to decode (it owns {owned}) \
             and {encode} to encode (bound 1)"
        );
    }

    // Both reads return the same values on both states; only the number of
    // pairs they search differs.
    let (short, long) = (sorted_pairs(16), sorted_pairs(4_096));
    for op in [
        Operation::unary("Lookup", 7),
        Operation::new("Range", [Value::Int(4), Value::Int(8)]),
    ] {
        let apply =
            |state: &Value| counted(|| BTreeDict.apply(state, &op).expect("a well-formed read")).1;
        let (at_16, at_4096) = (apply(&short), apply(&long));
        println!("allocations per {op:?}: {at_16} at 16 pairs, {at_4096} at 4096 pairs");
        assert!(
            at_4096 <= at_16 + 4,
            "{op:?} on 4096 pairs made {at_4096} allocations against {at_16} on 16: \
             the read is paying for the size of the dictionary"
        );
    }
}
