//! Property-based tests over the core data model and the optimizer.
//!
//! * the exchange format of §3 roundtrips every object value;
//! * the canonical order `≤_t` is a total order (antisymmetric,
//!   transitive) — the §6 results depend on it;
//! * `index` inverts `graph` up to singleton grouping (§2);
//! * the §6 object translation `°` roundtrips at every object type;
//! * the §5 optimizer is semantics-preserving on randomly composed
//!   array pipelines (the error-free fragment, per the paper's
//!   soundness convention);
//! * `min!`, `max!` and `⋃` over a streamed comprehension nest agree
//!   with the same set bound by `let` first: same value or classified
//!   error, and step counts that differ only by the `let` itself.

use std::cmp::Ordering;

use proptest::prelude::*;

use aql::core::derived;
use aql::core::error::EvalError;
use aql::core::eval::{eval, eval_closed, EvalCtx, Limits};
use aql::core::prim::Extensions;
use aql::core::expr::builder::*;
use aql::core::expr::Expr;
use aql::core::rank::{decode_obj, encode_obj};
use aql::core::types::Type;
use aql::core::value::ord::canonical_cmp;
use aql::core::value::parse::parse_value;
use aql::core::value::Value;
use aql::opt::optimize;

// ---------------------------------------------------------------------
// Typed value generation: a random object type, then a value of it.
// ---------------------------------------------------------------------

/// A random object type of bounded depth.
fn arb_type() -> impl Strategy<Value = Type> {
    let leaf = prop_oneof![
        Just(Type::Bool),
        Just(Type::Nat),
        Just(Type::Real),
        Just(Type::Str),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Type::tuple),
            inner.clone().prop_map(Type::set),
            inner.prop_map(Type::array1),
        ]
    })
}

/// A random value of the given type.
fn value_of(t: &Type) -> BoxedStrategy<Value> {
    match t {
        Type::Bool => any::<bool>().prop_map(Value::Bool).boxed(),
        Type::Nat => (0u64..1_000_000).prop_map(Value::Nat).boxed(),
        Type::Real => (-1.0e6f64..1.0e6)
            .prop_map(|r| Value::Real((r * 8.0).round() / 8.0))
            .boxed(),
        Type::Str => "[a-z]{0,6}".prop_map(|s| Value::str(&s)).boxed(),
        Type::Tuple(ts) => ts
            .iter()
            .map(value_of)
            .collect::<Vec<_>>()
            .prop_map(Value::tuple)
            .boxed(),
        Type::Set(elem) => prop::collection::vec(value_of(elem), 0..4)
            .prop_map(Value::set)
            .boxed(),
        Type::Array(elem, 1) => prop::collection::vec(value_of(elem), 0..4)
            .prop_map(Value::array1)
            .boxed(),
        other => panic!("no generator for {other}"),
    }
}

/// A `(type, value)` pair.
fn arb_typed_value() -> impl Strategy<Value = (Type, Value)> {
    arb_type().prop_flat_map(|t| {
        let vs = value_of(&t);
        vs.prop_map(move |v| (t.clone(), v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exchange_format_roundtrips((_t, v) in arb_typed_value()) {
        let printed = v.to_string();
        let back = parse_value(&printed)
            .unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
        prop_assert_eq!(back, v);
    }

    #[test]
    fn canonical_order_is_total((t, _v) in arb_typed_value(),) {
        // Draw three values of the same type and check order laws.
        let mut runner = proptest::test_runner::TestRunner::deterministic();
        let s = value_of(&t);
        let a = s.new_tree(&mut runner).unwrap().current();
        let b = s.new_tree(&mut runner).unwrap().current();
        let c = s.new_tree(&mut runner).unwrap().current();
        // Reflexivity and antisymmetry.
        prop_assert_eq!(canonical_cmp(&a, &a), Ordering::Equal);
        prop_assert_eq!(canonical_cmp(&a, &b), canonical_cmp(&b, &a).reverse());
        // Transitivity of ≤.
        if canonical_cmp(&a, &b) != Ordering::Greater
            && canonical_cmp(&b, &c) != Ordering::Greater
        {
            prop_assert_ne!(canonical_cmp(&a, &c), Ordering::Greater);
        }
    }

    #[test]
    fn object_translation_roundtrips((t, v) in arb_typed_value()) {
        let enc = encode_obj(&v).unwrap();
        let dec = decode_obj(&t, &enc).unwrap();
        prop_assert_eq!(dec, v);
    }

    #[test]
    fn index_inverts_graph(ns in prop::collection::vec(0u64..50, 0..12)) {
        // index_1(graph(A)) is the array of singletons {A[i]} (§2).
        let arr_expr = array1_lit(ns.iter().map(|&x| nat(x)).collect());
        let e = index(1, derived::graph1(arr_expr));
        let v = eval_closed(&e).unwrap();
        let got = v.as_array().unwrap();
        prop_assert_eq!(got.dims(), &[ns.len() as u64][..]);
        for (i, &x) in ns.iter().enumerate() {
            let cellv = got.get(&[i as u64]).unwrap();
            let cell = cellv.as_set().unwrap();
            prop_assert_eq!(cell.len(), 1);
            prop_assert!(cell.contains(&Value::Nat(x)));
        }
    }

    #[test]
    fn set_canonicalisation_is_idempotent(ns in prop::collection::vec(0u64..30, 0..20)) {
        let a = Value::set(ns.iter().map(|&x| Value::Nat(x)).collect());
        let b = Value::set(
            a.as_set().unwrap().iter().cloned().rev().collect::<Vec<_>>(),
        );
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------
// Optimizer soundness on random array pipelines.
// ---------------------------------------------------------------------

/// One step of an array-to-array pipeline (kept within the error-free
/// fragment: slices stay in bounds).
#[derive(Debug, Clone)]
enum Step {
    Reverse,
    Evenpos,
    /// Fractions of the current length, lo ≤ hi.
    Subseq(f64, f64),
    /// Append `k` constant elements.
    Append(u8),
    /// Tabulated map (+c).
    MapAdd(u8),
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Reverse),
        Just(Step::Evenpos),
        (0.0f64..1.0, 0.0f64..1.0).prop_map(|(a, b)| {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            Step::Subseq(lo, hi)
        }),
        (1u8..4).prop_map(Step::Append),
        (0u8..10).prop_map(Step::MapAdd),
    ]
}

/// A random expression of type `{nat}` with the given recursion depth:
/// leaves are `gen`/literals, inner nodes are unions, comprehensions
/// (big unions with filters), singleton maps, and `rng` of tabulations
/// — every construct the set-monad rules rewrite.
fn arb_set_expr(depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0u64..8).prop_map(|n| gen(nat(n))),
        Just(empty()),
        prop::collection::vec(0u64..20, 0..4)
            .prop_map(|ns| ns.into_iter().fold(empty(), |a, n| union(a, single(nat(n))))),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub_strategy = arb_set_expr(depth - 1);
    prop_oneof![
        leaf,
        (sub_strategy.clone(), sub_strategy.clone())
            .prop_map(|(a, b)| union(a, b)),
        // ⋃{ {x + c} | x ∈ S }
        (sub_strategy.clone(), 0u64..5).prop_map(|(s, c)| {
            let x = aql::core::expr::free::fresh("x");
            big_union(&x, s, single(add(var(&x), nat(c))))
        }),
        // ⋃{ if x < c then {x} else {} | x ∈ S } — filter
        (sub_strategy.clone(), 0u64..10).prop_map(|(s, c)| {
            let x = aql::core::expr::free::fresh("x");
            big_union(&x, s, iff(lt(var(&x), nat(c)), single(var(&x)), empty()))
        }),
        // singleton-η shape: ⋃{ {x} | x ∈ S }
        sub_strategy.clone().prop_map(|s| {
            let x = aql::core::expr::free::fresh("x");
            big_union(&x, s, single(var(&x)))
        }),
        // rng of a tabulation over a count derived from the subtree
        sub_strategy.prop_map(|s| {
            let x = aql::core::expr::free::fresh("x");
            derived::rng(tab1(
                &x,
                sum(&aql::core::expr::free::fresh("c"), s, nat(1)),
                mul(var(&x), nat(3)),
            ))
        }),
    ]
    .boxed()
}

/// A random expression of type `{|nat|}` — the bag analogue of
/// [`arb_set_expr`], with duplicated elements so multiplicity bugs
/// show.
fn arb_bag_expr(depth: u32) -> BoxedStrategy<Expr> {
    use aql::core::expr::Expr as E;
    let leaf = prop_oneof![
        Just(E::BagEmpty),
        prop::collection::vec(0u64..6, 0..5).prop_map(|ns| ns
            .into_iter()
            .fold(E::BagEmpty, |a, n| bag_union(a, bag_single(nat(n))))),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub_strategy = arb_bag_expr(depth - 1);
    prop_oneof![
        leaf,
        (sub_strategy.clone(), sub_strategy.clone()).prop_map(|(a, b)| bag_union(a, b)),
        (sub_strategy.clone(), 0u64..4).prop_map(|(s, c)| {
            let x = aql::core::expr::free::fresh("x");
            big_bag_union(&x, s, bag_single(modulo(var(&x), nat(c + 1))))
        }),
        (sub_strategy.clone(), 0u64..8).prop_map(|(s, c)| {
            let x = aql::core::expr::free::fresh("x");
            big_bag_union(
                &x,
                s,
                iff(lt(var(&x), nat(c)), bag_single(var(&x)), E::BagEmpty),
            )
        }),
        sub_strategy.prop_map(|s| {
            let x = aql::core::expr::free::fresh("x");
            big_bag_union(&x, s, bag_single(var(&x)))
        }),
    ]
    .boxed()
}

/// Apply a pipeline symbolically, tracking the length so slices stay
/// in bounds.
fn build_pipeline(base: Vec<u64>, steps: &[Step]) -> Expr {
    let mut e = array1_lit(base.iter().map(|&x| nat(x)).collect());
    let mut len_now = base.len() as u64;
    for s in steps {
        match s {
            Step::Reverse => e = derived::reverse(e),
            Step::Evenpos => {
                e = derived::evenpos(e);
                len_now /= 2;
            }
            Step::Subseq(a, b) => {
                if len_now == 0 {
                    continue;
                }
                let lo = ((*a * (len_now - 1) as f64) as u64).min(len_now - 1);
                let hi = ((*b * (len_now - 1) as f64) as u64).clamp(lo, len_now - 1);
                e = derived::subseq(e, nat(lo), nat(hi));
                len_now = hi - lo + 1;
            }
            Step::Append(k) => {
                let extra: Vec<Expr> = (0..*k as u64).map(nat).collect();
                e = derived::append(e, array1_lit(extra));
                len_now += *k as u64;
            }
            Step::MapAdd(c) => {
                let f = {
                    let x = aql::core::expr::free::fresh("x");
                    lam(&x, add(var(&x), nat(*c as u64)))
                };
                e = derived::map_arr(f, e);
            }
        }
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimizer_preserves_pipeline_semantics(
        base in prop::collection::vec(0u64..100, 0..10),
        steps in prop::collection::vec(arb_step(), 1..5),
    ) {
        let e = build_pipeline(base, &steps);
        let raw = eval_closed(&e).unwrap();
        let opt_e = optimize(&e);
        let opt = eval_closed(&opt_e).unwrap();
        prop_assert_eq!(raw, opt, "pipeline {:?}\nraw expr {}\nopt expr {}", steps, e, opt_e);
    }

    #[test]
    fn optimizer_preserves_matrix_queries(
        r in 1usize..4, c in 1usize..4,
        vals in prop::collection::vec(0u64..50, 16),
    ) {
        let data: Vec<Expr> = vals[..r * c].iter().map(|&x| nat(x)).collect();
        let m = array_lit(vec![nat(r as u64), nat(c as u64)], data);
        for q in [
            derived::transpose(m.clone()),
            derived::transpose(derived::transpose(m.clone())),
            derived::proj_col(m.clone(), nat(0)),
            derived::matmul(m.clone(), derived::transpose(m.clone())),
        ] {
            let raw = eval_closed(&q).unwrap();
            let opt = eval_closed(&optimize(&q)).unwrap();
            prop_assert_eq!(raw, opt);
        }
    }

    #[test]
    fn optimizer_preserves_aggregates(
        ns in prop::collection::vec(0u64..40, 0..12),
        bound in 0u64..30,
    ) {
        let arr = array1_lit(ns.iter().map(|&x| nat(x)).collect());
        let queries = vec![
            derived::count(derived::rng(arr.clone())),
            sum("x", gen(nat(bound)), mul(var("x"), var("x"))),
            derived::hist_indexed(arr.clone()),
            big_union("x", derived::rng(arr), iff(lt(var("x"), nat(20)), single(var("x")), empty())),
        ];
        for q in queries {
            let raw = eval_closed(&q).unwrap();
            let opt = eval_closed(&optimize(&q)).unwrap();
            prop_assert_eq!(raw, opt);
        }
    }

    #[test]
    fn optimizer_preserves_random_bag_trees(tree in arb_bag_expr(3)) {
        // The bag (NBC) monad laws must also preserve semantics —
        // including multiplicities, which set laws never see.
        let raw = eval_closed(&tree).unwrap();
        let opt_e = optimize(&tree);
        let opt = eval_closed(&opt_e).unwrap();
        prop_assert_eq!(raw, opt, "tree {}\nopt {}", tree, opt_e);
    }

    #[test]
    fn optimizer_preserves_random_set_trees(tree in arb_set_expr(3)) {
        // Random nested comprehension trees over {nat}: the optimizer
        // (fusion, filter promotion, η, unit laws, …) must preserve
        // their value.
        let raw = eval_closed(&tree).unwrap();
        let opt_e = optimize(&tree);
        let opt = eval_closed(&opt_e).unwrap();
        prop_assert_eq!(raw, opt, "tree {}\nopt {}", tree, opt_e);
    }

    #[test]
    fn zip_of_subseqs_always_commutes(
        a in prop::collection::vec(0u64..100, 0..16),
        b in prop::collection::vec(0u64..100, 0..16),
        lo in 0u64..16, hi in 0u64..16,
    ) {
        // Even with *out-of-range* slice bounds the two §1 pipelines
        // agree (both produce the same ⊥-or-array), optimized or not.
        let ea = array1_lit(a.iter().map(|&x| nat(x)).collect());
        let eb = array1_lit(b.iter().map(|&x| nat(x)).collect());
        let q1 = derived::zip(
            derived::subseq(ea.clone(), nat(lo), nat(hi)),
            derived::subseq(eb.clone(), nat(lo), nat(hi)),
        );
        let q2 = derived::subseq(derived::zip(ea, eb), nat(lo), nat(hi));
        let v1 = eval_closed(&q1).unwrap();
        let v2 = eval_closed(&q2).unwrap();
        prop_assert_eq!(&v1, &v2);
        prop_assert_eq!(eval_closed(&optimize(&q1)).unwrap(), v1);
        prop_assert_eq!(eval_closed(&optimize(&q2)).unwrap(), v2);
    }
}

// ---------------------------------------------------------------------
// Streamed set enumeration against the materializing fallback.
// ---------------------------------------------------------------------

/// A random set-valued comprehension nest: generators nested in heads
/// and filters, over `nat` and `real` elements. Unlike
/// [`arb_set_expr`] it is not always well typed or ⊥-free: heads can
/// be ⊥ (`6 / 0`), a source or a filter condition can be ⊥, a head can
/// fail to be a set, and reals include `-0.0`, `0.0` and both NaN
/// signs.
fn arb_stream_nest(depth: u32) -> BoxedStrategy<Expr> {
    let fresh = || aql::core::expr::free::fresh("x");
    let reals = [-0.0, 0.0, f64::NAN, -f64::NAN, 1.5];
    let leaf = prop_oneof![
        4 => (0u64..5).prop_map(|n| gen(nat(n))),
        1 => Just(empty()),
        3 => prop::collection::vec(0u64..6, 1..4)
            .prop_map(|ns| ns.into_iter().fold(empty(), |a, n| union(a, single(nat(n))))),
        2 => prop::collection::vec(0usize..5, 1..4).prop_map(move |ks| {
            ks.into_iter().fold(empty(), |a, k| union(a, single(real(reals[k]))))
        }),
        1 => Just(bottom()),
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = arb_stream_nest(depth - 1);
    prop_oneof![
        2 => leaf,
        // ⋃{ {f(x)} | x ∈ S }: identity, duplicates, ⊥ at x = 0, ties.
        3 => (sub.clone(), 0u8..4).prop_map(move |(s, f)| {
            let x = fresh();
            let head = match f {
                0 => var(&x),
                1 => modulo(var(&x), nat(3)),
                2 => div(nat(6), var(&x)),
                _ => iff(lt(var(&x), nat(2)), real(-0.0), real(0.0)),
            };
            big_union(&x, s, single(head))
        }),
        // ⋃{ T | x ∈ S }: a nested generator.
        3 => (sub.clone(), sub.clone()).prop_map(move |(s, t)| big_union(&fresh(), s, t)),
        // ⋃{ if x < c then T else {} | x ∈ S }: a filter.
        2 => (sub.clone(), sub.clone(), 0u64..4).prop_map(move |(s, t, c)| {
            let x = fresh();
            big_union(&x, s, iff(lt(var(&x), nat(c)), t, empty()))
        }),
        // A filter whose condition is ⊥ at x = 0.
        1 => sub.clone().prop_map(move |s| {
            let x = fresh();
            big_union(&x, s, iff(lt(div(nat(1), var(&x)), nat(1)), empty(), single(var(&x))))
        }),
        // ⋃{ ⋃{ {x + y} | y ∈ gen(x mod 4) } | x ∈ S }: a dependent source.
        2 => sub.clone().prop_map(move |s| {
            let (x, y) = (fresh(), fresh());
            let inner = big_union(&y, gen(modulo(var(&x), nat(4))), single(add(var(&x), var(&y))));
            big_union(&x, s, inner)
        }),
        // A head that is not a set.
        1 => sub.clone().prop_map(move |s| {
            let x = fresh();
            big_union(&x, s, var(&x))
        }),
        1 => (sub.clone(), sub.clone()).prop_map(|(s, t)| union(s, t)),
        1 => (sub.clone(), sub, 0u64..3).prop_map(|(s, t, c)| iff(lt(nat(c), nat(1)), s, t)),
    ]
    .boxed()
}

/// An operator over a set-valued term.
type SetOp<'a> = &'a dyn Fn(Expr) -> Expr;

/// Evaluate under `limits`: the outcome and the steps it took.
fn eval_counted(e: &Expr, limits: Limits) -> (Result<Value, EvalError>, u64) {
    let globals = std::collections::HashMap::new();
    let externals = Extensions::new();
    let ctx = EvalCtx::new(&globals, &externals).with_limits(limits);
    let out = eval(e, &ctx);
    (out, ctx.stats().steps)
}

/// The bit pattern of a real result, so `-0.0`/`0.0` and NaN signs
/// are told apart.
fn real_bits(r: &Result<Value, EvalError>) -> Option<u64> {
    match r {
        Ok(Value::Real(x)) => Some(x.to_bits()),
        _ => None,
    }
}

/// Each operator over `nest`, streamed, against `let s = nest in op(s)`,
/// whose `op` iterates a set built beforehand.
///
/// Steps: the streamed form ticks the operator's own `pre` nodes, then
/// the nest exactly as evaluating it alone does. The `let` form ticks
/// the `let` and the nest; only when the nest gives a value (not ⊥,
/// not an error) do the operator's nodes and the variable read follow.
/// A step limit halfway through the nest trips both forms at the same
/// nest node.
fn check_streaming(nest: &Expr) {
    let (alone, n0) = eval_counted(nest, Limits::default());
    let valued = matches!(&alone, Ok(v) if !v.is_bottom());
    let d = aql::core::expr::free::fresh("d");
    let s = aql::core::expr::free::fresh("s");
    // ⋃{ S | d ∈ {0} }: the head nest streams into the union.
    let big = |e| big_union(&d, single(nat(0)), e);
    let ops: [(&str, u64, SetOp); 3] =
        [("min!", 1, &set_min), ("max!", 1, &set_max), ("⋃", 3, &big)];
    for (name, pre, op) in &ops {
        let streamed = op(nest.clone());
        let bound = let_(&s, nest.clone(), op(var(&s)));
        let (v1, n1) = eval_counted(&streamed, Limits::default());
        let (v2, n2) = eval_counted(&bound, Limits::default());
        assert_eq!(v1, v2, "{name}: value of {nest}");
        assert_eq!(real_bits(&v1), real_bits(&v2), "{name}: bits of {nest}");
        assert_eq!(n1, pre + n0, "{name}: streamed steps of {nest}");
        assert_eq!(n2, 1 + n0 + if valued { pre + 1 } else { 0 }, "{name}: let steps of {nest}");
        if n0 > 0 {
            let half = n0 / 2;
            let limited = |max_steps| Limits { max_steps, ..Limits::default() };
            let (l1, m1) = eval_counted(&streamed, limited(pre + half));
            let (l2, m2) = eval_counted(&bound, limited(1 + half));
            assert_eq!(l1, Err(EvalError::StepLimit), "{name}: limited {nest}");
            assert_eq!(l2, Err(EvalError::StepLimit), "{name}: limited let {nest}");
            assert_eq!((m1, m2), (pre + half, 1 + half));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streamed_set_ops_match_let_bound_sets(nest in arb_stream_nest(3)) {
        check_streaming(&nest);
    }

    #[test]
    fn streamed_set_ops_match_on_well_typed_trees(tree in arb_set_expr(3)) {
        check_streaming(&tree);
    }
}

#[test]
fn streamed_set_ops_pinned_cases() {
    let reals = |rs: &[f64]| rs.iter().fold(empty(), |a, &r| union(a, single(real(r))));
    let cases = [
        // ⊥ in the innermost head.
        big_union("x", gen(nat(3)), big_union("y", gen(nat(2)), single(div(nat(6), var("y"))))),
        // ⊥ source in a middle generator.
        big_union(
            "x",
            gen(nat(3)),
            big_union("y", iff(lt(var("x"), nat(2)), gen(nat(2)), bottom()), single(var("y"))),
        ),
        // A non-set head.
        big_union("x", gen(nat(3)), var("x")),
        // An empty set: min!/max! give ⊥.
        big_union("x", gen(nat(3)), empty()),
        // Ties under total_cmp: -0.0 < 0.0, and NaNs by sign.
        big_union("x", gen(nat(2)), reals(&[0.0, -0.0, 0.0])),
        big_union("x", reals(&[f64::NAN, 1.5, -f64::NAN]), single(var("x"))),
    ];
    for nest in &cases {
        check_streaming(nest);
    }
    let (min, _) = eval_counted(&set_min(cases[4].clone()), Limits::default());
    assert_eq!(real_bits(&min), Some((-0.0f64).to_bits()));
    let (max, _) = eval_counted(&set_max(cases[5].clone()), Limits::default());
    assert_eq!(real_bits(&max), Some(f64::NAN.to_bits()));
}
