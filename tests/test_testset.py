import math
import re

import numpy as np
import pytest

from trfd import problems
from trfd.core import OuterFunction, eval_h
from trfd.jacobian import build_jacobian
from trfd.testset import problem_to_config, registry_by_name, registry_family

L1_REQUIRED = {
    "linear_full_rank", "linear_rank_one", "rosenbrock", "powell_singular",
    "freudenstein_roth", "bard", "beale", "helical_valley", "gaussian",
    "box_3d", "wood", "brown_dennis",
}
MINIMAX_REQUIRED = {
    "cb2", "cb3", "dem", "ql", "lq", "mifflin1", "wolfe", "rosen_suzuki",
    "maxq_8", "maxl_6",
}


def test_registry_coverage():
    l1 = registry_family("l1")
    mm = registry_family("minimax")
    assert len(l1) >= 12
    assert len(mm) >= 10
    assert L1_REQUIRED <= {bp.name for bp in l1}
    assert MINIMAX_REQUIRED <= {bp.name for bp in mm}
    for bp in l1:
        assert 2 <= bp.n <= 12
    for bp in mm:
        assert 2 <= bp.n <= 50


def test_standard_entries():
    rb = registry_by_name("rosenbrock")
    assert (rb.n, rb.m) == (2, 2)
    assert rb.x0 == (-1.2, 1.0)
    cb2 = registry_by_name("cb2")
    assert (cb2.n, cb2.m) == (2, 3)
    assert cb2.f_ref == pytest.approx(1.9522245, abs=1e-6)
    with pytest.raises(ValueError, match="^no benchmark problem named 'not_a_problem'$"):
        registry_by_name("not_a_problem")


def test_every_entry_evaluates_at_start():
    for bp in registry_family("all"):
        fvec = bp.residuals(np.asarray(bp.x0, dtype=float))
        assert np.shape(fvec) == (bp.m,)
        f0 = eval_h(bp.family, fvec)
        assert np.isfinite(f0)
        # the start is never already optimal, or profiles are vacuous
        assert f0 > bp.f_ref + 1e-12


# h(F(x0)) of every registry problem, as the numpy maps the pure-Python
# ones replaced wrote it into the first best_f of each trace
H_AT_START = {
    "linear_full_rank": "0x1.e000000000000p+3",
    "linear_rank_one": "0x1.9780000000000p+9",
    "rosenbrock": "0x1.a666666666666p+2",
    "powell_singular": "0x1.6e29b10e02c3ep+4",
    "freudenstein_roth": "0x1.8000000000000p+4",
    "bard": "0x1.5e202ecfb9c86p+4",
    "beale": "0x1.9800000000000p+2",
    "helical_valley": "0x1.9000000000000p+5",
    "gaussian": "0x1.61d43714fc49ep-8",
    "box_3d": "0x1.8c9ad0ab0eb60p+6",
    "wood": "0x1.af08edf440084p+7",
    "brown_dennis": "0x1.613e678aac90ap+13",
    "kowalik_osborne": "0x1.8fac944b3266ep-3",
    "brown_almost_linear": "0x1.9f00000000000p+3",
    "bdqrtic_8": "0x1.0000000000000p+6",
    "cb2": "0x1.5a3d70a3d70a4p+2",
    "cb3": "0x1.4000000000000p+4",
    "dem": "0x1.8000000000000p+2",
    "ql": "0x1.c000000000000p+5",
    "lq": "0x1.0000000000000p+0",
    "mifflin1": "-0x1.999999999999ap-1",
    "wolfe": "0x1.d800000000000p+5",
    "rosen_suzuki": "0x0.0p+0",
    "maxq_8": "0x1.0000000000000p+6",
    "maxl_6": "0x1.8000000000000p+2",
    "madsen": "0x1.a000000000000p+3",
    "chebyshev_line_fit": "0x1.0000000000000p+0",
    "expfit_minimax": "0x1.f9c3805bdc97ep+0",
}
# maps whose exp, pow with a float exponent or dot product numpy computed
# in its own vector loops, in ulps of h allowed.  gaussian's residuals
# cancel: h = 0.0054 sums 15 differences of terms x1 exp(...) that add up
# to 2.0, and one ulp of each term is 346 ulps of h in all (it moved 136)
MOVED_ULPS = {"linear_rank_one": 4, "beale": 4, "gaussian": 346, "box_3d": 4, "expfit_minimax": 4}


def test_every_map_keeps_its_value_at_the_start():
    # a slip in transcribing a map moves h(F(x0)), which a pinned count
    # of a whole campaign need not show
    assert set(H_AT_START) == {bp.name for bp in registry_family("all")}
    for bp in registry_family("all"):
        got = eval_h(bp.family, bp.make_problem().oracle.eval_F(bp.x0))
        want = float.fromhex(H_AT_START[bp.name])
        assert abs(got - want) <= MOVED_ULPS.get(bp.name, 0) * math.ulp(want), (bp.name, got.hex())


def test_hoisted_nodes_keep_the_inline_formulas_bit_for_bit():
    # brown_dennis and box_3d read exp, sin and cos at their fixed nodes
    # from tables built at import; the same formulas, computed at each call:
    def brown_dennis_inline(x):
        out = []
        for t in (i / 5.0 for i in range(1, 21)):
            a = x[0] + t * x[1] - math.exp(t)
            b = x[2] + x[3] * math.sin(t) - math.cos(t)
            out.append(a * a + b * b)
        return out

    def box_3d_inline(x):
        return [math.exp(-t * x[0]) - math.exp(-t * x[1]) - x[2] * (math.exp(-t) - math.exp(-10.0 * t))
                for t in (0.1 * i for i in range(1, 11))]

    rng = np.random.default_rng(29)
    for scale in (1e-3, 1.0, 30.0):
        for x in (rng.standard_normal((500, 4)) * scale).tolist():
            for fn, inline, n in ((problems.brown_dennis, brown_dennis_inline, 4),
                                  (problems.box_3d, box_3d_inline, 3)):
                assert list(map(float.hex, fn(x[:n]))) == list(map(float.hex, inline(x[:n])))


def test_f_ref_provenance_notes():
    for bp in registry_family("all"):
        assert bp.f_ref_note
        assert "certify_f_ref.py" in bp.f_ref_note


def test_analytic_jacobians_match_forward_differences():
    rng = np.random.default_rng(12)
    tau = 1e-6
    for bp in registry_family("all"):
        if bp.analytic() is None:
            continue
        lo, hi = bp.jacobian_box
        for _ in range(5):
            x = rng.uniform(max(lo, -2.0), min(hi, 2.0), bp.n)
            scratch = bp.make_problem()
            F_x = scratch.oracle.eval_F(x)
            A = build_jacobian(scratch.oracle.eval_F, x, F_x, tau)
            bound = bp.lipschitz_jacobian * math.sqrt(bp.n) / 2.0 * tau
            err = np.linalg.norm(A - bp.jacobian(x), 2)
            assert err <= bound * (1 + 1e-6) + 1e-12, bp.name


def test_the_certificate_is_the_record_itself():
    # the 10 records with a closed-form Jacobian certify their own runs
    analytic = [registry_by_name(bp.name).analytic() for bp in registry_family("all")]
    assert len(analytic) == 28 and sum(a is not None for a in analytic) == 10
    for bp, a in zip(registry_family("all"), analytic):
        assert a is (bp if bp.jacobian is not None else None)


def test_at_least_three_certificates_per_family():
    for family in ("l1", "minimax"):
        certified = [bp for bp in registry_family(family) if bp.jacobian is not None]
        assert len(certified) >= 3


def test_fresh_oracle_per_problem():
    bp = registry_by_name("rosenbrock")
    a = bp.make_problem()
    b = bp.make_problem()
    a.oracle.eval_F(np.array([0.0, 0.0]))
    assert a.oracle.eval_count == 1
    assert b.oracle.eval_count == 0


def test_exact_roots_claimed_in_notes():
    known_roots = {
        "rosenbrock": [1.0, 1.0],
        "freudenstein_roth": [5.0, 4.0],
        "beale": [3.0, 0.5],
        "box_3d": [1.0, 10.0, 1.0],
        "wood": [1.0, 1.0, 1.0, 1.0],
        "helical_valley": [1.0, 0.0, 0.0],
        "brown_almost_linear": [1.0] * 5,
    }
    for name, root in known_roots.items():
        bp = registry_by_name(name)
        assert eval_h(bp.family, bp.residuals(np.asarray(root))) == pytest.approx(0.0, abs=1e-12)
    # minimax reference points
    assert eval_h(OuterFunction.MINIMAX, registry_by_name("dem").residuals(np.array([0.0, -3.0]))) == -3.0
    assert eval_h(OuterFunction.MINIMAX, registry_by_name("rosen_suzuki").residuals(np.array([0.0, 1.0, 2.0, -1.0]))) == -44.0
    assert eval_h(OuterFunction.MINIMAX, registry_by_name("ql").residuals(np.array([1.2, 2.4]))) == pytest.approx(7.2, rel=1e-12)


def test_config_export_roundtrip():
    from trfd.config import problem_from_config

    bp = registry_by_name("cb2")
    doc = problem_to_config(bp)
    assert doc["oracle"] == {"registry": "cb2"}
    prob = problem_from_config(doc)
    assert prob.n == bp.n and prob.m == bp.m
    x0 = np.asarray(bp.x0)
    assert np.array_equal(prob.x0, x0)
    assert np.array_equal(prob.oracle.eval_F(x0), bp.residuals(x0))


@pytest.mark.parametrize("where, key", [("problem", "lowr"), ("oracle", "timout")])
def test_problem_config_refuses_unknown_keys(where, key):
    from trfd.config import problem_from_config

    doc = problem_to_config(registry_by_name("cb2"))
    # the key check comes first: this command is never started
    doc["oracle"] = {"command": "definitely-not-a-real-command-xyz"}
    (doc if where == "problem" else doc["oracle"])[key] = 1
    with pytest.raises(ValueError, match=f'unknown key "{key}"'):
        problem_from_config(doc)


# cb2 starts at (1, -0.1); each value is what json.load can hand over,
# and ... removes the key
@pytest.mark.parametrize("key, value, message", [
    ("h", "max", "h = max"),
    ("lower", [float("nan"), -5.0], "a bound is NaN"),
    ("upper", [None, float("nan")], "a bound is NaN"),
    ("linear_ineq", [{"a": [1.0, 0.0], "b": float("inf")}], "non-finite entry"),
    ("linear_ineq", [{"a": [float("nan"), 0.0], "b": 9.0}], "non-finite entry"),
    ("linear_ineq", [{"a": [1.0, 0.0], "b": 9.0, "c": 9}], 'unknown key "c" in a "linear_ineq" row'),
    ("linear_ineq", [[1.0, 0.0]], 'a "linear_ineq" row must be an object'),
    ("linear_ineq", "ab", '"linear_ineq" must be an array'),
    ("x0", [float("nan"), 1.0], "start point is not finite"),
    # a boolean is no number, a string no array, and nothing stands in
    # for the start point
    ("lower", [True, None], '"lower" must be an array of 2 numbers or nulls, not [True, None]'),
    ("lower", "00", '"lower" must be an array of 2 numbers or nulls, not \'00\''),
    ("lower", 5, '"lower" must be an array of 2 numbers or nulls, not 5'),
    ("x0", [True, 1], '"x0" must be an array of 2 numbers, not [True, 1]'),
    ("x0", "foo", '"x0" must be an array of 2 numbers, not \'foo\''),
    ("x0", ..., '"x0" is missing'),
    ("start", "registry", 'unknown key "start"'),
    ("start", 5, 'unknown key "start"'),
    ("linear_ineq", [{"a": [True, 0], "b": 9.0}], '"a" must be an array of 2 numbers, not [True, 0]'),
    ("linear_ineq", [{"a": [1.0, 0.0], "b": True}], '"b" must be a number, not True'),
    ("linear_ineq", [{"a": [1.0, 0.0], "b": "9"}], '"b" must be a number, not \'9\''),
    ("linear_ineq", [{"a": [1.0, 0.0]}], '"b" is missing'),
    ("oracle", {"command": 5}, '"command" must be a string, not 5'),
    ("oracle", "cb2", '"oracle" must be an object, not \'cb2\''),
    # a key the other binding reads would go unread: this command is
    # never started, and this timeout never waited for
    ("oracle", {"registry": "cb2", "command": "false"}, "oracle binding needs 'registry' or 'command', not both"),
    ("oracle", {"registry": "cb2", "timeout": -5}, "oracle binding has 'timeout' without 'command'"),
    ("oracle", {}, "oracle binding needs 'registry' or 'command'"),
])
def test_problem_config_refuses_what_a_run_cannot_use(key, value, message):
    from trfd.config import problem_from_config

    doc = problem_to_config(registry_by_name("cb2"))
    if value is ...:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(ValueError, match=re.escape(message)):
        problem_from_config(doc)


# rosenbrock's residuals read x[0] and x[1]: at n = 3 the third
# coordinate goes unread, and at n = 1 a run dies on an IndexError.
# A huge n is refused by the length of x0, before any list of n bounds
# is made (10**30 of them would raise OverflowError)
@pytest.mark.parametrize("n, m, x0, message", [
    (3, 2, [-1.2, 1.0, 7.0], "registry oracle 'rosenbrock' has n=2, config says 3"),
    (1, 2, [-1.2], "registry oracle 'rosenbrock' has n=2, config says 1"),
    (2, 3, [-1.2, 1.0], "registry oracle 'rosenbrock' has m=2, config says 3"),
    (10**30, 2, [-1.2, 1.0], f'"x0" must be an array of {10**30} numbers, not [-1.2, 1.0]'),
])
def test_problem_config_refuses_a_registry_oracle_of_another_size(n, m, x0, message):
    from trfd.config import problem_from_config

    doc = {"n": n, "m": m, "h": "l1", "x0": x0, "oracle": {"registry": "rosenbrock"}}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        problem_from_config(doc)


def test_problem_config_keeps_infinite_bounds_and_finite_rows():
    from trfd.config import problem_from_config

    doc = problem_to_config(registry_by_name("cb2"))
    doc.update(lower=[float("-inf"), None], upper=[2.0, float("inf")],
               linear_ineq=[{"a": [1.0, 1.0], "b": 9.0}])
    region = problem_from_config(doc).region
    assert region.lower.tolist() == [-math.inf, -math.inf] and region.upper.tolist() == [2.0, math.inf]
    assert len(region.linear_ineq) == 1
    # null, like an absent key, leaves every coordinate unbounded
    doc.update(lower=None, upper=None)
    region = problem_from_config(doc).region
    assert region.lower.tolist() == [-math.inf] * 2 and region.upper.tolist() == [math.inf] * 2


@pytest.mark.parametrize("key, value", [
    ("n", 2.9), ("n", True), ("n", "2"), ("n", 0), ("m", 2.0), ("m", None),
])
def test_problem_config_refuses_a_dimension_that_is_not_a_positive_integer(key, value):
    from trfd.config import problem_from_config

    doc = problem_to_config(registry_by_name("cb2"))
    doc[key] = value
    with pytest.raises(ValueError, match=f'^"{key}" must be an integer( of at least 1)?, not '):
        problem_from_config(doc)


@pytest.mark.parametrize("timeout", ["abc", 0, -1.0, float("inf"), float("nan"), None, True])
def test_problem_config_refuses_a_timeout_that_is_not_a_positive_number(timeout):
    from trfd.config import problem_from_config

    doc = problem_to_config(registry_by_name("cb2"))
    # the check comes before the oracle starts: this command is never run
    doc["oracle"] = {"command": "definitely-not-a-real-command-xyz", "timeout": timeout}
    with pytest.raises(ValueError, match='^"timeout" must be a '):
        problem_from_config(doc)


def test_auto_norm_rule_covers_both_branches():
    # sqrt(m) < n picks the 1-norm, otherwise the inf-norm
    mm = registry_family("minimax")
    p1 = [bp for bp in mm if math.sqrt(bp.m) < bp.n]
    pinf = [bp for bp in mm if math.sqrt(bp.m) >= bp.n]
    assert p1 and pinf
