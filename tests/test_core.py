import dataclasses
import gc
import json
import re
import sys
import weakref
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmv import cli, core, oracle, schemes, sim
from codedmv.core import (
    AssignmentPlan,
    Coded,
    Placement,
    SystemParams,
    Uncoded,
    is_decodable,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
    validate_plan,
)

from support import (
    arrival_states,
    count_eliminations,
    dominated_state,
    moved_entry_plan,
    perturbed,
    prefix_equations,
    random_scheme_plan,
    random_state,
    rank_decodable,
    reference_checker,
    reference_decodable,
    reference_plan_from_dict,
    relabel_blocks,
    scheme_plan_up_to,
    shrunk_supports,
    singular_plan,
    twin_plan,
    two_component_plan,
    zero_column_plan,
)

FIG3 = schemes.cyclic_uncoded(5, 3)  # the <5,3,5,3> cyclic layout
FIG1 = schemes.cyclic_uncoded(3, 2)
FIG2 = schemes.cyclic_coded(3, 1, 1, Placement.CODED_BOTTOM)


# ---------------------------------------------------------------------------
# parameters


def test_params_storage_fractions_are_exact():
    p = FIG3.params
    assert Fraction(p.ell, p.delta) == Fraction(3, 5)
    assert p.gamma_u == Fraction(3, 5)
    assert p.gamma_c == 0
    assert isinstance(p.gamma_u, Fraction) and isinstance(p.gamma_c, Fraction)


def test_params_reject_oversized_storage():
    with pytest.raises(ValueError):
        SystemParams(n=2, delta=3, ell_u=2, ell_c=2, r_u=2, placement=Placement.CODED_BOTTOM)


def test_params_reject_broken_double_counting():
    # n*ell_u must equal delta*r_u
    with pytest.raises(ValueError):
        SystemParams(n=4, delta=4, ell_u=2, ell_c=0, r_u=3, placement=Placement.UNCODED_ONLY)


def test_params_placement_constraints():
    with pytest.raises(ValueError):
        SystemParams(n=3, delta=3, ell_u=1, ell_c=1, r_u=1, placement=Placement.UNCODED_ONLY)
    with pytest.raises(ValueError):
        SystemParams(n=3, delta=3, ell_u=1, ell_c=1, r_u=1, placement=Placement.FULLY_CODED)


def test_coded_task_validation():
    with pytest.raises(ValueError):
        Coded(())
    with pytest.raises(ValueError):
        Coded(((0, 0),))  # zero coefficient
    with pytest.raises(ValueError):
        Coded(((2, 1), (0, 1)))  # unsorted
    # bools are not blocks or coefficients: plan_to_json would write the key
    # "True", which plan_from_json refuses
    for bad in (lambda: Uncoded(True), lambda: Coded(((True, 5),)), lambda: Coded(((0, True),))):
        with pytest.raises(ValueError):
            bad()
    t = Coded(((1, 5), (3, 7)))
    assert t.support == (1, 3)
    assert dict(t.coeffs) == {1: 5, 3: 7}


@pytest.mark.parametrize("shift", [core.P, -core.P], ids=["plus-P", "minus-P"])
def test_coded_task_refuses_non_canonical_coefficients(shift):
    # one coefficient of MDS (2, 1, 2) moved by P named the same task, yet
    # the plan passed validate_plan and compared unequal to the designed one
    designed = schemes.mds_plan(2, 1, 2)
    (b, c), *rest = designed.workers[0][0].coeffs
    with pytest.raises(ValueError, match=r"coefficient for block 0 must be an integer in \[1, P\)"):
        Coded(((b, c + shift), *rest))
    # the plan document is read mod P, as before
    doc = plan_to_dict(designed)
    doc["workers"][0][0]["c"]["0"] = str(c + shift)
    assert plan_from_dict(doc) == designed
    doc["workers"][0][0]["c"]["0"] = str(shift)
    with pytest.raises(ValueError, match="coefficient for block 0 must be nonzero mod P"):
        plan_from_dict(doc)


@pytest.mark.parametrize("coeffs, message", [
    ((), "coded task needs a non-empty coefficient map"),
    (((2, 1), (0, 1)), "coefficient blocks must be sorted and distinct"),
    (((0, 1), (3, 2), (3, 4)), "coefficient blocks must be sorted and distinct"),
    (((0, 5), (True, 5)), "bad block index True in coded task"),
    (((-1, 5),), "bad block index -1 in coded task"),
    (((0, True),), "coefficient for block 0 must be an integer in [1, P), got True"),
    (((1, 3), (4, 0)), "coefficient for block 4 must be an integer in [1, P), got 0"),
    (((0, core.P),), f"coefficient for block 0 must be an integer in [1, P), got {core.P}"),
    ([(0, 5), (1, 7)], "coded task needs a tuple of (block, coefficient) pairs, got list"),
    (iter(((0, 5), (1, 7))), "coded task needs a tuple of (block, coefficient) pairs, got tuple_iterator"),
    ({0: 5}, "coded task needs a tuple of (block, coefficient) pairs, got dict"),
    (((0, 5), [1, 7]), "coded task needs (block, coefficient) pairs, got [1, 7]"),
    (((0, 5, 1),), "coded task needs (block, coefficient) pairs, got (0, 5, 1)"),
    ((5,), "coded task needs (block, coefficient) pairs, got 5"),
], ids=["empty", "unsorted", "repeated", "bool-block", "negative-block", "bool-coefficient",
        "zero-coefficient", "coefficient-P", "list", "iterator", "dict", "list-pair", "triple",
        "bare-int"])
def test_coded_refuses_each_single_fault_with_its_message(coeffs, message):
    with pytest.raises(ValueError) as err:
        Coded(coeffs)
    assert str(err.value) == message


@pytest.mark.parametrize("value", [
    "0{}", "+{}", " {}", "{} ", "{}\n", "1_{}", "\u0661", "{}.0", "-0{}", "--{}", "", "0x1",
    1.5, 3.0, True, None,
], ids=["leading-zero", "plus", "leading-space", "trailing-space", "newline", "underscore",
        "arabic-indic-one", "decimal-point", "minus-leading-zero", "two-minus", "empty", "hex",
        "float", "integral-float", "bool", "null"])
def test_plan_from_dict_refuses_non_canonical_coefficient_values(value):
    # int() read each string spelling, so "01073741824" or "\u0661" passed
    # verify as if it were canonical
    doc = plan_to_dict(FIG2)
    coeffs = doc["workers"][0][1]["c"]
    canonical = coeffs["1"]
    coeffs["1"] = value.format(canonical) if isinstance(value, str) else value
    with pytest.raises(ValueError, match="must be integers or decimal strings"):
        plan_from_dict(doc)
    coeffs["1"] = canonical
    assert plan_from_dict(doc) == FIG2


def _every_scheme_plan_up_to(n_max, n_min=2):
    """Plans of all four construction families for n = n_min..n_max."""
    for n in range(n_min, n_max + 1):
        for r in range(1, min(n, 3) + 1):
            yield schemes.cyclic_uncoded(n, r)
        for placement in (Placement.CODED_BOTTOM, Placement.CODED_TOP):
            for r_u in range(min(n - 1, 3) + 1):
                for ell_c in range(1, min(n - r_u, 2) + 1):
                    yield schemes.cyclic_coded(n, r_u, ell_c, placement)
        for ell in (1, 2):
            for delta in sorted({ell, n, n * ell} - set(range(ell))):
                yield schemes.mds_plan(n, ell, delta)


@pytest.mark.parametrize("k", [None, -2, -1, 1, 2, -10**8, 10**8, -10**9, 10**9],
                         ids=["json-int", "-2P", "-P", "+P", "+2P", "-1e8P", "+1e8P", "-1e9P", "+1e9P"])
def test_plan_from_dict_reads_coefficients_mod_p_in_every_family(k):
    # a JSON integer, or the decimal of c + kP, names the coefficient c;
    # at |k| = 1e8 the decimals have 18 digits and are read as int64, at
    # 1e9 they have 19 and are read by int
    for plan in _every_scheme_plan_up_to(12):
        doc = plan_to_dict(plan)
        for tasks in doc["workers"]:
            for t in tasks:
                if "c" in t:
                    t["c"] = {b: int(c) if k is None else str(int(c) + k * core.P)
                              for b, c in t["c"].items()}
        assert plan_from_dict(doc) == plan


def _read(reader, doc):
    """A reader's plan, or the type and text of what it raised."""
    try:
        return reader(doc)
    except Exception as e:  # every type is compared, AttributeError included
        return type(e), str(e)


def assert_reads_as_the_reference(doc):
    got, want = _read(plan_from_dict, doc), _read(reference_plan_from_dict, doc)
    assert got == want
    if isinstance(want, AssignmentPlan):
        assert hash(got) == hash(want)
    return got


def _holds_every_block_first(plan):
    return all(isinstance(tasks[0], Coded) and len(tasks[0].coeffs) == plan.params.delta
               for tasks in plan.workers)


@pytest.mark.parametrize("n", [*range(1, 13), 40])
def test_plan_from_dict_reads_every_family_as_the_reference(n):
    # designed, block-relabelled and worker-shuffled plans, and a perturbed
    # coefficient where the first tasks are dense rows; plan_to_dict writes
    # keys in block order, plan_to_json's sorted keys put "10" before "2"
    rng = np.random.default_rng(n)
    for plan in _every_scheme_plan_up_to(n, n_min=n):
        relabelled = relabel_blocks(plan, rng.permutation(plan.params.delta))
        shuffled = AssignmentPlan(plan.params, tuple(relabelled.workers[i]
                                                     for i in rng.permutation(plan.n)))
        variants = [plan, relabelled, shuffled]
        if _holds_every_block_first(plan):
            variants += [perturbed(plan, rng), perturbed(shuffled, rng)]
        for variant in variants:
            assert assert_reads_as_the_reference(plan_to_dict(variant)) == variant
            assert assert_reads_as_the_reference(json.loads(plan_to_json(variant))) == variant


def _coded_doc(maps):
    """A fully coded document, worker i holding the one coded task maps[i]."""
    return {"params": {"n": len(maps), "delta": 6, "ell_u": 0, "ell_c": 1, "r_u": 0,
                       "placement": "fully-coded"},
            "workers": [[{"c": m}] for m in maps]}


_KEYS = st.one_of(
    st.integers(0, 11).map(str),
    st.sampled_from(["00", "01", "+1", " 1", "1 ", "-1", "1,2", "3,", ",", "", "1.0", "\u0661"]),
    st.integers(0, 5),  # an int key, as a document built in Python may hold
)
_VALUES = st.one_of(
    st.integers(1, core.P - 1).map(str),
    st.integers(-3 * core.P, 3 * core.P),
    st.integers(-3 * core.P, 3 * core.P).map(str),
    st.integers(-3, 3).map(lambda k: k * core.P),  # zero mod P
    st.integers(-3, 3).map(lambda k: str(k * core.P)),
    st.integers(-10**40, 10**40),
    st.integers(-10**40, 10**40).map(str),
    st.floats(), st.booleans(), st.none(),
    st.sampled_from(["01", "+5", " 5", "5 ", "5,6", "7,", "", "1_0", "-0", "--1", "0x1", "1e3"]),
    # the widest values read as int64, and the first past int64 or 18 digits
    st.sampled_from([10**18 - 1, 10**18, 2**63 - 1, 1 - 2**63, 2**63, -2**63]).flatmap(
        lambda v: st.sampled_from([v, str(v)])),
)
_MAPS = st.one_of(st.dictionaries(_KEYS, _VALUES, min_size=1, max_size=5),
                  st.sampled_from([None, {}, [], ["0", "1"]]))


@st.composite
def coded_maps(draw):
    """Coefficient maps in which key sets recur: with new values, with the
    same entries written in another order, or joined into one key."""
    maps = [draw(_MAPS)]
    for _ in range(draw(st.integers(0, 5))):
        base = draw(st.sampled_from(maps))
        how = draw(st.sampled_from(["new", "values", "order", "joined"]))
        if how == "new" or not isinstance(base, dict) or not base:
            maps.append(draw(_MAPS))
        elif how == "values":
            maps.append({k: draw(_VALUES) for k in base})
        elif how == "joined":
            maps.append({",".join(map(str, base)): draw(_VALUES)})
        else:
            maps.append(dict(draw(st.permutations(list(base.items())))))
    return maps


@given(coded_maps())
@settings(max_examples=400, deadline=None)
def test_plan_from_dict_fails_as_the_reference_on_malformed_maps(maps):
    assert_reads_as_the_reference(_coded_doc(maps))


_COMMA_RULE = (ValueError, "coefficient keys ['1,2'] must be block numbers such as '0' or '12', "
                           "with no sign, space or leading zero")
_ZERO_AT_3 = (ValueError, "coefficient for block 3 must be nonzero mod P")


@pytest.mark.parametrize("maps, outcome", [
    # both key sets join to "1,2"; a memo on the text alone read the second
    # as the first's two blocks and failed with an IndexError
    ([{"1": "3", "2": "4"}, {"1,2": "5"}], _COMMA_RULE),
    ([{"1,2": "5"}, {"1": "3", "2": "4"}], _COMMA_RULE),
    # zeros at the middle and the last block of 2 < 3 < 10: the first in
    # block order is named, not the first in the document, read afresh or
    # through the order kept for the same keys
    ([{"10": "0", "2": "4", "3": str(2 * core.P)}], _ZERO_AT_3),
    ([{"10": "1", "2": "4", "3": "5"}, {"10": "0", "2": "4", "3": str(2 * core.P)}], _ZERO_AT_3),
    ([{"0": "5"}, None], (ValueError, "coded task {'c': None} needs a map from block numbers "
                                      "to coefficients, got NoneType")),
    ([{"0": "5"}, {}], (ValueError, "coded task needs a non-empty coefficient map")),
    ([{"0": "5"}, []], (ValueError, "coded task {'c': []} needs a map from block numbers "
                                    "to coefficients, got list")),
    ([{"0": "5"}, {0: "5"}], (TypeError, "sequence item 0: expected str instance, int found")),
    ([{"1": "3", "2": "4"}, "12"], (ValueError, "coded task {'c': '12'} needs a map from block "
                                                "numbers to coefficients, got str")),
    # a zero in a task read after the walk is named before a later task's
    # error, whether the walk raises that error or reads it by int
    ([{"2": "4", "3": str(2 * core.P)}, {"1,2": "5"}], _ZERO_AT_3),
    ([{"2": "4", "3": str(2 * core.P)}, None], _ZERO_AT_3),
    ([{"2": "4", "3": str(2 * core.P)}, {"0": "1" * (sys.get_int_max_str_digits() + 3)}],
     _ZERO_AT_3),
    ([{"3": str(2 * core.P)}, {"5": str(10**9 * core.P)}], _ZERO_AT_3),
    ([{"3": str(10**9 * core.P)}, {"5": str(2 * core.P)}], _ZERO_AT_3),
], ids=["collision", "collision-reversed", "middle-zero", "middle-zero-kept-order", "null",
        "empty", "list", "int-key", "string", "zero-then-comma-key", "zero-then-null",
        "zero-then-too-long", "zero-then-long-zero", "long-zero-then-zero"])
def test_plan_from_dict_keeps_each_error_of_a_document(maps, outcome):
    assert assert_reads_as_the_reference(_coded_doc(maps)) == outcome


@pytest.mark.parametrize("value", [10**18 - 1, 10**18, 2**63 - 1, 2**63, -2**63, -2**63 - 1])
@pytest.mark.parametrize("spell", [int, str], ids=["json-int", "decimal"])
def test_plan_from_dict_reads_values_at_the_int64_edge_exactly(value, spell):
    # an array parse would read 2**63 and -2**63 - 1 as 2**63 - 1
    plan = assert_reads_as_the_reference(_coded_doc([{"0": "5", "1": spell(value)}]))
    assert plan.workers[0][0].coeffs == ((0, 5), (1, value % core.P))


@pytest.mark.parametrize("key_first", [True, False], ids=["key-first", "value-first"])
def test_plan_from_dict_names_the_first_decimal_past_the_digit_limit(key_first):
    # int() refuses a decimal longer than the interpreter's limit; of a key
    # and a value both too long, the first in document order is named
    limit = sys.get_int_max_str_digits()
    entries = [("1" * (limit + 7), "5"), ("0", "1" * (limit + 3))]
    maps = [{"0": "5"}, dict(entries if key_first else entries[::-1])]
    kind, text = assert_reads_as_the_reference(_coded_doc(maps))
    assert kind is ValueError and f"value has {limit + (7 if key_first else 3)} digits" in text


def test_plan_from_dict_reads_one_key_set_in_two_orders_as_one():
    # "10" sorts before "2" as text; both orders give the same task
    first, second = {"0": "3", "10": "5", "2": "4"}, {"2": str(4 + core.P), "10": 5, "0": "3"}
    plan = assert_reads_as_the_reference(_coded_doc([first, second, first]))
    want = Coded(((0, 3), (2, 4), (10, 5)))
    assert [tasks[0] for tasks in plan.workers] == [want] * 3
    assert len({hash(tasks[0]) for tasks in plan.workers}) == 1


# ---------------------------------------------------------------------------
# validate_plan


def test_validate_accepts_cyclic_layout():
    assert validate_plan(FIG3) == []


def test_validate_flags_duplicate_block():
    workers = list(FIG3.workers)
    workers[0] = (Uncoded(0), Uncoded(0), Uncoded(2))
    bad = AssignmentPlan(params=FIG3.params, workers=tuple(workers))
    msgs = validate_plan(bad)
    assert any("duplicate uncoded block" in m and "worker 1" in m for m in msgs)


def test_validate_flags_replication_count():
    # swap one copy of A_3 for A_2: A_2 now appears 4 times, A_3 twice
    workers = list(FIG3.workers)
    worker2 = list(workers[2])
    assert worker2[0] == Uncoded(2)
    worker2[0] = Uncoded(1)
    workers[2] = tuple(worker2)
    bad = AssignmentPlan(params=FIG3.params, workers=tuple(workers))
    msgs = validate_plan(bad)
    assert any("A_2" in m and "replication count 4" in m for m in msgs)
    assert any("A_3" in m and "replication count 2" in m for m in msgs)


def test_validate_flags_wrong_worker_count():
    bad = AssignmentPlan(params=FIG3.params, workers=FIG3.workers[:4])
    assert any("4 workers" in m for m in validate_plan(bad))


def test_validate_flags_misplaced_coded_tasks():
    # coded task at the top of a coded-bottom plan
    workers = list(FIG2.workers)
    workers[0] = (workers[0][1], workers[0][0])
    bad = AssignmentPlan(params=FIG2.params, workers=tuple(workers))
    assert any("placement" in m for m in validate_plan(bad))


_MOVED = Coded(((0, 1), (1, 2)))


@pytest.mark.parametrize("plan, tasks, positions", [
    (FIG1, (_MOVED, Uncoded(1)), [0]),
    (schemes.cyclic_coded(5, 2, 1, Placement.CODED_BOTTOM), (_MOVED, Uncoded(0), Uncoded(1)), [0]),
    (schemes.cyclic_coded(5, 2, 1, Placement.CODED_TOP), (Uncoded(0), Uncoded(1), _MOVED), [2]),
    (schemes.mds_plan(3, 2, 3), (_MOVED, Uncoded(0)), [0]),
])
def test_validate_names_misplaced_coded_tasks_under_each_placement(plan, tasks, positions):
    bad = AssignmentPlan(params=plan.params, workers=(tasks,) + plan.workers[1:])
    assert (f"worker 1: coded task positions {positions} do not match placement "
            f"{plan.params.placement.value}") in validate_plan(bad)


def test_validate_flags_out_of_range_block():
    params = SystemParams(n=2, delta=2, ell_u=1, ell_c=0, r_u=1,
                          placement=Placement.UNCODED_ONLY)
    bad = AssignmentPlan(params=params, workers=((Uncoded(0),), (Uncoded(5),)))
    assert any("outside" in m for m in validate_plan(bad))


def test_validate_names_the_smallest_out_of_range_block_of_a_coded_task():
    workers = list(FIG2.workers)
    workers[0] = (workers[0][0], Coded(((1, 5), (4, 2), (6, 3))))
    bad = AssignmentPlan(params=FIG2.params, workers=tuple(workers))
    assert [m for m in validate_plan(bad) if "references" in m] == [
        "worker 1: coded task references A_5 outside [A_1, A_3]"
    ]


@pytest.mark.parametrize("worker, task, message", [
    (0, Coded(((1, 5), (4, 2))), "worker 1: coded task references A_5 outside [A_1, A_3]"),
    (0, Uncoded(4), "worker 1: uncoded block A_5 outside [A_1, A_3]"),
    (0, Coded(((1, 5), (7, 2))), "worker 1: coded task references A_8 outside [A_1, A_3]"),
    (2, Uncoded(5), "worker 3: uncoded block A_6 outside [A_1, A_3]"),
], ids=["coded", "uncoded", "coded-A_8", "uncoded-worker-3"])
def test_checker_build_refuses_a_block_past_delta(worker, task, message, tmp_path, capsys):
    # each library entry point failed on an IndexError from the checker's
    # tables; the checker's build now refuses the plan in validate_plan's
    # words, and the CLI names it first, through validate_plan
    workers = [list(tasks) for tasks in FIG2.workers]
    workers[worker][isinstance(task, Coded)] = task  # coded-bottom: uncoded, then coded
    bad = AssignmentPlan(params=FIG2.params, workers=tuple(map(tuple, workers)))
    assert message in validate_plan(bad)
    A, x = np.ones((3, 2)), np.ones(2)
    for call in (lambda: bad.checker, lambda: is_decodable(bad, (2, 2, 2)),
                 lambda: oracle.analyze(bad),
                 lambda: sim.run_experiment([bad], sim.ShiftedExponential(), sim.Uniform(), 1, 0),
                 lambda: sim.numeric_decode(bad, A, x, [(0, 0)])):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()
    path = tmp_path / "plan.json"
    path.write_text(plan_to_json(bad))
    assert cli.main(["verify", "--plan", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("change", ["long", "short"])
def test_checker_build_refuses_a_worker_without_ell_tasks(change):
    # unchecked, the extra Uncoded(3) on worker 1 of coded-bottom (4, 2, 1)
    # would take task 6, worker 2's slot, and list it as a holder of block 3
    plan = schemes.cyclic_coded(4, 2, 1, Placement.CODED_BOTTOM)
    workers = list(plan.workers)
    workers[1] = workers[1] + (Uncoded(3),) if change == "long" else workers[1][:2]
    bad = AssignmentPlan(params=plan.params, workers=tuple(workers))
    message = f"worker 2: holds {len(workers[1])} tasks, expected ell = 3"
    assert message in validate_plan(bad)
    for build in (lambda: bad.checker, lambda: is_decodable(bad, (3, 3, 3, 3))):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


@pytest.mark.parametrize("change", ["short", "over"])
def test_checker_build_refuses_a_wrong_worker_count(change):
    # one worker short failed on numpy's broadcast text, one over on an
    # IndexError; both now fail before any table is built
    plan = schemes.cyclic_coded(4, 2, 1, Placement.CODED_BOTTOM)
    workers = plan.workers[:3] if change == "short" else plan.workers + plan.workers[:1]
    bad = AssignmentPlan(params=plan.params, workers=workers)
    message = f"plan lists {len(workers)} workers, params say n = 4"
    assert message in validate_plan(bad)
    for build in (lambda: bad.checker, lambda: is_decodable(bad, (3, 3, 3, 3))):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


def test_validate_reports_out_of_range_uncoded_block_once():
    plan = schemes.cyclic_uncoded(3, 2)
    workers = list(plan.workers)
    workers[0] = (Uncoded(7),) + workers[0][1:]
    bad = AssignmentPlan(params=plan.params, workers=tuple(workers))
    assert [m for m in validate_plan(bad) if "A_8" in m] == [
        "worker 1: uncoded block A_8 outside [A_1, A_3]"
    ]


# ---------------------------------------------------------------------------
# prefix equations (the reference in tests/support.py)


def test_prefix_single_block():
    known, coded = prefix_equations(FIG3, (1, 0, 0, 0, 0))
    assert known == frozenset({0})
    assert coded == ()


def test_prefix_dedupes_known_blocks():
    known, coded = prefix_equations(FIG1, (2, 2, 0))
    assert known == frozenset({0, 1, 2})
    assert coded == ()


def test_prefix_empty_state():
    known, coded = prefix_equations(FIG3, (0, 0, 0, 0, 0))
    assert known == frozenset()
    assert coded == ()


def test_prefix_rejects_invalid_states():
    with pytest.raises(ValueError):
        prefix_equations(FIG3, (1, 0, 0))
    with pytest.raises(ValueError):
        prefix_equations(FIG3, (4, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        prefix_equations(FIG3, (-1, 0, 0, 0, 0))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_prefix_consistency_one_step(seed):
    # states w and w + e_i differ by exactly worker i's task at position w_i
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    w = list(random_state(plan, rng))
    candidates = [i for i in range(plan.n) if w[i] < plan.ell]
    if not candidates:
        return
    i = candidates[int(rng.integers(0, len(candidates)))]
    known_before, coded_before = prefix_equations(plan, tuple(w))
    w[i] += 1
    known_after, coded_after = prefix_equations(plan, tuple(w))
    task = plan.workers[i][w[i] - 1]
    if isinstance(task, Uncoded):
        assert coded_after == coded_before
        assert known_after - known_before in (frozenset(), frozenset({task.block}))
        assert task.block in known_after
    else:
        assert known_after == known_before
        assert sorted(coded_after, key=id) != sorted(coded_before, key=id)
        assert len(coded_after) == len(coded_before) + 1


# ---------------------------------------------------------------------------
# is_decodable


def test_fig2_any_three_products_decode():
    n, ell = 3, 2
    for w1 in range(ell + 1):
        for w2 in range(ell + 1):
            for w3 in range(ell + 1):
                if w1 + w2 + w3 == 3:
                    assert is_decodable(FIG2, (w1, w2, w3))


def test_fig3_two_rounds_decode():
    # independent check: the five prefixes of length 2 cover every block
    covered = set()
    for tasks in FIG3.workers:
        covered.update(t.block for t in tasks[:2])
    assert covered == set(range(5))
    assert is_decodable(FIG3, (2, 2, 2, 2, 2))


def test_fig3_worst_case_misses_a5():
    # worker holding A_5 at depth d contributes d blocks; everyone else all 3
    assert not is_decodable(FIG3, (3, 3, 2, 1, 0))
    assert sum((3, 3, 2, 1, 0)) == 9


def test_decodable_rejects_invalid_state():
    with pytest.raises(ValueError):
        is_decodable(FIG3, (1, 1))
    # refused, never truncated: (2.9, 2.9, 0) would be answered as (2, 2, 0)
    top = schemes.cyclic_coded(3, 2, 1, Placement.CODED_TOP)
    for state in [(2.9, 2.9, 0), (2.0, 2, 2), (True, 1, 1), (np.True_, 1, 1), ("2", 2, 2),
                  (-1, 3, 3), (4, 0, 0)]:
        with pytest.raises(ValueError):
            core.check_state(top, state)
            pytest.fail(f"state {state} was accepted")
        with pytest.raises(ValueError):
            is_decodable(top, state)


def test_check_state_takes_python_and_numpy_integers():
    top = schemes.cyclic_coded(3, 2, 1, Placement.CODED_TOP)
    state = core.check_state(top, np.array([3, 2, 0]))
    assert state == (3, 2, 0) and all(type(v) is int for v in state)
    assert core.check_state(top, (np.int8(1), 2**0, np.uint64(3))) == (1, 1, 3)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_monotonicity(seed):
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    upper = random_state(plan, rng)
    lower = dominated_state(upper, rng)
    if is_decodable(plan, lower):
        assert is_decodable(plan, upper)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_completion_decodes(seed):
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    p = plan.params
    if p.r_u >= 1 or p.n * p.ell_c >= p.delta:
        assert is_decodable(plan, tuple([plan.ell] * plan.n))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_decodability_ignores_worker_identity(seed):
    # permuting the workers (and the state with them) changes nothing
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    state = random_state(plan, rng)
    perm = list(rng.permutation(plan.n))
    shuffled = AssignmentPlan(
        params=plan.params, workers=tuple(plan.workers[i] for i in perm)
    )
    shuffled_state = tuple(state[i] for i in perm)
    assert is_decodable(plan, state) == is_decodable(shuffled, shuffled_state)


def test_equations_decodable_matches_predicate():
    # the prefix-equations reference, ranked by an eliminator independent of
    # codedmv.field, agrees with the checker
    rng = np.random.default_rng(7)
    for _ in range(50):
        plan = random_scheme_plan(rng)
        state = random_state(plan, rng)
        known, coded = prefix_equations(plan, state)
        assert reference_decodable(plan.params.delta, known, coded) == is_decodable(
            plan, state
        )


# ---------------------------------------------------------------------------
# Cauchy certificate: counted answers, ranked fallback


def agrees_with_reference(plan, states):
    checker = core.DecodabilityChecker(plan)
    for state in states:
        known, coded = prefix_equations(plan, state)
        want = reference_decodable(plan.params.delta, known, coded)
        assert checker.decodable(state) == want, (plan.params, state)


def every_state(plan):
    return product(range(plan.ell + 1), repeat=plan.n)


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=100, deadline=None)
def test_checker_matches_reference_on_scheme_plans(seed, relabel):
    # the benchmark relabels every plan, so the certificate must not rely on
    # the designed block order
    rng = np.random.default_rng(seed)
    plan = scheme_plan_up_to(12, rng)
    if relabel:
        plan = relabel_blocks(plan, rng.permutation(plan.params.delta))
    agrees_with_reference(plan, arrival_states(plan, rng))


def test_every_scheme_plan_with_coded_rows_is_certified():
    plans = [schemes.cyclic_coded(40, 2, 1, Placement.CODED_TOP),
             schemes.cyclic_coded(40, 2, 1, Placement.CODED_BOTTOM),
             schemes.mds_plan(40, 2, 40)]
    for n in range(2, 13):
        for r_u in range(0, n):
            for ell_c in range(1, min(n - r_u, 2) + 1):
                for placement in (Placement.CODED_BOTTOM, Placement.CODED_TOP):
                    plans.append(schemes.cyclic_coded(n, r_u, ell_c, placement))
        for ell in (1, 2):
            plans.extend(schemes.mds_plan(n, ell, delta) for delta in range(ell, n * ell + 1))
    rng = np.random.default_rng(5)
    for plan in plans:
        perm = rng.permutation(plan.params.delta)
        for checker in (core.DecodabilityChecker(plan),
                        core.DecodabilityChecker(relabel_blocks(plan, perm))):
            assert checker.certified, plan.params
            assert checker.count_complete, plan.params


def test_scheme_queries_never_rank(monkeypatch):
    ranks = count_eliminations(monkeypatch)
    rng = np.random.default_rng(2)
    for plan in (schemes.cyclic_coded(7, 2, 2, Placement.CODED_TOP),
                 schemes.cyclic_coded(8, 3, 1, Placement.CODED_BOTTOM),
                 schemes.mds_plan(6, 2, 9)):
        for _ in range(20):
            agrees_with_reference(plan, arrival_states(plan, rng))
    assert ranks[0] == 0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_perturbed_coefficient_loses_the_certificate(seed):
    rng = np.random.default_rng(seed)
    bent = perturbed(schemes.cyclic_coded(5, 2, 1, Placement.CODED_TOP), rng)
    assert not core.DecodabilityChecker(bent).certified
    agrees_with_reference(bent, [random_state(bent, rng) for _ in range(100)])


def test_singular_perturbation_is_ranked(monkeypatch):
    plan = singular_plan()
    checker = core.DecodabilityChecker(plan)
    assert not checker.certified
    ranks = count_eliminations(monkeypatch)
    assert not checker.decodable((1, 1, 0))
    assert checker.decodable((1, 0, 1)) and checker.decodable((0, 1, 1))
    assert ranks[0] == 3
    agrees_with_reference(plan, every_state(plan))


@pytest.mark.parametrize("twin", ["row", "column"])
def test_repeated_cauchy_values_lose_the_certificate(twin):
    plan = twin_plan(twin)
    checker = core.DecodabilityChecker(plan)
    assert not checker.certified
    assert not checker.decodable((1, 1, 0))  # two rows, two unknowns, rank 1
    agrees_with_reference(plan, every_state(plan))


def test_zero_in_an_unknown_column_is_ranked(monkeypatch):
    plan = zero_column_plan()
    checker = core.DecodabilityChecker(plan)
    assert checker.certified
    assert not checker.count_complete
    ranks = count_eliminations(monkeypatch)
    assert not checker.decodable((1, 1, 2))
    assert ranks[0] == 1
    agrees_with_reference(plan, every_state(plan))


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.1, 0.3]))
@settings(max_examples=100, deadline=None)
def test_count_decides_only_count_complete_plans(seed, drop):
    # certified plans whose coded rows may miss blocks their worker has not
    # delivered: the rank decides those, and never runs on a count-complete one
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    r_u = int(rng.integers(0, min(n - 1, 3) + 1))
    ell_c = int(rng.integers(1, min(n - r_u, 2) + 1))
    placement = (Placement.CODED_TOP, Placement.CODED_BOTTOM)[int(rng.integers(0, 2))]
    plan = schemes.cyclic_coded(n, r_u, ell_c, placement)
    plan = relabel_blocks(plan, rng.permutation(plan.params.delta))
    plan = shrunk_supports(plan, drop, rng)
    checker = core.DecodabilityChecker(plan)
    assert checker.certified
    with pytest.MonkeyPatch.context() as mp:
        ranks = count_eliminations(mp)
        agrees_with_reference(plan, arrival_states(plan, rng))
    if checker.count_complete:
        assert ranks[0] == 0


def assert_tables_match_reference(plan):
    checker = core.DecodabilityChecker(plan)
    want = reference_checker(plan)
    assert checker.blocks == want["blocks"]
    assert checker.prefix == want["prefix"]
    for name in ("coded_tasks", "holders", "field", "support"):
        got = getattr(checker, name)
        assert got.dtype == want[name].dtype and np.array_equal(got, want[name]), name
    # bit for bit: the real coefficients reach the decode's results
    assert checker.real.tobytes() == want["real"].tobytes()
    assert (checker.certified, checker.count_complete) == (want["certified"], want["count_complete"])


@given(st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=60, deadline=None)
def test_tables_match_a_per_task_reference_on_scheme_plans(seed, relabel):
    rng = np.random.default_rng(seed)
    plan = scheme_plan_up_to(12, rng)
    if relabel:
        plan = relabel_blocks(plan, rng.permutation(plan.params.delta))
    assert_tables_match_reference(plan)


def test_tables_match_a_per_task_reference_on_hand_plans():
    bent = perturbed(schemes.cyclic_coded(5, 2, 1, Placement.CODED_TOP), np.random.default_rng(12))
    for plan in (singular_plan(), twin_plan("row"), twin_plan("column"), zero_column_plan(), bent,
                 two_component_plan(), moved_entry_plan(2, 1)):
        assert_tables_match_reference(plan)


# the four plan families of the simulate-n40 benchmark workload
QUARTET = [
    lambda n: schemes.cyclic_coded(n, 2, 1, Placement.CODED_TOP),
    lambda n: schemes.cyclic_coded(n, 2, 1, Placement.CODED_BOTTOM),
    lambda n: schemes.cyclic_uncoded(n, 3),
    lambda n: schemes.mds_plan(n, 2, n),
]
QUARTET_IDS = ["top", "bottom", "uncoded", "mds"]


@pytest.mark.parametrize("family", QUARTET, ids=QUARTET_IDS)
def test_tables_match_a_per_task_reference_at_n40_relabelled(family):
    plan = family(40)
    perm = np.random.default_rng(40).permutation(plan.params.delta)
    assert_tables_match_reference(relabel_blocks(plan, perm))


@pytest.mark.parametrize("family", QUARTET, ids=QUARTET_IDS)
def test_n160_plans_reload_and_count(family):
    # designed, written and read back as the CLI does; every scheme plan is
    # decided by the count at this size too
    plan = plan_from_json(plan_to_json(family(160)))
    assert_tables_match_reference(plan)
    assert plan.checker.count_exact


def test_components_that_repeat_one_cauchy_matrix_are_certified():
    # the two pieces share every value; only values within a piece must differ
    plan = two_component_plan()
    checker = core.DecodabilityChecker(plan)
    assert checker.certified
    assert not checker.count_complete
    agrees_with_reference(plan, every_state(plan))


@pytest.mark.parametrize("r, b", list(product(range(3), repeat=2)))
def test_a_moved_entry_loses_the_certificate_on_or_off_the_walk(r, b):
    # a walk fixes the values from the entries of one spanning tree; an
    # entry off that tree disagrees only in the final check over every entry
    plan = moved_entry_plan(r, b)
    assert not core.DecodabilityChecker(plan).certified
    assert not reference_checker(plan)["certified"]
    agrees_with_reference(plan, every_state(plan))


def assert_decide_matches_rank(plan):
    checker = core.DecodabilityChecker(plan)
    want = rank_decodable(plan)
    for state in every_state(plan):
        mask, coded = 0, 0
        for prefix, w in zip(checker.prefix, state):
            mask |= prefix[w][0]
            coded += prefix[w][1]
        assert checker.decide(mask, coded, list(state)) == want(state), (plan.params, state)


@pytest.mark.parametrize("make", [
    singular_plan, lambda: twin_plan("row"), lambda: twin_plan("column"), zero_column_plan,
], ids=["singular", "twin-row", "twin-column", "zero-column"])
def test_decide_matches_rank_on_every_state_of_the_hand_plans(make):
    assert_decide_matches_rank(make())


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_decide_matches_rank_on_every_state_of_perturbed_plans(seed):
    rng = np.random.default_rng(seed)
    plan = schemes.cyclic_coded(int(rng.integers(3, 6)), 2, 1, Placement.CODED_TOP)
    assert_decide_matches_rank(perturbed(plan, rng))


def test_decide_keeps_its_locals_out_of_cells():
    # a comprehension in decide would make the locals it reads cell
    # variables (Python 3.11), which took a call from 84 to 149 ns and
    # slowed the event walk and the threshold search by about 20%; the
    # rank case keeps its comprehensions in a method of its own
    assert core.DecodabilityChecker.decide.__code__.co_cellvars == ()


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip_identity():
    for plan in (FIG1, FIG2, FIG3, schemes.mds_plan(3, 2, 4)):
        again = plan_from_json(plan_to_json(plan))
        assert again == plan
        assert plan_to_json(again) == plan_to_json(plan)


def test_json_format_contract():
    doc = plan_to_dict(FIG2)
    assert doc["params"] == {
        "n": 3, "delta": 3, "ell_u": 1, "ell_c": 1, "r_u": 1,
        "placement": "coded-bottom",
    }
    assert doc["workers"][0][0] == {"u": 0}
    coded = doc["workers"][0][1]["c"]
    assert set(coded) == {"1", "2"}  # support excludes the worker's own block
    assert all(isinstance(v, str) and v.isdigit() for v in coded.values())


@pytest.mark.parametrize("key", ["01", " 2", "2 ", "+1", "1_0", "-1", "1.0", "", "\u0661"])
def test_plan_from_dict_refuses_non_canonical_block_keys(key):
    # "01" would name block 1 a second time, and its coefficient would
    # silently replace the "1" entry's
    doc = plan_to_dict(FIG2)
    coeffs = doc["workers"][0][1]["c"]
    coeffs[key] = "1"
    with pytest.raises(ValueError, match="coefficient key"):
        plan_from_dict(doc)
    del coeffs[key]
    assert plan_from_dict(doc) == FIG2


@pytest.mark.parametrize("edit, error, message", [
    (lambda doc: doc.update(name="fig2"), TypeError, "unknown plan key 'name'"),
    (lambda doc: doc["params"].update(ell=2), TypeError, "unknown params key 'ell'"),
    (lambda doc: doc["workers"][0][0].update(note="A_1"), TypeError, "unknown task key 'note'"),
    (lambda doc: doc["workers"][0][0].update(c={"1": "3"}), ValueError, "names both u and c"),
], ids=["plan", "params", "task", "u-and-c"])
def test_plan_from_dict_refuses_unknown_keys(edit, error, message):
    # an extra key was ignored, and a task naming both u and c read as
    # uncoded
    doc = plan_to_dict(FIG2)
    edit(doc)
    with pytest.raises(error, match=message):
        plan_from_dict(doc)


@pytest.mark.parametrize("coeffs, message", [
    ({"0,1": "5"}, "coefficient keys"),
    ({"0": "5,6"}, "coefficients"),
    ({"1": "3", "2,0": "5"}, "coefficient keys"),
    ({"1": "3", "2": "-5,6"}, "coefficients"),
], ids=["key", "value", "second-key", "second-value"])
def test_plan_from_dict_refuses_a_comma_inside_a_coefficient(coeffs, message):
    # the comma-joined text matched the rule, and int() then refused the
    # key or value with "invalid literal for int() with base 10"
    doc = plan_to_dict(FIG2)
    doc["workers"][0][1]["c"] = coeffs
    with pytest.raises(ValueError, match=message):
        plan_from_dict(doc)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_json_round_trip_random(seed):
    rng = np.random.default_rng(seed)
    plan = random_scheme_plan(rng)
    assert plan_from_json(plan_to_json(plan)) == plan


def test_a_plan_frees_its_memoised_checker_without_the_cycle_collector():
    # the checker keeps tables of the plan, not the plan, so dropping the
    # last reference frees both at once
    plan = schemes.cyclic_coded(5, 2, 1, core.Placement.CODED_TOP)
    assert plan.checker.real.size  # the memo and its tables
    gone = weakref.ref(plan)
    gc.disable()
    try:
        del plan
        assert gone() is None
    finally:
        gc.enable()
