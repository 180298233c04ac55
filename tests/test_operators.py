"""Operator codes from the packaged table and the deterministic unknown-name fallback."""

from qdaghash.operators import _packaged_codes, operator_code


def test_committed_codes_for_core_operators():
    assert operator_code("Scan") == 1
    assert operator_code("Filter") == 2
    assert operator_code("Project") == 3
    assert operator_code("SortMergeJoin") == 10
    assert operator_code("ReusedExchange") == 23


def test_registered_codes_stay_in_low_band():
    names = list(_packaged_codes())
    assert names
    for name in names:
        assert 1 <= operator_code(name) <= 31


def test_unknown_names_fall_back_deterministically():
    first = operator_code("MyCustomOp")
    second = operator_code("MyCustomOp")
    assert first == second
    assert 32 <= first <= 62


def test_distinct_unknowns_usually_differ():
    codes = {operator_code(f"Custom{i}") for i in range(40)}
    assert len(codes) > 1
    assert all(32 <= c <= 62 for c in codes)


def test_code_63_is_never_produced():
    names = list(_packaged_codes()) + [f"Zz{i}" for i in range(500)]
    assert all(operator_code(name) != 63 for name in names)
