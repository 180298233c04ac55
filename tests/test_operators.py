"""Operator registry codes and the deterministic unknown-name fallback."""

from qdaghash.operators import default_registry


def test_committed_codes_for_core_operators():
    registry = default_registry()
    assert registry.code("Scan") == 1
    assert registry.code("Filter") == 2
    assert registry.code("Project") == 3
    assert registry.code("SortMergeJoin") == 10
    assert registry.code("ReusedExchange") == 23


def test_registered_codes_stay_in_low_band():
    registry = default_registry()
    for name in registry.known_names():
        assert 1 <= registry.code(name) <= 31


def test_unknown_names_fall_back_deterministically():
    registry = default_registry()
    first = registry.code("MyCustomOp")
    second = registry.code("MyCustomOp")
    assert first == second
    assert 32 <= first <= 62


def test_distinct_unknowns_usually_differ():
    registry = default_registry()
    codes = {registry.code(f"Custom{i}") for i in range(40)}
    assert len(codes) > 1
    assert all(32 <= c <= 62 for c in codes)


def test_code_63_is_never_produced():
    registry = default_registry()
    names = registry.known_names() + [f"Zz{i}" for i in range(500)]
    assert all(registry.code(name) != 63 for name in names)
