"""The LCK rule family fires on the seeded fixtures (at the asserted
lines), stays quiet on the clean counterparts, and reports every rule
that hits a shared line."""

from .test_rules import found, lint_fixtures


def test_lck001_flags_unsorted_multi_and_cross_class_cycle():
    result = lint_fixtures({"lck001.py": "repro.core.fixture_lck001"})
    # 12: unsorted multi-acquire self-cycle; 21/35: the object->chunk /
    # chunk->object edges that close a cross-class cycle.  The sorted
    # multi-acquire stays quiet.
    assert found(result, "LCK001") == (12, 21, 35)
    assert not result.ok


def test_lck001_acyclic_tree_is_clean():
    # lck003.py acquires plenty of locks but only sorted multi-acquires
    # and single-lock regions: no edge participates in a cycle.
    result = lint_fixtures({"lck003.py": "repro.core.fixture_lck003"})
    assert found(result, "LCK001") == ()


def test_lck002_flags_io_retry_and_blocking_under_locks():
    result = lint_fixtures({"lck002.py": "repro.core.fixture_lck002"})
    # 12: substrate I/O under a write lock; 21: retry entry under a
    # write lock; 31: unbounded throttle under a chunk lock.  The
    # retry-under-tier-lock counterpart (the paper's serialised write
    # path) stays quiet.
    assert found(result, "LCK002") == (12, 21, 31)
    assert not result.ok


def test_lck003_flags_leaks_but_not_guarded_shapes():
    result = lint_fixtures({"lck003.py": "repro.core.fixture_lck003"})
    # 8: a bare acquire, not through a lock table; 14: a table acquire
    # yielded before the try; 24: a multi-acquire loop whose try sits
    # beyond the loop; 34: a finally releasing through another table;
    # 61: a shared acquire yielded before the try; 80: a mode passed
    # positionally, not as ``shared=``.  The guarded shapes (one key,
    # sorted keys, one key shared) stay quiet.
    assert found(result, "LCK003") == (8, 14, 24, 34, 61, 80)
    assert not result.ok


def test_lck001_flags_deadlock_fixture_statically():
    result = lint_fixtures(
        {"lck001_deadlock.py": "repro.core.fixture_lck001_deadlock"}
    )
    assert found(result, "LCK001") == (25,)


def test_two_rules_fire_on_one_line():
    result = lint_fixtures({"multirule.py": "repro.core.fixture_multirule"})
    by_line = {(f.rule, f.line) for f in result.findings}
    assert ("LCK002", 13) in by_line
    assert ("FLT001", 13) in by_line
