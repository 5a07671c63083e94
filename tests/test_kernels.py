import random

from hypothesis import given, settings
from hypothesis import strategies as st

from dcore.kernels import (
    d_index,
    d_index_over_sets,
    h_index,
    is_canonical_skyline,
    max_l_at,
)

from _naive import naive_d_index, naive_h_index

pairs_st = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=0, max_size=8
)


def test_h_index_worked_examples():
    assert h_index([1, 2, 3, 3, 4, 6]) == 3
    assert h_index([]) == 0
    assert h_index([2, 3, 1]) == 2


@given(st.lists(st.integers(0, 30), max_size=40))
def test_h_index_matches_naive_and_is_bounded(values):
    h = h_index(values)
    assert h == naive_h_index(values)
    assert h <= len(values)


@given(st.lists(st.integers(0, 20), max_size=20), st.lists(st.integers(0, 20), max_size=20))
def test_h_index_monotone_in_multiset_extension(a, extra):
    assert h_index(a) <= h_index(a + extra)


def test_d_index_worked_examples():
    assert d_index([(1, 1), (2, 2)], [(3, 3), (4, 4)]) == [(1, 2)]
    assert d_index([(3, 3), (4, 4)], [(1, 1), (2, 2)]) == [(2, 1)]
    assert d_index([], [(3, 3)]) == [(0, 1)]
    assert d_index([], []) == [(0, 0)]


def test_d_index_symmetric_grid_case():
    r = [(2, 1), (1, 2)]
    assert d_index(r, r) == naive_d_index(r, r)


@settings(max_examples=300)
@given(pairs_st, pairs_st)
def test_d_index_matches_unpruned_enumeration(r_in, r_out):
    got = d_index(r_in, r_out)
    assert got == naive_d_index(r_in, r_out)


@given(pairs_st, pairs_st)
def test_d_index_output_bounds_and_antichain(r_in, r_out):
    got = d_index(r_in, r_out)
    assert is_canonical_skyline(got)
    assert got, "d_index is never empty"
    kb = h_index(p[0] for p in r_in)
    lb = h_index(p[1] for p in r_out)
    assert all(k <= kb and l <= lb for k, l in got)


def test_d_index_duplicates_count_with_multiplicity():
    assert d_index([(1, 1), (1, 1)], [(1, 1), (1, 1)]) == [(1, 1)]
    assert d_index([(1, 1)], [(1, 1)]) == [(1, 1)]
    assert d_index([(2, 2), (2, 2)], [(2, 2), (2, 2)]) == [(2, 2)]


def test_max_l_at_probes_canonical_sets():
    sky = [(0, 5), (2, 3), (4, 1)]
    assert max_l_at(sky, 0) == 5
    assert max_l_at(sky, 1) == 3
    assert max_l_at(sky, 4) == 1
    assert max_l_at(sky, 5) == -1


def test_d_index_over_sets_reduces_to_plain_d_index_on_singletons():
    rng = random.Random(4)
    for _ in range(200):
        r_in = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(5))]
        r_out = [(rng.randrange(4), rng.randrange(4)) for _ in range(rng.randrange(5))]
        got = d_index_over_sets([(p,) for p in r_in], [(p,) for p in r_out])
        assert got == d_index(r_in, r_out)


def test_hot_kernels_stay_module_attributes_of_the_algorithms(ref8, monkeypatch):
    # benchmarks/tracer.py counts kernel calls by patching these attributes,
    # so they stay importable even where the programs no longer call them.
    # It also reads or patches every other name below; `run.py --trace 1`
    # breaks if one of them goes or stops being looked up at call time.
    import dcore.anchored
    import dcore.engine
    import dcore.peel
    import dcore.skyline

    assert dcore.anchored.h_index is h_index
    assert dcore.skyline.d_index_over_sets is d_index_over_sets
    assert dcore.anchored.run_program is dcore.engine.run_program
    assert dcore.skyline.run_program is dcore.engine.run_program
    assert dcore.anchored.run_programs is dcore.engine.run_programs
    # The tracer still patches compute_kmax, which anchored_decompose no
    # longer calls: phase I computes kmax and lmax together.
    assert callable(dcore.anchored.compute_kmax)
    assert callable(dcore.engine._recipients)
    assert callable(dcore.engine.VertexProgram.on_message)

    calls = []

    def spy(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    spy(dcore.peel, "in_core_numbers")
    for name in ("compute_kmax", "compute_kmax_lmax", "compute_lupp", "refine"):
        spy(dcore.anchored, name)
    spy(dcore.skyline, "tight_init")
    # Skyline's init is anchored's phase I, which runs its two fixpoints
    # together through run_programs, never through run_program, which
    # takes one program.
    spy(dcore.anchored, "run_programs")

    # The tracer's wrapper calls run_program positionally with the mode.
    def engine_run(program, g, parts, mode, **kwargs):
        calls.append("run_program")
        return dcore.engine.run_program(program, g, parts, mode, **kwargs)

    for module in (dcore.anchored, dcore.skyline):
        monkeypatch.setattr(module, "run_program", engine_run)

    oracle = dcore.peel.peel_decompose(ref8)
    table, anchored_metrics = dcore.anchored.anchored_decompose(ref8, None, "vertex", workers=1)
    skys, skyline_metrics = dcore.skyline.skyline_decompose(ref8, None, "vertex", workers=1)
    assert calls == [
        "in_core_numbers",
        "compute_kmax_lmax", "run_programs",
        "compute_lupp", "run_program",
        "refine", "run_program",
        "tight_init", "run_programs",
        "run_program",
    ]
    # What benchmarks/run.py reads of the results and their metrics.
    assert table.rows == oracle.rows
    assert skys == dcore.peel.anchored_to_skyline(oracle)
    for m in anchored_metrics + skyline_metrics:
        assert isinstance(m.phase, str)
        assert m.supersteps == len(m.messages_per_step)
        assert m.messages_total == sum(m.messages_per_step)
        assert m.intra_messages == 0


def test_every_package_export_resolves():
    # `from dcore import *` fails on a name in __all__ that is gone.
    import dcore

    for name in dcore.__all__:
        getattr(dcore, name)
