"""The library calls the benchmark's worker makes, in the same form, so an
API change that would fail every benchmark op fails here first."""

from pathlib import Path

from quadclass import classgroup, families, qform, witness

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def test_search_call():
    lo, hi = -1_000_050, -1_000_026
    hits = families.search_successive(3, [0, 1, 4], lo, hi, max_hits=hi - lo + 1, threads=1)
    rows = [[hit.base_d, [[m.offset, m.d_sf, m.disc, m.h] for m in hit.members]] for hit in hits]
    assert [base_d for base_d, _ in rows] == [-1_000_036, -1_000_037]
    for base_d, members in rows:
        assert [m[0] for m in members] == [0, 1, 4]
        assert all(h % 3 == 0 for *_, h in members)


def test_certificate_call():
    r = witness.verify_instance(witness.Instance(2, 3, 3))
    row = [r.d, r.t, r.disc, r.h, str(r.alpha_form), r.alpha_order, r.n_divides_h]
    assert row == [23, 1, -23, 3, "(2,1,3)", 3, True]


def test_group_call():
    g = classgroup.group_structure(-84)
    row = [g.h, list(g.elementary_divisors), [str(f) for f in g.generators]]
    assert row == [4, [2, 2], ["(3,0,7)", "(2,2,11)"]]


def test_second_route_calls():
    # run.py's second_route: the character sum for a fundamental disc, else
    # the form count checked against the enumerated forms
    assert classgroup.class_number_analytic(-1_000_039) == 877
    count = qform.count_reduced(-4_000_004)
    assert count == len(qform.enumerate_reduced(-4_000_004)) == 1032


def test_every_traced_name_resolves(monkeypatch):
    # the traced run builds this Tracer; a removed or renamed target raises TraceError
    monkeypatch.syspath_prepend(str(BENCHMARK))
    from tracer import TARGETS, Tracer

    assert len(Tracer().stats) == len(TARGETS)
