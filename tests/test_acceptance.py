"""Acceptance suite: one test per criterion, exact tolerances, one verdict line each.

Run with `python -m pytest tests/test_acceptance.py -v` (or the full suite);
each criterion prints an ``ACCEPTANCE n PASS`` line on success and fails its
test otherwise.  All assertions are exact integer comparisons; there are no
numeric tolerances anywhere.
"""

import math
import random
from itertools import product

from quadclass import classgroup, families, intmath, qform, witness
from quadclass import cli
from quadclass.qform import QuadForm
from quadclass.witness import Instance

from oracles import apply_unimodular, is_fundamental, random_unimodular

HEEGNER = {-3, -4, -7, -8, -11, -19, -43, -67, -163}


def _fundamental_range(limit):
    for disc in range(-3, limit - 1, -1):
        if disc % 4 in (0, 1) and is_fundamental(disc):
            yield disc


def test_criterion_01_dual_oracle_class_numbers():
    """The form count and the analytic character sum agree exactly on every
    fundamental discriminant with |disc| < 2^16: the whole domain of qform's
    table, which the library then trusts without running the sum."""
    checked = 0
    for disc in _fundamental_range(1 - qform._TABLE_TOP):
        assert classgroup.class_number_forms(disc) == classgroup.class_number_analytic(disc), disc
        checked += 1
    assert checked == 19933
    print(f"ACCEPTANCE 1 PASS: dual-oracle agreement on {checked} fundamental discriminants above -2^16")


def test_criterion_02_class_number_one_discriminants():
    ones = {disc for disc in _fundamental_range(-200) if classgroup.class_number_forms(disc) == 1}
    assert ones == HEEGNER
    print(f"ACCEPTANCE 2 PASS: h = 1 exactly on {sorted(ones, reverse=True)} within [-200, 0)")


def test_criterion_03_cohn_grid():
    grids = [(3, range(3, 50, 2)), (5, range(3, 26, 2)), (7, range(3, 10, 2))]
    checked = 0
    for n, vs in grids:
        for v in vs:
            res = families.cohn_check(v, n)
            if (v, n) == (3, 5):
                assert res.is_exception and not res.divisible and res.h == 1, (v, n, res)
            else:
                assert not res.is_exception and res.divisible, (v, n, res)
            checked += 1
    print(f"ACCEPTANCE 3 PASS: n | h(1 - V^n) on all {checked} grid points except exactly (V, n) = (3, 5)")


def test_criterion_04_hoque_grid():
    checked = skipped = 0
    for m, p, n, r in product((3, 5), (5, 7, 11), (1, 2), (-2, 4)):
        value = -(3**m * p ** (2 * n) + r)
        disc = intmath.field_discriminant(intmath.squarefree_part(value).d)
        if -disc > 10**8:
            skipped += 1
            continue
        res = families.hoque_check(m, p, n, r)
        assert res.divisible, (m, p, n, r, res)
        checked += 1
    print(f"ACCEPTANCE 4 PASS: 3 | h on all {checked} grid points ({skipped} over cap)")


def test_criterion_05_witness_exemplar():
    rep = witness.verify_instance(Instance(2, 3, 3))
    assert rep.d == 23
    assert rep.disc == -23
    assert rep.h == 3
    assert rep.alpha_form == QuadForm(2, 1, 3)
    assert rep.alpha_order == 3
    assert rep.alpha_form.power(3) == qform.identity_form(-23)
    print("ACCEPTANCE 5 PASS: (2,3,3) gives d=23, disc=-23, h=3, witness (2,1,3) of order 3")


def test_criterion_06_witness_structural_suite():
    checked = skipped = 0
    for n in (3, 5):
        for x in (1, 2, 3):
            for y in range(3, 100, 2):
                if math.gcd(2 * x, y) != 1 or x * x >= y**n:
                    continue
                d = intmath.squarefree_part(y**n - x * x).d
                disc = intmath.field_discriminant(-d)
                if -disc > 10**8:
                    skipped += 1
                    continue
                rep = witness.verify_instance(Instance(x, y, n))
                assert rep.alpha_form.power(n) == qform.identity_form(rep.disc), (x, y, n)
                assert n % rep.alpha_order == 0, (x, y, n)
                if rep.alpha_order == n:
                    assert rep.n_divides_h, (x, y, n)
                checked += 1
    assert checked > 150
    print(f"ACCEPTANCE 6 PASS: witness structure holds on {checked} instances ({skipped} over cap), zero failures")


def test_criterion_07_cor7_exemplar():
    rep = families.cor7_family(5, 1, 1)
    assert rep.base_d == -421874
    offsets = [m.offset for m in rep.members]
    assert offsets == [0, 1, 3]
    assert rep.members[0].asserted and rep.members[0].divisible
    assert rep.members[1].asserted and rep.members[1].divisible
    assert not rep.members[2].asserted  # reported only
    assert rep.all_asserted_pass
    print(
        "ACCEPTANCE 7 PASS: cor7 (p,k,t)=(5,1,1), d=-421874, offsets 0 and 1 hard-pass "
        f"(h = {rep.members[0].h}, {rep.members[1].h}), offset 3 reported (h = {rep.members[2].h})"
    )


def test_criterion_08_successive_fields_exist():
    hits = families.search_successive(3, [0, 1, 4], -(10**6), -1, max_hits=1)
    assert hits, "no successive triple found in [-10^6, -1]"
    hit = hits[0]
    for member in hit.members:
        # independent re-verification: the reduced forms enumerated over
        # every a, not the shipped table the search read, and the analytic sum
        fresh = len(qform.enumerate_reduced(member.disc))
        assert fresh == member.h and fresh % 3 == 0
        assert classgroup.class_number_analytic(member.disc) == member.h
    print(
        f"ACCEPTANCE 8 PASS: triple at d = {hit.base_d} with h = "
        f"{[m.h for m in hit.members]} all divisible by 3, re-verified"
    )


def test_criterion_09_form_group_property_suite():
    rng = random.Random(20259)
    total_samples = 0
    for disc in (-23, -84, -104, -116, -679):
        forms = qform.enumerate_reduced(disc)
        fset = set(forms)
        ident = qform.identity_form(disc)
        for f in forms:
            assert f.reduced() == f
            assert f.compose(f.inverse()) == ident
            assert ident.compose(f) == f
        for f, g in product(forms, repeat=2):
            fg = f.compose(g)
            assert fg in fset
            assert fg == g.compose(f)
        for f, g, h in product(forms, repeat=3):
            assert f.compose(g).compose(h) == f.compose(g.compose(h))
        for _ in range(100):
            f, g = rng.choice(forms), rng.choice(forms)
            fa = QuadForm(*apply_unimodular(f, *random_unimodular(rng)))
            ga = QuadForm(*apply_unimodular(g, *random_unimodular(rng)))
            assert fa.compose(ga) == f.compose(g)
            total_samples += 1
    print(f"ACCEPTANCE 9 PASS: group laws and compose well-definedness ({total_samples} unimodular samples)")


def test_criterion_10_determinism(capsys, tmp_path):
    argv = ["family", "cor7", "--p", "5", "--k", "1", "--t", "1", "--json"]

    def run(extra):
        code = cli.main(argv + extra)
        out = capsys.readouterr().out
        assert code == 0
        return out.encode()

    plain_1 = run([])
    plain_2 = run([])
    cache_file = str(tmp_path / "cache.jsonl")
    cached_cold = run(["--cache", cache_file])
    cached_warm = run(["--cache", cache_file])
    assert plain_1 == plain_2 == cached_cold == cached_warm
    print("ACCEPTANCE 10 PASS: cor7 JSON byte-identical across repeat runs, with and without cache")
