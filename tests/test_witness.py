import math

import pytest

from quadclass import classgroup, intmath, qform, witness
from quadclass.errors import InputError, ResourceCapError
from quadclass.qform import QuadForm
from quadclass.witness import Instance


class TestInstance:
    def test_valid(self):
        Instance(2, 3, 3)

    def test_rejects_even_n(self):
        with pytest.raises(InputError):
            Instance(2, 3, 4)

    def test_rejects_small_n(self):
        with pytest.raises(InputError):
            Instance(2, 3, 1)

    def test_rejects_real_field(self):
        with pytest.raises(InputError):
            Instance(10, 3, 3)  # 100 > 27

    def test_rejects_non_positive(self):
        with pytest.raises(InputError):
            Instance(0, 3, 3)
        with pytest.raises(InputError):
            Instance(2, 0, 3)


class TestAlphaForm:
    def test_hand_example(self):
        # 3^3 - 2^2 = 23: raw form (3,5,4), reduced (2,1,3)
        inst = Instance(2, 3, 3)
        d, t, disc, raw = witness._construct(inst, None)
        assert (d, t, disc) == (23, 1, -23)
        assert raw == QuadForm(3, 5, 4)
        assert witness.alpha_form(inst) == QuadForm(2, 1, 3)

    def test_even_disc_case(self):
        # 5^3 - 2^2 = 121 = 1 * 11^2: disc -4, witness principal
        inst = Instance(2, 5, 3)
        d, t, disc, raw = witness._construct(inst, None)
        assert (d, t, disc) == (1, 11, -4)
        assert raw == QuadForm(5, 4, 1)
        assert witness.alpha_form(inst) == QuadForm(1, 0, 1)

    def test_norm_three_form_at_104(self):
        inst = Instance(1, 3, 3)
        f = witness.alpha_form(inst)
        assert f == QuadForm(3, 2, 9)
        assert f.discriminant == -104

    def test_gcd_precondition(self):
        with pytest.raises(InputError):
            witness.alpha_form(Instance(2, 4, 3))
        with pytest.raises(InputError):
            witness.alpha_form(Instance(3, 9, 3))

    def test_raw_form_has_leading_coefficient_y(self):
        for x, y, n in [(1, 3, 3), (2, 3, 3), (1, 7, 3), (2, 7, 5), (3, 11, 3)]:
            _, _, disc, raw = witness._construct(Instance(x, y, n), None)
            assert raw.a == y
            assert raw.discriminant == disc
            assert 0 <= raw.b < 2 * y


class TestVerifyInstance:
    def test_exemplar_233(self):
        rep = witness.verify_instance(Instance(2, 3, 3))
        assert rep.d == 23 and rep.t == 1 and rep.disc == -23
        assert rep.h == 3
        assert rep.alpha_form == QuadForm(2, 1, 3)
        assert rep.alpha_order == 3 and rep.cofactor_s == 1
        assert rep.n_divides_h
        assert rep.alpha_form.power(3) == qform.identity_form(rep.disc)

    def test_below_threshold_253(self):
        rep = witness.verify_instance(Instance(2, 5, 3))
        assert rep.h == 1 and rep.alpha_order == 1 and rep.cofactor_s == 3
        assert not rep.n_divides_h

    def test_153(self):
        rep = witness.verify_instance(Instance(1, 5, 3))
        assert rep.d == 31 and rep.disc == -31 and rep.h == 3
        assert rep.n_divides_h

    def test_order_is_found_from_n_not_from_h(self, monkeypatch):
        factored = []
        factor = intmath.factor

        def recorded(n, *args, **kwargs):
            factored.append(n)
            return factor(n, *args, **kwargs)

        monkeypatch.setattr(intmath, "factor", recorded)
        rep = witness.verify_instance(Instance(2, 15, 5))
        assert (rep.h, rep.alpha_order) == (325, 5)
        assert 5 in factored and 325 not in factored

    def test_field_is_factored_once(self, monkeypatch):
        # y^n - x^2 = 8120597 is square-free; h is looked up for -8120597
        # without factoring it again, and n = 3 is factored for the order
        factored = []
        factor = intmath.factor

        def recorded(n, *args, **kwargs):
            factored.append(n)
            return factor(n, *args, **kwargs)

        monkeypatch.setattr(intmath, "factor", recorded)
        rep = witness.verify_instance(Instance(2, 201, 3))
        assert rep.d == 8120597 and rep.disc == -32482388
        assert factored == [8120597, 3]

    @pytest.mark.parametrize("x,y,n", [(2, 3, 3), (2, 5, 3), (1, 3, 5), (2, 15, 5), (40, 3, 9)])
    def test_no_principal_operand(self, compositions, x, y, n):
        # witness orders 3, 1, 1, 5 and 3: the powers in ``order_of_class``
        # never compose with the principal class, the reduced form with a = 1
        witness.verify_instance(Instance(x, y, n))
        assert [(f, g) for f, g in compositions if f.a == 1 or g.a == 1] == []

    def test_structural_invariants_small_sweep(self):
        for n in (3, 5):
            for x in (1, 2, 3):
                for y in range(3, 30, 2):
                    if math.gcd(2 * x, y) != 1 or x * x >= y**n:
                        continue
                    rep = witness.verify_instance(Instance(x, y, n))
                    assert rep.alpha_form.discriminant == rep.disc
                    assert rep.d * rep.t * rep.t == y**n - x * x
                    assert rep.alpha_form.power(n) == qform.identity_form(rep.disc)
                    assert n % rep.alpha_order == 0
                    assert rep.alpha_order * rep.cofactor_s == n
                    if rep.alpha_order == n:
                        assert rep.n_divides_h
                    assert rep.n_divides_h == (rep.h % n == 0)

    def test_conjugate_root_gives_inverse_class_same_order(self):
        # replacing beta by y - beta flips the class to its inverse
        for x, y, n in [(2, 3, 3), (1, 3, 3), (2, 7, 3), (1, 7, 5)]:
            inst = Instance(x, y, n)
            d, t, disc, raw = witness._construct(inst, None)
            beta = x * pow(t, -1, y) % y
            beta_conj = (y - beta) % y
            if disc % 2:
                b2 = beta_conj if beta_conj % 2 else beta_conj + y
            else:
                b2 = 2 * beta_conj
            conj = QuadForm(y, b2, (b2 * b2 - disc) // (4 * y))
            assert conj.reduced() == raw.reduced().inverse()
            h = classgroup.class_number_forms(disc)
            assert classgroup.order_of_class(raw.reduced(), h) == classgroup.order_of_class(
                conj.reduced(), h
            )


class TestScan:
    def test_standard_example(self):
        records = witness.scan(2, 3, 3, 9)
        by_y = {r.y: r for r in records}
        assert [r.y for r in records] == list(range(3, 10))
        for y in (4, 6, 8):
            assert by_y[y].status == "skipped" and "gcd" in by_y[y].reason
        assert by_y[3].witness.n_divides_h is True
        assert by_y[5].witness.n_divides_h is False
        assert by_y[9].witness.n_divides_h is True
        # y = 9: 4 - 729 = -725 = -29 * 5^2
        assert by_y[9].witness.d == 29 and by_y[9].witness.t == 5
        assert by_y[9].witness.disc == -116 and by_y[9].witness.h == 6

    def test_cohn_point(self):
        records = witness.scan(1, 3, 3, 3)
        assert len(records) == 1
        rep = records[0].witness
        assert rep.disc == -104 and rep.h == 6 and rep.n_divides_h

    def test_empty_range(self):
        assert witness.scan(2, 3, 9, 3) == []

    def test_small_y_skipped(self):
        records = witness.scan(3, 3, 1, 3)
        by_y = {r.y: r for r in records}
        assert by_y[1].status == "skipped" and "x^2 >= y^n" in by_y[1].reason
        assert by_y[2].status == "skipped"  # gcd
        assert by_y[3].status == "skipped"  # gcd(6, 3) = 3

    def test_four_variant(self):
        records = witness.scan(1, 3, 2, 6, variant="four")
        by_y = {r.y: r for r in records}
        for r in records:
            assert r.witness is None
        # y = 2: 1 - 32 = -31, h(-31) = 3
        assert by_y[2].four.d == 31 and by_y[2].four.disc == -31
        assert by_y[2].four.h == 3 and by_y[2].four.divisible
        for y in (2, 3, 4, 5, 6):
            rec = by_y[y].four
            assert rec is not None
            assert rec.d * rec.t * rec.t == 4 * y**3 - 1
            assert rec.divisible == (rec.h % 3 == 0)

    def test_four_variant_skips_common_factor(self):
        records = witness.scan(3, 3, 3, 3, variant="four")
        assert records[0].status == "skipped" and "gcd" in records[0].reason

    def test_bad_variant(self):
        with pytest.raises(InputError):
            witness.scan(2, 3, 3, 9, variant="five")

    def test_per_instance_cap_error_captured(self):
        records = witness.scan(2, 5, 3, 15, max_disc=10**4)
        assert all(r.status in ("ok", "skipped", "error") for r in records)
        errs = [r for r in records if r.status == "error"]
        assert errs, "expected at least one capped record"
        for r in errs:
            assert "cap" in r.reason

    @pytest.mark.parametrize("variant", ["standard", "four"])
    def test_oversized_power_is_an_error_record(self, variant):
        # 1^1000001 is built as before; 3^1000001 is not built
        by_y = {r.y: r for r in witness.scan(1, 1000001, 1, 3, variant=variant)}
        assert by_y[1].status != "error"
        assert by_y[3].status == "error" and "y^n would have more than" in by_y[3].reason

    def test_oversized_instance_is_capped(self):
        with pytest.raises(ResourceCapError):
            Instance(1, 3, 4000001)
