"""Divisibility witnesses for class numbers of Q(sqrt(x^2 - y^n)).

For x, y, n with n odd, gcd(2x, y) = 1 and x^2 < y^n, write
y^n - x^2 = d t^2 with d square-free.  The ideal generated by y and the
lift of x/t splits (x - t sqrt(-d)) off as an n-th ideal power, so the form
class of norm y built here has principal n-th power; its exact order divides
n, and when the order is n itself the class number is divisible by n.  The
scan driver sweeps y ranges and also covers the x^2 - 4y^n variant, where
only divisibility (no witness form) is recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import classgroup, intmath
from .errors import InconsistencyError, InputError, ResourceCapError
from .qform import DEFAULT_DISC_CAP, QuadForm


@dataclass(frozen=True)
class Instance:
    """One (x, y, n) with n odd >= 3 and x^2 < y^n (imaginary field)."""

    x: int
    y: int
    n: int

    def __post_init__(self):
        if self.x < 1 or self.y < 1:
            raise InputError(f"x and y must be positive, got x={self.x}, y={self.y}")
        intmath.check_odd_exponent(self.n)
        intmath.check_power(self.y, self.n, "y^n")
        if self.x * self.x >= self.y**self.n:
            raise InputError(
                f"need x^2 < y^n for an imaginary field, got x={self.x}, y={self.y}, n={self.n}"
            )


@dataclass(frozen=True)
class WitnessReport:
    """Everything needed to audit one instance.

    d and t satisfy d*t^2 = y^n - x^2 (d > 0 square-free); disc is the field
    discriminant of Q(sqrt(-d)); alpha_order * cofactor_s = n exactly.
    """

    instance: Instance
    d: int
    t: int
    disc: int
    h: int
    alpha_form: QuadForm
    alpha_order: int
    cofactor_s: int
    n_divides_h: bool


def _construct(inst: Instance, budget: int | None) -> tuple[int, int, int, QuadForm]:
    """(d, t, disc, raw norm-y form) for a valid instance."""
    x, y, n = inst.x, inst.y, inst.n
    if math.gcd(2 * x, y) != 1:
        raise InputError(f"witness construction needs gcd(2x, y) = 1, got x={x}, y={y}")
    dec = intmath.squarefree_part(y**n - x * x, budget)
    d, t = dec.d, dec.t
    disc = intmath.field_discriminant(-d)
    if math.gcd(t, y) != 1:  # pragma: no cover - impossible when gcd(x, y) = 1
        raise InconsistencyError(f"gcd(t, y) != 1 for instance {inst}")
    beta = x * pow(t, -1, y) % y
    if (beta * beta + d) % y:  # pragma: no cover - arithmetic self-check
        raise InconsistencyError(f"beta^2 != -d (mod y) for instance {inst}")
    # Lift beta to the middle coefficient: odd disc needs an odd B = beta (mod y),
    # even disc (-4d) needs B = 2*beta.  Either way B is minimal in [0, 2y) and
    # B^2 = disc (mod 4y).
    if disc % 2:
        b = beta if beta % 2 else beta + y
    else:
        b = 2 * beta
    num = b * b - disc
    if num % (4 * y):  # pragma: no cover - arithmetic self-check
        raise InconsistencyError(f"B lift failed for instance {inst}")
    return d, t, disc, QuadForm(y, b, num // (4 * y))


def alpha_form(inst: Instance, budget: int | None = None) -> QuadForm:
    """Reduced norm-y witness form for the instance."""
    _, _, _, raw = _construct(inst, budget)
    return raw.reduced()


def verify_instance(
    inst: Instance,
    max_disc: int = DEFAULT_DISC_CAP,
    budget: int | None = None,
) -> WitnessReport:
    """Full certificate: class number, and the witness order found from n.

    y^n - x^2 is factored once, for d; h is looked up for that d directly.

    The order comes from ``order_of_class(f, n)``, which raises when f^n is
    not principal; it divides h by Lagrange, and a class number it does not
    divide (e.g. a wrong cached value) raises InconsistencyError.
    """
    d, t, disc, raw = _construct(inst, budget)
    h = classgroup.class_number_of_squarefree(-d, max_disc).h
    f = raw.reduced()
    order = classgroup.order_of_class(f, inst.n, budget)
    if h % order:
        raise InconsistencyError(f"witness order {order} does not divide h = {h} at disc {disc}")
    return WitnessReport(
        instance=inst,
        d=d,
        t=t,
        disc=disc,
        h=h,
        alpha_form=f,
        alpha_order=order,
        cofactor_s=inst.n // order,
        n_divides_h=h % inst.n == 0,
    )


@dataclass(frozen=True)
class FourVariantRecord:
    """Divisibility data for x^2 - 4y^n = -d t^2 (no witness form)."""

    d: int
    t: int
    disc: int
    h: int
    divisible: bool


@dataclass(frozen=True)
class ScanRecord:
    y: int
    status: str  # "ok" | "skipped" | "error"
    reason: str | None = None
    witness: WitnessReport | None = None
    four: FourVariantRecord | None = None


def _scan_standard(x, n, y, max_disc, budget):
    if math.gcd(2 * x, y) != 1:
        return ScanRecord(y=y, status="skipped", reason="gcd(2x, y) != 1")
    try:
        intmath.check_power(y, n, "y^n")
        if x * x >= y**n:
            return ScanRecord(y=y, status="skipped", reason="x^2 >= y^n")
        report = verify_instance(Instance(x, y, n), max_disc, budget)
    except ResourceCapError as exc:
        return ScanRecord(y=y, status="error", reason=str(exc))
    return ScanRecord(y=y, status="ok", witness=report)


def _scan_four(x, n, y, max_disc, budget):
    if math.gcd(x, y) != 1:
        return ScanRecord(y=y, status="skipped", reason="gcd(x, y) != 1")
    try:
        intmath.check_power(y, n, "y^n")
        if x * x >= 4 * y**n:
            return ScanRecord(y=y, status="skipped", reason="x^2 >= 4y^n")
        value = x * x - 4 * y**n
        decomp = intmath.squarefree_part(value, budget)
        h, disc, d_sf = classgroup.class_number_of_squarefree(decomp.d, max_disc)
    except ResourceCapError as exc:
        return ScanRecord(y=y, status="error", reason=str(exc))
    rec = FourVariantRecord(d=-d_sf, t=decomp.t, disc=disc, h=h, divisible=h % n == 0)
    return ScanRecord(y=y, status="ok", four=rec)


def scan(
    x: int,
    n: int,
    y_from: int,
    y_to: int,
    variant: str = "standard",
    max_disc: int = DEFAULT_DISC_CAP,
    budget: int | None = None,
) -> list[ScanRecord]:
    """One record per y in [y_from, y_to]: witness reports (standard variant),
    divisibility-only records (four variant), or skip/error markers.

    An instance over a cap (disc cap, factoring budget, power-bits bound) is
    captured as an error record instead of aborting the sweep; a failed
    consistency check raises.  Records always come back in ascending y order.
    """
    if variant not in ("standard", "four"):
        raise InputError(f"variant must be 'standard' or 'four', got {variant!r}")
    if x < 1:
        raise InputError(f"x must be positive, got {x}")
    intmath.check_odd_exponent(n)
    worker = _scan_standard if variant == "standard" else _scan_four

    return [
        worker(x, n, y, max_disc, budget)
        if y >= 1
        else ScanRecord(y=y, status="skipped", reason="y < 1")
        for y in range(y_from, y_to + 1)
    ]
