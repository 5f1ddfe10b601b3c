"""Fuzz the command line in-process: every generated argv must end in one of
the documented exit codes, never in an exception.

Exponents are drawn up to about 10^6, so the operand caps are reached; the
rho budget is kept small so that each run is quick (running out of it is
exit 3, an allowed outcome).  Sweeps (scan, search) get short ranges near
zero, and any single run that takes longer than TIME_LIMIT_S fails.
"""

import contextlib
import io
import time

from hypothesis import given, strategies as st

from quadclass import cli

BUDGET = ["--factor-budget", "20000"]
TIME_LIMIT_S = 10.0

small = st.integers(-3, 40)
exponent = st.one_of(small, st.integers(-3, 10**6))
width = st.integers(-2, 200)


def run(argv):
    argv = [str(a) for a in argv] + BUDGET
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
            assert code == 2, (argv, err.getvalue())
    elapsed = time.perf_counter() - start
    assert elapsed <= TIME_LIMIT_S, f"{argv} took {elapsed:.1f} s"
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue()


@given(st.integers(-10**9, 10**3), st.booleans())
def test_classnum(d, positional):
    run(["classnum", "--", d] if positional else ["classnum", "--d", d])


@given(st.integers(-10**12, 10**12))
def test_squarefree(n):
    run(["squarefree", "--n", n])


@given(small, small, exponent)
def test_witness(x, y, n):
    run(["witness", "--x", x, "--y", y, "--n", n])


@given(st.integers(-10**6, 10))
def test_group(disc):
    run(["group", "--disc", disc])


@given(small, exponent)
def test_check_cohn(V, n):
    run(["check", "cohn", "--V", V, "--n", n])


@given(
    st.sampled_from([("iizuka", "--n", "--m", "--l"), ("cor5", "--n", "--k", "--l"),
                     ("cor7", "--p", "--k", "--t")]),
    small,
    exponent,
    exponent,
)
def test_family(kind, first, second, third):
    name, a, b, c = kind
    run(["family", name, a, first, b, second, c, third])


@given(small, small, st.integers(-3, 60), width, st.sampled_from(["standard", "four"]))
def test_scan(x, n, y_from, span, variant):
    run(["scan", "--x", x, "--n", n, "--from", y_from, "--to", y_from + span,
         "--variant", variant])


@given(
    small,
    st.lists(st.integers(-2, 30), max_size=4).map(lambda o: ",".join(map(str, o))),
    st.integers(-10**4, 10),
    width,
    st.integers(-1, 5),
    st.booleans(),
)
def test_search(n, offsets, d_from, span, max_hits, largest_first):
    argv = ["search", "--n", n, "--offsets", offsets, "--from", d_from,
            "--to", d_from + span, "--max-hits", max_hits]
    run(argv + ["--largest-first"] if largest_first else argv)


@given(exponent, small, exponent, st.sampled_from([-2, 4, 0]))
def test_check_hoque(m, p, n, r):
    run(["check", "hoque", "--m", m, "--p", p, "--n", n, "--r", r])
