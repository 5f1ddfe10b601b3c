"""Fuzz the command line in-process: every generated argv must end in one of
the documented exit codes, never in an exception.

Exponents are drawn up to about 10^6, so the operand caps are reached; the
rho budget is kept small so that each run is quick (running out of it is
exit 3, an allowed outcome).
"""

import contextlib
import io

from hypothesis import given, strategies as st

from quadclass import cli

BUDGET = ["--factor-budget", "20000"]

small = st.integers(-3, 40)
exponent = st.one_of(small, st.integers(-3, 10**6))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv] + BUDGET)
        except SystemExit as exc:  # argparse rejects the argv
            assert exc.code == 2, (argv, err.getvalue())
            return
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
