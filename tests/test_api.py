"""The public surface: the names quadclass exports, its version, and the
README's library example run as written."""

from pathlib import Path

import quadclass

README = Path(__file__).resolve().parents[1] / "README.md"


def test_exported_names():
    assert sorted(quadclass.__all__) == [
        "ClassGroupInfo",
        "CohnResult",
        "DEFAULT_DISC_CAP",
        "Factorization",
        "FamilyMember",
        "FamilyReport",
        "HoqueResult",
        "InconsistencyError",
        "InputError",
        "Instance",
        "QuadForm",
        "QuadclassError",
        "ResourceCapError",
        "ScanRecord",
        "SquarefreeDecomp",
        "WitnessReport",
        "alpha_form",
        "class_number_analytic",
        "class_number_forms",
        "class_number_of_field",
        "cohn_check",
        "cor5_family",
        "cor7_family",
        "count_reduced",
        "enumerate_reduced",
        "factor",
        "group_structure",
        "hoque_check",
        "identity_form",
        "iizuka_family",
        "is_prime",
        "kronecker",
        "order_of_class",
        "prime_form",
        "scan",
        "search_successive",
        "sqrt_mod_prime",
        "squarefree_part",
        "verify_instance",
    ]
    assert all(hasattr(quadclass, name) for name in quadclass.__all__)


def test_version():
    assert quadclass.__version__ == "0.3.0"


def test_readme_quick_start():
    # each line "expr  # value" of the example must evaluate to that value's repr
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    source, got, stated = [], [], []
    for line in block.splitlines():
        code, sep, comment = line.partition("  # ")
        if not sep:
            source.append(line)
            continue
        exec("\n".join(source), namespace)
        source = []
        got.append(repr(eval(code, namespace)))
        stated.append(comment.strip())
    exec("\n".join(source), namespace)
    assert len(stated) == 3
    assert got == stated
