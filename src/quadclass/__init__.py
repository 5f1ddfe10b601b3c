"""quadclass: class groups of imaginary quadratic fields via binary quadratic
forms, with constructive class-number divisibility certificates."""

from .errors import InconsistencyError, InputError, QuadclassError, ResourceCapError
from .intmath import (
    Factorization,
    SquarefreeDecomp,
    factor,
    is_prime,
    kronecker,
    sqrt_mod_prime,
    squarefree_part,
)
from .qform import (
    DEFAULT_DISC_CAP,
    QuadForm,
    count_reduced,
    enumerate_reduced,
    identity_form,
    prime_form,
)
from .classgroup import (
    ClassGroupInfo,
    class_number_analytic,
    class_number_forms,
    class_number_of_field,
    group_structure,
    order_of_class,
)
from .witness import Instance, ScanRecord, WitnessReport, alpha_form, scan, verify_instance
from .families import (
    CohnResult,
    FamilyMember,
    FamilyReport,
    HoqueResult,
    cohn_check,
    cor5_family,
    cor7_family,
    hoque_check,
    iizuka_family,
    search_successive,
)

__version__ = "0.3.0"

__all__ = [
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
