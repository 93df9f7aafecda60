"""Exact p-adic continued fractions under pluggable floor functions,
word-family generators, prefix combinatorics, and evidence certificates."""

from .padic import (
    INFINITY,
    PAdicApprox,
    abs_p,
    canonical_digits,
    hensel_sqrt,
    parse_rational,
    format_rational,
    vp,
    weil_height,
)
from .floors import FloorFunction, browkin_floor, ruban_floor, validate_floor
from .cf import (
    ContinuantState,
    ExpansionRecord,
    continuants,
    eval_cf,
    expand,
    tail_reconstruct,
    verify_identities,
)
from .quadratic import (
    QuadraticCertificate,
    palindrome_symmetry,
    periodic_to_quadratic,
    reversal_quotient,
    verify_root,
)
from .words import DFAO, LetterStream, WordSpec, dfao_eval
from .combinatorics import (
    Witness,
    check_witness,
    complexity,
    detect,
    scan_special_prefixes,
    spade_constant_from_complexity,
)
# the certify() function is not re-exported: padiccf.certify is the module
from .certify import (
    Certificate,
    GrowthBounds,
    check_corollary,
    growth_bounds,
    required_k,
)

__version__ = "0.1.0"
