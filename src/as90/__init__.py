"""Explicit roots of t^q - t - y over finite fields.

The additive form of Hilbert's theorem 90 gives a closed formula for a
root once a trace-one witness z is in hand; this package builds such
witnesses (scalars, cyclotomic elements, reference table rows), proves
the periodicity of their partial Frobenius sums, and wraps the whole
thing in a small CLI.
"""

from .artin_schreier import (
    ArtinSchreierInstance,
    IrreducibilityReport,
    KNOWN_EXPONENTS,
    RootSet,
    brute_force_roots,
    factor_artin_schreier,
    find_zeta,
    has_root,
    root_char2_table,
    root_coprime,
    root_general,
    root_np_p,
    root_p2mod3,
    root_via_prime_r,
    table_exponent_sequence,
)
from .bigpoly import (
    BigClass,
    TABLE_ROWS,
    TableCheck,
    classify,
    cyclotomic,
    cyclotomic_prime,
    factor_cyclotomic,
    find_big_primitive,
    ord_mod,
    regenerate_table,
    tensor_product,
    verify_table_entry,
)
from .errors import As90Error, CtxMismatch, NoRoot
from .fields import (
    FieldCtx,
    FieldElem,
    degree_over_subfield,
    discrete_log,
    element_order,
    frobenius,
    make_ctx,
    subfield_elements,
    subfield_embed,
    subfield_section,
    trace,
)
from .hilbert90 import (
    RootCertificate,
    TraceOneWitness,
    find_trace_one,
    partial_trace_sequence,
    r_form,
    r_symmetry_defect,
)
from .intfactor import factorint, p_part
from .periodicity import (
    PartialTraceSeq,
    PeriodReport,
    partial_trace_terms,
    verify_period_theorem,
)
from .polys import PrimePoly, default_modulus, factor, is_irreducible, is_prime

__version__ = "0.1.0"

__all__ = [
    "ArtinSchreierInstance",
    "As90Error",
    "BigClass",
    "CtxMismatch",
    "FieldCtx",
    "FieldElem",
    "IrreducibilityReport",
    "KNOWN_EXPONENTS",
    "NoRoot",
    "PartialTraceSeq",
    "PeriodReport",
    "PrimePoly",
    "RootCertificate",
    "RootSet",
    "TABLE_ROWS",
    "TableCheck",
    "TraceOneWitness",
    "brute_force_roots",
    "classify",
    "cyclotomic",
    "cyclotomic_prime",
    "default_modulus",
    "degree_over_subfield",
    "discrete_log",
    "element_order",
    "factor",
    "factor_artin_schreier",
    "factor_cyclotomic",
    "factorint",
    "find_big_primitive",
    "find_trace_one",
    "find_zeta",
    "frobenius",
    "has_root",
    "is_irreducible",
    "is_prime",
    "make_ctx",
    "ord_mod",
    "p_part",
    "partial_trace_sequence",
    "partial_trace_terms",
    "r_form",
    "r_symmetry_defect",
    "regenerate_table",
    "root_char2_table",
    "root_coprime",
    "root_general",
    "root_np_p",
    "root_p2mod3",
    "root_via_prime_r",
    "subfield_elements",
    "subfield_embed",
    "subfield_section",
    "table_exponent_sequence",
    "tensor_product",
    "trace",
    "verify_period_theorem",
    "verify_table_entry",
]
