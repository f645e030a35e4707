"""Exact computational toolkit for modules over the four subspace algebra.

A module is a quintuple of vector spaces (V_0; V_1..V_4) with linear maps
A, B, C, D : V_i -> V_0, stored as exact matrices over the rationals or a
prime field.  The package provides

- :mod:`fourspace.exactmat` -- exact linear algebra on rows of Python
  scalars (Fractions over Q, int residues over GF(p)); elimination runs on
  list rows of Python ints: the residues as they are over GF(p),
  fraction-free over Q,
- :mod:`fourspace.modules` -- the module datatype and its symmetries,
- :mod:`fourspace.catalog` -- every indecomposable, by descriptor,
- :mod:`fourspace.homdim` -- hom dimensions via reduced coefficient matrices,
- :mod:`fourspace.oracle` -- hom dimensions via the full linearized system,
- :mod:`fourspace.decomp` -- direct-summand multiplicities,
- :mod:`fourspace.verify` -- randomized cross-checking of the two hom routes,
- :mod:`fourspace.cli` -- the ``fourspace`` command-line tool.
"""

from fourspace.catalog import (
    INF,
    EnumerationBounds,
    I,
    IndecDescriptor,
    InvalidParams,
    P,
    R,
    build,
    canonical_form,
    declared_dim,
    enumerate_descriptors,
    parse_descriptor,
)
from fourspace.decomp import AmbiguousSolution, IncompleteCandidates, decompose, is_isomorphic
from fourspace.exactmat import QQ, ExactMatrix, FieldMismatch, PrimeField, field_from_spec
from fourspace.homdim import coeff_matrix, hom_dim, hom_vector
from fourspace.modules import (
    LambdaModule,
    base_change,
    dim_vector,
    euler_form,
    module_direct_sum,
    module_from_record,
    module_to_record,
    permute_vertices,
    random_module,
    zero_module,
)
from fourspace.oracle import check_hom, hom_basis, hom_oracle
from fourspace.verify import run_sweep

__version__ = "0.1.0"

__all__ = [
    "AmbiguousSolution",
    "EnumerationBounds",
    "ExactMatrix",
    "FieldMismatch",
    "I",
    "INF",
    "IncompleteCandidates",
    "IndecDescriptor",
    "InvalidParams",
    "LambdaModule",
    "P",
    "PrimeField",
    "QQ",
    "R",
    "base_change",
    "build",
    "canonical_form",
    "check_hom",
    "coeff_matrix",
    "declared_dim",
    "decompose",
    "dim_vector",
    "enumerate_descriptors",
    "euler_form",
    "field_from_spec",
    "hom_basis",
    "hom_dim",
    "hom_oracle",
    "hom_vector",
    "is_isomorphic",
    "module_direct_sum",
    "module_from_record",
    "module_to_record",
    "parse_descriptor",
    "permute_vertices",
    "random_module",
    "run_sweep",
    "zero_module",
]
