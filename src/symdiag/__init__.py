"""Closed-form diagonalization of 2x2 and 3x3 real symmetric matrices.

Eigenvalues via the trigonometric cubic solution, eigenvectors via three
rotation angles about the fixed basis axes with explicit sign resolution,
plus independent oracles (cyclic Jacobi, bracketed cubic roots) and a
JSON-lines CLI for batch solving, verification and benchmarking.
"""

from .core import (
    Angles3,
    AngleOfZeroVector,
    Branch,
    EigenDecomp2,
    EigenDecomp3,
    NonFiniteInput,
    SolveReport,
    SymMat2,
    SymMat3,
    angle_of,
    compose_rotation,
    rot2,
    rot3x,
    rot3y,
    rot3z,
    wrap_half_pi,
    wrap_pi,
    wrapped_diff_mod_pi,
)
from .eig2 import diagonalize2, eigenvalues2, rotation_angle2
from .eig3 import (
    CubicCoeffs,
    PQ,
    char_coeffs,
    compute_pq,
    compute_v,
    compute_w,
    degenerate_double,
    diagonalize3,
    eigenvalues3,
    euler_angles,
    f_vectors,
    g_vectors,
    pq_expanded,
)
from .oracle import (
    ComplexRootsDetected,
    cubic_roots_reference,
    jacobi_eigen,
    reconstruct,
    residuals,
)

__all__ = [
    "Angles3", "AngleOfZeroVector", "Branch", "EigenDecomp2", "EigenDecomp3",
    "NonFiniteInput", "SolveReport", "SymMat2", "SymMat3", "angle_of",
    "compose_rotation", "rot2", "rot3x", "rot3y", "rot3z", "wrap_half_pi",
    "wrap_pi", "wrapped_diff_mod_pi",
    "diagonalize2", "eigenvalues2", "rotation_angle2",
    "CubicCoeffs", "PQ", "char_coeffs", "compute_pq", "compute_v",
    "compute_w", "degenerate_double", "diagonalize3", "eigenvalues3",
    "euler_angles", "f_vectors", "g_vectors", "pq_expanded",
    "ComplexRootsDetected", "cubic_roots_reference", "jacobi_eigen",
    "reconstruct", "residuals",
]

__version__ = "0.1.0"
