"""Exact equivariant CSM/SSM classes of skew-symmetric and symmetric
matrix degeneracy loci, with Schur expansions, projectivized Euler
characteristics, Chern-Mather classes and K-theoretic Segre classes.
"""

from importlib import import_module

__version__ = "0.1.0"

# Public name -> defining submodule.  Submodules load on first access, so a
# command pays only for the layers it uses.
_EXPORTS = {name: module for module, names in (
    ("classes", "ClassExpr"),
    ("interp", "csm_class ssm_interp verify_axioms w_function"),
    ("ktheory", "motivic_segre_sieve phi_wedge_k q_binomial q_euler_numbers q_factorial"),
    ("laurent", "LaurentFraction"),
    ("mather", "chern_mather_wedge euler_obstruction_wedge"),
    ("orbits", "Family OrbitId"),
    ("partitions", "partition"),
    ("poly", "ExactDivisionError Poly"),
    ("projective", "aluffi_J closed_invariants euler_char_table projectivize"),
    ("sieve", "euler_numbers invert_binomial_matrix phi_class ssm_sieve"),
) for name in names.split()}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value
