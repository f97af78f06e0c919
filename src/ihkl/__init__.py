"""Intersection homology and Kazhdan-Lusztig polynomial toolkit.

Three computational pillars, cross-checked against each other:

* intersection homology of stratified simplicial complexes under
  arbitrary perversities, with closed (Borel-Moore) or compact supports;
* Kazhdan-Lusztig polynomials for symmetric groups, by Bott-Samelson
  extraction in the Hecke algebra and independently by the classical
  recursion on the polynomials, with no Hecke product;
* a brute-force flag variety over prime fields validating the Hecke
  algebra relations by counting.

All arithmetic is exact (integers, rationals, Laurent polynomials).
"""

from .perversity import Perversity, custom, is_complementary, make_standard
from .complexes import (SimplicialComplex, StratifiedComplex, barycenters,
                        barycentric_subdivide, cone, homology_dims, load_complex,
                        dump_complex, product, suspend, validate)
from .ih import (allowable_complex, allowable_simplices, duality_report,
                 extremal_comparison, ih_dims, local_stalk_table, normalize_isolated)
from .coxeter import Permutation, all_elements, bruhat_interval, bruhat_leq
from .hecke import (HeckeElement, LaurentPoly, ic_stalk_dims, iota,
                    kl_bott_samelson, kl_interval, kl_recursion, kl_table, t_inverse,
                    t_mul)
from .flagfq import (convolve, enumerate_flags, relative_position,
                     schubert_cell_sizes, verify_hecke_specialization)
from . import builders

__all__ = [
    "Perversity", "custom", "is_complementary", "make_standard",
    "SimplicialComplex", "StratifiedComplex",
    "barycenters", "barycentric_subdivide", "cone", "homology_dims", "load_complex",
    "dump_complex", "product", "suspend", "validate",
    "allowable_complex", "allowable_simplices", "duality_report",
    "extremal_comparison", "ih_dims", "local_stalk_table", "normalize_isolated",
    "Permutation", "all_elements", "bruhat_interval", "bruhat_leq",
    "HeckeElement", "LaurentPoly", "ic_stalk_dims", "iota",
    "kl_bott_samelson", "kl_interval", "kl_recursion", "kl_table", "t_inverse",
    "t_mul",
    "convolve", "enumerate_flags", "relative_position",
    "schubert_cell_sizes", "verify_hecke_specialization",
    "builders",
]

__version__ = "0.1.0"
