"""L2-torsion of chain complexes over finite von Neumann categories.

The package computes Fuglede-Kadison determinants, spectral density
functions, determinant lines, extended cohomology, and the torsion of
finite complexes and cell complexes -- with explicit convergence
certificates instead of a determinant-class assumption.
"""

__version__ = "0.1.0"

from .backends import (
    BackendKind,
    CategoryBackend,
    HObject,
    Morphism,
    SubObject,
    adjoint,
    circle_samples,
    compose,
    cyclic_group_table,
    dihedral_group_table,
    direct_sum_morphisms,
    direct_sum_objects,
    family_backend,
    family_object,
    group_backend,
    group_object,
    group_ring_morphism,
    identity_morphism,
    kernel_and_image_closure,
    matrix_backend,
    matrix_morphism,
    matrix_object,
    scalar_morphism,
    trace,
    uniform_interval_samples,
    zero_morphism,
)
from .detline import (
    DetLineElement,
    Frame,
    canonical_element,
    exact_sequence_iso,
    push_forward,
    rebase_products,
    standard_element,
)
from .errors import L2TorsionError
from .extcoh import (
    ChainComplexC,
    CohomologyProfile,
    ExtendedObject,
    canonical_trivialization,
    cohomology,
    determinant_class_test,
    extended_object,
    det_line_of_extended,
    extended_pushforward,
    kernel_cokernel_lines,
)
from .spectral import (
    DetClassVerdict,
    SpectralDensity,
    classify_determinant,
    fk_det,
    fk_det_extended,
    log_fk_det,
    ns_exponent,
    singular_density,
    spectral_density,
    tau_isomorphism_test,
)
from .torsion import (
    TorsionReport,
    complex_det_element,
    cone_torsion_check,
    les_connecting_iso,
    mapping_cone,
    nu_map,
    sequence_torsion_check,
    torsion_acyclic,
)
from .cellular import (
    CellComplex,
    Representation,
    circle_complex,
    circle_complex_two_cells,
    circle_regular_representation,
    circle_unit_representation,
    cochain_complex,
    combinatorial_torsion,
    cyclic_character_representation,
    elementary_subdivision,
    lens_complex,
    re_lift,
    regular_representation,
    subdivision_invariance_check,
    torus_quotient_complex,
)
