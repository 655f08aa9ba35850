"""neutromagma: finite loops, groupoids, neutrosophic extensions and
Smarandache classification over explicit Cayley tables."""

from .magma import (BasicReport, ConjugateWitness, DoubleCosetResult,
                    ElementOrders, FiniteMagma, IdentityLaw, LawResult,
                    NucleiReport, ParameterError, PartialMap,
                    PreconditionError, ResourceLimitError, Subset,
                    SubsetPredicate,
                    associator_subloop, center, check_homomorphism,
                    check_identity_law, classify_basic, commutator_subloop,
                    conjugate_pair, conjugate_witnesses, cosets, double_coset,
                    element_orders, enumerate_closed_subsets,
                    generated_closure, is_closed, is_ideal, is_isomorphic,
                    is_normal, is_simple, latin_square_check, literal_xhy_normal,
                    local_identity, nuclei, principal_isotope,
                    right_regular_representation, submagma, subset_is_group,
                    subset_is_loop, subset_is_semigroup, two_sided_inverses)
from .constructors import (alternating, cyclic, dihedral, direct_product,
                           factorize, ln, ln_admissible, ln_class, ln_count,
                           ln_strict_noncomm_count, symmetric_group,
                           symmetric_semigroup, zmod_mult, zn, zn_class_size,
                           zn_params)
from .neutro import (GROUP_OR_S_SUBSEMIGROUP, NEUTRO_SUBSEMIGROUP,
                     NEUTRO_UNITAL, NEUTRO_UNITAL_OR_SUBGROUP,
                     S_NEUTRO_SUBLOOP, extend_tagged, has_real_subgroup,
                     is_neutro_subsemigroup, is_neutro_unital,
                     is_neutrosophic_subgroup, is_neutrosophic_subset,
                     is_pseudo_neutrosophic_subgroup, is_s_neutrosophic_subloop,
                     neutrosophic_ideal_check, real_part, zn_affine_neutro,
                     zn_full_neutro, zn_line_neutro, zn_units_neutro)
from .classify import (ClassReport, HyperReport, SDetection, SKind,
                       Verdict3, Witness, cauchy_classify, detect_s_kind,
                       lagrange_classify, s_cosets, s_hyper_and_simple,
                       s_identity_class, sylow_classify)
from .nstruct import (NKindVerdict, NStructure, NSubset, TupleSylowReport,
                      build_n_structure, classify_n_kind,
                      deficit_substructures, enumerate_n_substructures,
                      n_cauchy, n_coset, n_homomorphism_check, n_lagrange,
                      n_subset_is_produced, n_sylow, tuple_sylow)
from .serialize import (load_magma, load_nstructure, magma_from_dict,
                        magma_to_dict, nstructure_from_dict,
                        nstructure_to_dict, save_magma, save_nstructure)

__version__ = "0.1.0"
