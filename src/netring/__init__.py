"""Linear network codes with coefficients from finite rings and modules."""

from .rings import (
    PrimeField, GaloisField, IntegersMod, MatrixRing, UpperTriangular,
    Product, TableRing, Ring, RingHom, Ideal, construct_ring,
    verify_ring_axioms, left_ideals, two_sided_ideals, maximal_proper,
    radical, quotient, find_homomorphisms, find_isomorphism, identity_hom,
    semisimple_catalog, semisimple_decompose, prime_power_decompose,
    descriptor_to_json, descriptor_from_json, describe, descriptor_size,
)
from .modules import (
    AbelianGroup, Module, ModuleAxiomError, cyclic, direct_sum,
    additive_group, construct_module, verify_module_axioms, scalar_module,
    vector_module, annihilator_quotient, submodules,
    module_to_json, module_from_json,
)
from .networks import (
    Edge, Network, validate_network, cut_deficit, m_network, dim_n_network,
    choose_two_network, trivial_network, network_to_json, network_from_json,
    parse_network,
)
from .codes import (
    LinearCode, Verdict, check_shape, transfer_vectors, verify_solution,
    semantic_verify, explicit_m_network_code, routing_code_dim_n,
    entropy_of, EntropyReport, variable_rows, code_to_json, code_from_json,
)
from .transforms import (
    hom_lift, matrix_scalar_to_vector, vector_to_matrix_scalar, dim_sum,
    product_code, quotient_by_annihilator, simple_reduction,
)
from .solver import (
    SearchOptions, SolveResult, solve_scalar, solve_vector,
    structured_catalog, smallest_ring_search, SmallestRingReport,
    RingVerdict, nonunital_demo, NonUnitalReport,
)

__version__ = "0.1.0"
