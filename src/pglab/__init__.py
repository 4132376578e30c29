"""Power graphs of finite groups: construction, forbidden-induced-subgraph
detection, and mechanical verification of classification statements."""

from .finite_field import FieldSpec, construct_field, primitive_element
from .group_kernel import (
    CapExceededError,
    Group,
    close_generators,
    compose_permutations,
    identity_permutation,
    permutation_from_cycles,
    render_permutation,
)
from .constructors import (
    AtomSpec,
    GroupSpec,
    GroupSpecError,
    ProductSpec,
    build_group,
    construct_psl2,
    construct_sl2,
    cyclic,
    dihedral,
    direct_product,
    elementary_abelian,
    generalized_quaternion,
    parse_group_spec,
    semidirect_cyclic,
    spec_label,
    symmetric,
    alternating,
)
from .power_graph import (
    Graph,
    TwinReducedGraph,
    build_power_graph,
    export_graph,
    twin_reduce,
)
from .patterns import (
    PATTERNS,
    Pattern,
    Witness,
    find_hole,
    find_induced_pattern,
    verify_witness,
)
from .classifiers import (
    THEOREM_IDS,
    StructureFlags,
    compute_structure_flags,
    factorize,
    is_admissible_cyclic_order,
    is_prime,
    is_prime_power,
    prime_graph_edges,
    psl2_side_numbers,
    rhs_predicate,
    sz_side_numbers,
)
from .harness import (
    AnalysisReport,
    Corpus,
    EntryRecord,
    Harness,
    VerificationReport,
    analyze_group,
    default_corpus,
    load_corpus,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
