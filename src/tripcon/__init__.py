"""tripcon: output-sensitive enumeration of rooted triplet conflicts.

Given two rooted binary phylogenetic trees on the same n taxa, list all
d triples of taxa on which the trees disagree, in O(n + d) time.  A
cubic brute-force oracle, instrumented work counters, tree generators,
and a CLI make both the answer and the running-time claim checkable.
"""

from .errors import (
    DuplicateLabelError,
    EmptySubsetError,
    EmptyTreeError,
    NewickSyntaxError,
    NonBinaryError,
    TaxonMismatchError,
    TripconError,
    UnorderedInputError,
)
from .tree import TaxonSet, Tree, build_tree, is_ancestor
from .newick import parse_newick, serialize_newick
from .lca import LcaIndex, build_lca_index
from .restrict import induced_subtree
from .equivalence import LeafEquivalence, build_leaf_equivalence, leafsets_equal
from .oracle import (
    enumerate_bruteforce,
    triple_resolutions,
    triplet_distance,
)
from .enumeration import (
    Instrumentation,
    active_backend,
    count_conflicts,
    enumerate_conflicts,
    list_common_root_conflicts,
    list_subtree_conflicts,
    partition_leaves,
)
from .generator import (
    GeneratorConfig,
    SplitMix64,
    caterpillar_tree,
    enumerate_labeled_topologies,
    generate_pair,
    perturb_leaf_swaps,
    random_binary_tree,
)

__version__ = "0.1.0"

__all__ = [
    "TripconError",
    "NonBinaryError",
    "DuplicateLabelError",
    "EmptyTreeError",
    "NewickSyntaxError",
    "TaxonMismatchError",
    "EmptySubsetError",
    "UnorderedInputError",
    "TaxonSet",
    "Tree",
    "build_tree",
    "is_ancestor",
    "parse_newick",
    "serialize_newick",
    "LcaIndex",
    "build_lca_index",
    "induced_subtree",
    "LeafEquivalence",
    "build_leaf_equivalence",
    "leafsets_equal",
    "triple_resolutions",
    "enumerate_bruteforce",
    "triplet_distance",
    "Instrumentation",
    "partition_leaves",
    "list_common_root_conflicts",
    "list_subtree_conflicts",
    "enumerate_conflicts",
    "count_conflicts",
    "active_backend",
    "GeneratorConfig",
    "SplitMix64",
    "random_binary_tree",
    "caterpillar_tree",
    "perturb_leaf_swaps",
    "generate_pair",
    "enumerate_labeled_topologies",
    "__version__",
]
