"""Certified coloring toolkit for {P3 u P2, gem}-free graphs."""

__version__ = "0.1.0"

from .coloring import (
    CertificationError,
    ClassViolationError,
    ColoringTrace,
    color_two_omega,
    greedy_coloring,
    verify_proper,
)
from .exact import (
    ChiResult,
    CliqueResult,
    SizeGuardError,
    chromatic_number,
    max_clique,
)
from .generators import (
    ExpansionSpec,
    SamplingError,
    complete_expansion,
    groetzsch_graph,
    mycielskian,
    named_graph,
    random_class_member,
    schlafli_complement,
)
from .graphs import (
    Coloring,
    Graph,
    GraphError,
    bits,
    build_graph,
    complement,
    disjoint_union,
    join,
    mask_of,
)
from .partition import WBCPartition, build_partition, run_all_checks
from .patterns import (
    PatternError,
    PatternWitness,
    find_induced,
    is_class_member,
    is_p3_free,
    is_p4_free,
    pattern,
)
