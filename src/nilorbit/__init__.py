"""Exact orbit classification and point counting over prime fields."""

__version__ = "0.1.0"

from .partitions import (  # noqa: F401
    Bipartition,
    Partition,
    a_stat,
    ah_leq,
    as_bipartition,
    as_partition,
    dominance_leq,
    enumerate_bipartitions,
    enumerate_partitions,
    hasse_relations,
    irr_dim,
    m_stat,
    n_stat,
    orbit_dim,
    partition_sum,
    syt_count,
)
from .gfmat import (  # noqa: F401
    BudgetExceededError,
    PrimeField,
    Subspace,
    induced_maps,
    jordan_matrix,
    random_invertible,
)
from .pairs import (  # noqa: F401
    EnhancedPair,
    MixedInvariant,
    NonSplitError,
    census,
    class_polynomial,
    classify,
    commutant,
    mixed_invariant,
    mixed_orbit_size,
    orbit_representative,
    orbit_size,
    stab_dim,
)
from .counting import (  # noqa: F401
    CountSeries,
    gaussian_factorial,
)
from .flags import (  # noqa: F401
    FlagCondition,
    count_fiber,
    galois_degree_check,
    slice_count,
    springer_report,
)
from .symplectic import (  # noqa: F401
    SignedPermutation,
    SymplecticSpace,
    exotic_fiber_count,
    exotic_orbit_size,
    exotic_slice_count,
    iotheta_set,
    isotropic_flags,
    root_identity_check,
    signed_permutations,
)
