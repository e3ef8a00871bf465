"""Automatic complexity of finite words, with certificates and metrics.

The complexity of a word is the least number of states of a finite automaton
that singles the word out among all words of its length, under one of several
acceptance disciplines (unique accepting walk, exact language slice,
deterministic variants, and conditional versions relative to a second word).
Every computed value ships with a machine-checkable witness certificate, and
four similarity metrics are built on the conditional values.
"""

from .automata import (
    CapacityError,
    CountResult,
    Nfa,
    WitnessCertificate,
    accepts_word,
    certificate_from_json,
    certificate_to_dot,
    certificate_to_json,
    count_accepted_words,
    count_accepting_walks,
    count_walks_given_projection,
    count_words_given_projection,
    is_deterministic,
    is_total,
    product_project,
    product_track,
    to_dot,
    verify_certificate,
    walk_nfa,
)
from .cache import ResultCache
from .complexity import (
    Budget,
    BudgetExceeded,
    ComplexityQuery,
    ComplexityResult,
    SparseWitnessReport,
    all_witness_sequences,
    compute,
    emergent_simplicity,
    max_complexity,
    search_emergent,
    sparse_witness_report,
    value_at_most,
    witness_at,
)
from .kinds import (
    KIND_ALIASES,
    KIND_COND_EXACT,
    KIND_COND_UNIQUE,
    KIND_DET_PARTIAL,
    KIND_DET_TOTAL,
    KIND_EXACT,
    KIND_UNIQUE,
    KINDS,
)
from .metrics import (
    ComplexityProvider,
    DistributionRow,
    MetricKind,
    MetricReport,
    classify_unit_distance,
    distribution_table,
    expected_unit_distance_pairs,
    format_table,
    is_unit_j_distance,
    metric_value,
    sample_distribution,
    verify_metric,
)
from .oracle import oracle_min_states
from .words import (
    ParseError,
    Partition,
    TrackWord,
    Word,
    contains_kth_power,
    cyclic_shifts,
    fractional_power,
    induced_partition,
    is_permutation_word,
    is_primitive,
    is_slow,
    power,
    project,
    refines,
    slow_normalize,
    slow_words,
    track,
)

__version__ = "0.1.0"
