"""Exact-arithmetic audit toolkit for the weight-descent induction.

Modules:
  numeric  - exact rational constants and directed-rounded enclosures
  primes   - segmented sieve and consecutive-prime iteration
  descent  - the reduction recipe, reference table and descent graph
  gaps     - ratio certificates, Chebyshev threshold, quotient grid
  charconj - cyclotomics, class functions, induction and Galois conjugation
  cli      - every audit as a subcommand
"""

from . import charconj, descent, gaps, numeric, primes
from .descent import (
    BASE_WEIGHTS,
    DescentError,
    DescentGraph,
    InadmissibleM,
    ReductionStep,
    audit,
    build_graph,
    chain,
    choose_t,
    reduction_step,
    reference_table,
    select_prime,
    verify_termination,
)
from .gaps import (
    X0,
    GapReport,
    ThresholdResult,
    chebyshev_threshold,
    m_bound_check,
    star_inequality_check,
    verify_ratio,
    verify_shifted_ratio,
)
from .numeric import (
    CHEBYSHEV_A,
    CHEBYSHEV_B,
    RATIO_BOUND,
    SHIFTED_RATIO_BOUND,
    RealEnclosure,
    pow_enclosure,
)
from .primes import PrimeTable, consecutive_pairs, next_prime, sieve

__version__ = "0.1.0"
