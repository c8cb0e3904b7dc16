"""Exact-arithmetic audit toolkit for the weight-descent induction.

Modules:
  numeric  - exact rational constants and directed-rounded enclosures
  primes   - segmented sieve and consecutive-prime iteration
  descent  - the reduction recipe, reference table, chains and audit
  gaps     - ratio certificates, Chebyshev threshold, quotient grid
  charconj - cyclotomics, class functions, induction and Galois conjugation
  cli      - every audit as a subcommand

Importing the package imports none of them; import the module you use.
"""

__version__ = "0.1.0"
