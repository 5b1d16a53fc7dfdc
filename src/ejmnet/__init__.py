"""Quantum correlations of two-qubit joint measurements on singlet networks.

The package simulates the outcome statistics of chains and rings of
singlets whose parties all apply a four-outcome joint measurement (the
elegant joint measurement, its z-anchored form, the Massar-Popescu basis
or the Bell-state measurement), recovers the exact dyadic probabilities
behind the floats where the floats certify them, and probes how close
classical network-local hidden-variable models can come to the quantum
statistics.

Import each name from the submodule that defines it; only ``belllp`` and
``verify`` need scipy.
"""

__version__ = "0.1.0"
