"""Streaming entropy extraction and coherent entanglement concentration.

A three-integer reversible state machine extracts perfectly random bits
from biased i.i.d. streams at the entropy rate, matching the optimal
whole-block extraction at every prefix length.  The same walk, run on the
two-row Young lattice behind a qubit-coupling transform, concentrates
streams of identical partially entangled pairs into perfect EPR pairs
without knowing the input state.  Brute-force oracles, symbolic balance
checks, and sparse state simulators verify every desk-scale claim.

Each module is its own API, listed in the README's layout table: import a
name from its module (``from eliastream.extractor import run``).
"""

__version__ = "0.1.0"
