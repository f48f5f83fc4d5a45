"""Verification toolkit for free companions of Bass units in PSL(2,q).

Builds PSL(2,q) with its canonical Bass and bicyclic units and checks,
in exact arithmetic, the combinatorial and spectral criteria under
which a bicyclic unit is a free companion of a Bass unit based on a
dihedral p-critical element.
"""

__version__ = "0.1.0"
