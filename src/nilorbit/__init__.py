"""Exact orbit classification and point counting over prime fields.

The modules are the API: import names from `nilorbit.pairs`,
`nilorbit.flags`, `nilorbit.symplectic` and the rest, as README lists them.
"""

__version__ = "0.1.0"
