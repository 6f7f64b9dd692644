"""Index coding toolkit: instances, linear schemes, feasibility, bounds, oracles.

The API is the public names of the submodules ``model``, ``galois``,
``scheme``, ``alignment``, ``unicast``, ``bounds``, ``symmetric``, ``oracle``
and ``errors``, imported from those modules (``from icx.scheme import
verify``).  ``import icx`` loads none of them.
"""
