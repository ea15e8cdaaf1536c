"""fockflow: second-quantized simulation of few-particle optical circuits.

A circuit is defined in the circuit description language and run as
``parse_source`` -> ``compile_circuit`` -> ``execute``; the submodules
``algebra``, ``elements``, ``analysis`` and ``cdl`` hold the rest.
"""

__version__ = "0.1.0"

from .analysis import coincidence_table, correlation
from .cdl import compile_circuit, execute, parse_source

__all__ = [
    "__version__",
    "coincidence_table",
    "compile_circuit",
    "correlation",
    "execute",
    "parse_source",
]
