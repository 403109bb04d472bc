"""Communication-signal analytics over e-mail archives.

Pipeline: ingest mail into a canonical event stream, build windowed
interaction graphs, compute six signal metrics per organizational unit
(structure, dynamics, content), and calibrate them against a performance
variable with nested OLS models.
"""

# the betweenness kernel behind `graph`: orgsignals._betweenness_py
KERNEL_BACKEND = "numpy"

__version__ = "0.1.0"

__all__ = ["KERNEL_BACKEND", "__version__"]
