"""Performance layer: shared memoized program artifacts and executor knobs.

:class:`ProgramIndex` materializes per-method analysis artifacts (CFGs,
def-use chains, statement reachability, mention sites, the global field
read/write index) once per analysis and shares them between both taint
directions, the :class:`~repro.slicing.slicer.NetworkSlicer` and the
:class:`~repro.signature.builder.SignatureInterpreter`.

:mod:`repro.perf.parallel` holds the worker/executor knobs the batch
engines size themselves with and the ordered thread map ``repro eval``
fans out across apps with.
"""

from .index import ProgramIndex, field_key
from .parallel import resolve_workers, run_map

__all__ = ["ProgramIndex", "field_key", "resolve_workers", "run_map"]
