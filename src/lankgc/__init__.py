"""Inductive knowledge-graph embedding via attention-weighted neighborhood aggregation.

Entities unseen during training are embedded on the fly from the facts
that mention them, so link prediction and triplet classification extend
to a growing graph without retraining.  See the README for the pipeline
walkthrough: corpus -> unseen-entity bundle -> mined rules -> training
-> evaluation.

Importing the package fixes two process-wide settings, so that the same
work takes the same time from one run to the next:

- BLAS runs on one thread unless the caller sets ``OPENBLAS_NUM_THREADS``,
  ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``.  The matmuls here are
  small and sit between memory-bound numpy steps; between calls an idle
  OpenBLAS worker spins, and when it shares a core with the main thread
  it halves the main thread's speed.  This only takes effect when the
  package is imported before numpy, since OpenBLAS reads its settings
  once, when numpy loads it.
- glibc's malloc keeps arrays up to 32 MB on the heap and keeps up to
  64 MB of freed heap.  By default it raises both limits as large
  blocks come and go, so whether a batch's arrays are reused or faulted
  in afresh from the OS depended on what ran before; a batch's tape
  then took half again as long.  The fixed limits are the highest its
  own heuristic would reach.  Other C libraries are left alone.
"""

import ctypes
import os

if not any(v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _fix_malloc_limits():
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # not a glibc-style libc
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


_fix_malloc_limits()

__version__ = "0.1.0"
