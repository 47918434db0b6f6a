"""Old import paths of the batch entry points, kept for ``perfbench``."""

from repro.sweep.batch import run_batch  # re-exported
from repro.sweep.outputs import BatchResult  # re-exported
