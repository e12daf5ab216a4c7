"""Start the benchmark's span recorder or profiler in a program process.

The benchmark puts this directory on ``PYTHONPATH`` only for its traced
and profiled passes, so that the processes the program starts itself
(``repro campaign`` workers, ``repro serve`` and its pool) are traced or
profiled too.  It does nothing unless ``PERFBENCH_MODE`` is set.
"""

import os

if os.environ.get("PERFBENCH_MODE"):
    import pb_spans

    pb_spans.install()
