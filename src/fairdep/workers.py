"""Where the commands' worker processes fork, and how many CPUs they may use.

Both validate's fold pool (`cli`) and the CSV loader's range readers
(`data`) read these, so the two never disagree on either.
"""

import os
import sys

# macOS system frameworks are not fork-safe and Windows has no fork
FORKS = sys.platform.startswith("linux")


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1
