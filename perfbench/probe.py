"""Set-up probe: import repro, set one workload up, print ``ready``.

``run.py`` starts this script in a fresh interpreter and times the span
from starting the process to reading its ``ready`` line, so ``setup_s``
covers interpreter start, ``import repro`` and the workload's set-up
(server start, document compile).  The probe samples the host's speed
while it sets up (see ``speed.py``) and prints, after ``ready``, the
seconds its pieces took and the scale they give.  Usage::

    python3 perfbench/probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path
from time import perf_counter

from speed import Sampler


def main() -> int:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    with Sampler() as sampler:
        start = perf_counter()
        import repro  # noqa: F401  (timed: part of set-up)
        from workloads import make_workload

        workload = make_workload(name, root, seed, workdir)
        with workload.session():
            end = perf_counter()
            print(f"ready {sampler.lost(start, end)!r} {sampler.scale(start, end)!r}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
