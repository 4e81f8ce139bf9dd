"""Time one CLI-style set-up: import the pipeline and load a config.

    python3 perfbench/setup_probe.py <src dir> <config path>

Prints the elapsed seconds.  Input generation is not part of it; the
config must already exist.
"""

import sys
import time


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from defectcast.pipeline import load_config

    load_config(sys.argv[2])
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
