"""One set-up of an ammgame run: interpreter start, imports and config load.

``run.py`` starts this script several times per run and times each start to
exit from outside; the median is ``setup_s``.

    python3 perfbench/setup_probe.py CONFIG_FILE SEED
"""

import os
import sys

from paths import SRC, use_single_thread_blas

use_single_thread_blas()
sys.path.insert(0, str(SRC))

from ammgame import cli  # noqa: E402  (import is what is being timed)

cfg = cli.load_config(sys.argv[1], [f"seed={int(sys.argv[2])}"])
if cfg.seed != int(sys.argv[2]):
    sys.exit(1)
os._exit(0)
