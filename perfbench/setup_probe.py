"""Set-up probe: one fresh interpreter from `import balint` to an expanded grid.

    python3 setup_probe.py <src dir> <config path> <overrides as JSON>

Applies the overrides to the loaded config the way `balint simulate` applies
its flags, and prints one JSON object with each phase's time in seconds. The
caller times the whole process, interpreter start-up included.
"""

import json
import sys
import time

t0 = time.perf_counter()
src, config, overrides = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, src)
from balint import cli, harness  # noqa: E402

t1 = time.perf_counter()
doc = cli.load_config(config)
t2 = time.perf_counter()
doc.update(overrides)
cfg = cli.parse_grid_config(doc)
t3 = time.perf_counter()
cells = harness.expand_grid(cfg)
t4 = time.perf_counter()
print(
    json.dumps(
        {
            "import_s": t1 - t0,
            "cli.load_config_s": t2 - t1,
            "cli.parse_grid_config_s": t3 - t2,
            "harness.expand_grid_s": t4 - t3,
            "cells": len(cells),
        }
    )
)
