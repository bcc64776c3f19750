"""Time one benchmark set-up in a fresh interpreter.

Usage: python3 setup_probe.py [--profile] SRC_DIR POTENTIAL_JSON...

Set-up is ``import limitper.cli`` plus building every potential the workload
uses, exactly as the CLI builds them.  Prints one JSON object: ``setup_s`` and,
with --profile, ``self_s``, the cProfile self time of each limitper module.
"""

import sys
import time


def main(argv):
    profile = argv[:1] == ["--profile"]
    src, descriptors = argv[profile], argv[profile + 1 :]
    sys.path.insert(0, src)
    prof = None
    if profile:
        import cProfile

        prof = cProfile.Profile()
        prof.enable()
    t0 = time.perf_counter()
    import limitper.cli as cli

    for text in descriptors:
        cli.build_potential(text, 0)
    setup_s = time.perf_counter() - t0
    if prof:
        prof.disable()
    import json
    import os
    import pstats

    out = {"setup_s": setup_s, "limitper": os.path.dirname(cli.__file__)}
    if prof:
        self_s = {}
        for (filename, _, _), (_, _, tottime, _, _) in pstats.Stats(prof).stats.items():
            if os.path.dirname(filename) == out["limitper"]:
                module = os.path.splitext(os.path.basename(filename))[0]
                self_s[module] = self_s.get(module, 0.0) + tottime
        out["self_s"] = self_s
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
