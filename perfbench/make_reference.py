"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Run it from the repository root only when a change is meant to alter the
capacities or the Hardy quotient; the checks exist to catch changes that
alter them by accident. Writes perfbench/reference.json for both sizes.
"""

import json
import sys
import tempfile

from worker import HERE, import_snowcap


def main() -> int:
    import_snowcap()
    from workloads import SIZES, WORKLOADS, Ledger

    ref = {}
    for size in SIZES:
        ref[size] = {}
        for name in ("sweep-cantor", "koch-field-hardy"):
            with tempfile.TemporaryDirectory(dir=".") as scratch:
                wl = WORKLOADS[name](size, 0, scratch)
                ref[size][name] = wl.reference_values(wl.run(Ledger(), keep=True))
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
