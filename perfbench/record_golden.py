"""Record golden digests of the catalogue reports into golden_catalogue.json.

    python3 perfbench/record_golden.py

Run it at the commit whose reports are the reference. Each digest covers the
exit code and the stdout bytes of one (fixture, command, format) op; the
catalogue workload counts an op whose digest differs as an error.
"""

import json
import sys

from worker import ROOT, invoke
from workloads import GOLDEN, catalogue_commands, digest


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from hopfgal.cli import main as hopfgal

    golden = {key: digest(*invoke(hopfgal, args)) for key, args in catalogue_commands(ROOT)}
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
