"""Rewrite tests/cli_golden.json from the CLI corpus, and print the entries that changed.

    python tests/regen_cli_golden.py

A change that alters an entry lists it, with the reason, in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cli_corpus import GOLDEN, differences, run_corpus, versions  # noqa: E402


def main() -> int:
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["records"] if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as workdir:
        records = run_corpus(Path(workdir))
    changed = differences(old, records)
    for line in changed:
        print(line)
    golden = {"versions": versions(), "records": records}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.name}: {len(records)} argvs, {len(changed)} differences")
    return 0


if __name__ == "__main__":
    sys.exit(main())
