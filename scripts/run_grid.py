#!/usr/bin/env python3
"""An ablation grid (`ablate` over the config's [grid] section), then the aggregated report.

Resumable: completed cells are skipped on re-run. The output directory is
`--out` or else the config's run.out_dir, re-rooted under
FUTUREDISTILL_OUT_ROOT when relative.
Usage: python scripts/run_grid.py --config configs/table1_grid.ini [--out DIR]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from futuredistill import cli  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    argv = ["ablate", "--config", args.config] + (["--out", args.out] if args.out else [])
    code = cli.main(argv)
    if code not in (cli.EXIT_OK, cli.EXIT_PARTIAL):
        return code
    out = cli.resolve_out_dir(cli.load_config(args.config).run.out_dir, args.out)
    report = cli.main(["report", "--metrics", str(out / "metrics.csv"), "--out", str(out / "report")])
    return code or report


if __name__ == "__main__":
    sys.exit(main())
