#!/usr/bin/env python3
"""Full main experiment: pretrain, all three protocols over the config's seeds, report.

The output directory is `--out` or else the config's run.out_dir, re-rooted
under FUTUREDISTILL_OUT_ROOT when relative.
Usage: python scripts/run_main.py [--out DIR] [--config PATH]
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from futuredistill import cli  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", default=str(ROOT / "configs" / "default.ini"))
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    out_flag = ["--out", args.out] if args.out else []
    if code := cli.main(["pretrain", "--config", args.config, *out_flag]):
        return code
    cfg = cli.load_config(args.config)
    out = cli.resolve_out_dir(cfg.run.out_dir, args.out)
    for seed in cfg.run.seeds:
        ckpt = out / f"{cli.cell_stem(cfg, seed)}.ckpt"
        for protocol in ("linear_probe", "fine_tune", "supervised"):
            argv = ["finetune", "--config", args.config, "--protocol", protocol, "--seed", str(seed), *out_flag]
            if protocol != "supervised":
                argv += ["--checkpoint", str(ckpt)]
            if code := cli.main(argv):
                return code
    return cli.main(["report", "--metrics", str(out / "metrics.csv"), "--out", str(out / "report")])


if __name__ == "__main__":
    sys.exit(main())
