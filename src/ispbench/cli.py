"""Command-line harness.

Examples::

    ispbench --stage gamut --synth 128x96:noise:1 --variants RI,RIW,RIWB+U6 \
             --reps 3 --format text
    ispbench --stage pipeline --synth 768x512:noise:1
    ispbench --mode dataflow --clock virtual --channel-depth 64 --format json

Exit status is 0 when every requested variant (or the dataflow output)
passed the equivalence gate, 1 when one failed it, and 2 for a malformed
flag, image or parameter file.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import HarnessConfig, run_matrix
from .kernels import STAGE_NAMES
from .report import emit_report


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="ispbench",
        description="ISP pipeline optimization workbench: run kernel variants, "
        "profile the pipeline, and exercise the channel dataflow mode.",
    )
    src = p.add_mutually_exclusive_group()
    src.add_argument("--image", metavar="PATH", help="input image (binary PPM, re-mosaicked)")
    src.add_argument(
        "--synth",
        metavar="WxH:kind[:arg]",
        default="768x512:noise:1",
        help="synthetic mosaic, kinds: noise:SEED | gradient | constant:V | color:R,G,B",
    )
    p.add_argument("--params", metavar="PATH", help="JSON parameter file")
    p.add_argument(
        "--n-points", type=int, default=3611, help="control points for generated parameters"
    )
    p.add_argument("--stage", choices=[*STAGE_NAMES, "pipeline"], default="pipeline")
    p.add_argument(
        "--variants",
        metavar="LIST",
        help="comma-separated variant labels such as RI,RIWC_64,RIWB+U6, where C_<kb> sizes"
        " the constant cache in KB, 16 unsized (default: the named set per stage)",
    )
    p.add_argument("--reps", type=int, default=10, help="timing repetitions (default 10)")
    p.add_argument("--mode", choices=["sequential", "dataflow"], default="sequential")
    p.add_argument("--clock", choices=["wall", "virtual"], default="wall")
    p.add_argument(
        "--channel-depth",
        type=int,
        default=64,
        help="pixels per dataflow channel (default 64); the wall clock holds ceil(depth / width)"
        " rows, the virtual clock simulates single pixels",
    )
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = HarnessConfig(
            image_path=args.image,
            synth_spec=args.synth,
            params_path=args.params,
            n_points=args.n_points,
            stage=args.stage,
            variants=[v for v in (args.variants or "").split(",") if v] or [],
            reps=args.reps,
            mode=args.mode,
            clock=args.clock,
            channel_depth=args.channel_depth,
            out_format=args.format,
        )
        report = run_matrix(cfg)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = emit_report(report, cfg.out_format)
    if args.out:
        Path(args.out).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
