"""Command-line surface: chambers, models, configurations, verification.

Every subcommand can emit canonical JSON (sorted keys, rationals as
"p/q" strings) so that runs with the same inputs produce byte-identical
payloads; wall-clock timings live in a separate report block that
consumers are expected to ignore when comparing.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .ballmodels import iemb_model
from .chambers import (
    AdmissibilityError,
    chamber_signature,
    enumerate_chambers,
    label_from_signature,
)
from .confgeom import ProjectivePoint, collinear_triples, cross_ratio, stratum
from .dga import cohomology_ranks, cohomology_representatives, complete_through_cap, dga_to_json
from .kriz import KrizParams, kriz_model
from .lattice import Capacities, H2Element
from .verify import SUITES, report_json, run_suites

_FORMATS = ("json", "csv", "text")
_BOUNDARIES = ("strict", "inclusive")
_INT_RE = re.compile(r"\s*[+-]?[0-9]+\s*", re.ASCII)


@dataclass
class RunConfig:
    """File-loadable defaults; command-line flags override these."""

    degree_cap: Optional[int] = None
    weights: Optional[str] = None
    boundary_convention: str = "strict"
    output: Optional[str] = None
    format: str = "json"

    def __post_init__(self):
        cap = self.degree_cap
        if cap is not None and (type(cap) is not int or cap < 2):
            raise ValueError(f"degree_cap must be an integer of at least 2, got {cap!r}")
        for key in ("weights", "output"):
            value = getattr(self, key)
            if value is not None and not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {value!r}")
        if self.boundary_convention not in _BOUNDARIES:
            raise ValueError(f"boundary_convention must be one of {_BOUNDARIES}")
        if self.format not in _FORMATS:
            raise ValueError(f"format must be one of {_FORMATS}")

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError(f"config {path} must hold a JSON object, got {data!r}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def parse_weights(text: str) -> list[tuple[int, int]]:
    """Parse "a,b;a,b;..." into weight pairs; empty text means none.

    An entry is ASCII digits with an optional sign: int() alone would also
    read "1_0" as 10, and the digits of other scripts."""
    text = text.strip()
    if not text:
        return []
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2 or not all(map(_INT_RE.fullmatch, parts)):
            raise ValueError(
                f"weight pair must be 'a,b' with integers a and b, got {chunk!r}"
            )
        pairs.append((int(parts[0]), int(parts[1])))
    return pairs


def canonical_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(payload: dict, text_lines: list[str], args, cfg: RunConfig) -> None:
    """Print JSON or text per the effective format; optionally write JSON."""
    out = args.out or cfg.output
    blob = canonical_json(payload)
    if out:
        Path(out).write_text(blob)
    fmt = "json" if args.json else cfg.format
    if fmt == "json":
        sys.stdout.write(blob)
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# Subcommand handlers

def _cmd_chamber_classify(args, cfg) -> int:
    caps = Capacities.parse(args.capacities)
    payload: dict = {
        "n": caps.n,
        "capacities": [str(v) for v in sorted(caps, reverse=True)],
    }
    lines = []
    try:
        sig = chamber_signature(caps)
    except AdmissibilityError as exc:
        violator = exc.violator
        payload["admissible"] = False
        payload["violator"] = (
            violator.to_text() if isinstance(violator, H2Element) else str(violator)
        )
        lines.append(f"inadmissible: violates {payload['violator']}")
    else:
        payload["admissible"] = True
        payload["bits"] = sig.bit_string()
        payload["signature"] = sig.to_json_list()
        label = label_from_signature(caps.n, sig)
        if label is None:
            lines.append(f"bits={payload['bits']} (no label table at n={caps.n})")
        else:
            payload["label"] = label
            lines.append(f"chamber {label}  bits={payload['bits']}")
    _emit(payload, lines, args, cfg)
    return 0


def _cmd_chamber_enumerate(args, cfg) -> int:
    boundary = args.boundary or cfg.boundary_convention
    records = enumerate_chambers(args.n, boundary)
    payload = {
        "n": args.n,
        "boundary": boundary,
        "count": len(records),
        "chambers": [r.to_json_dict() for r in records],
    }
    lines = [f"{len(records)} chambers at n={args.n} ({boundary} boundary)"]
    lines += [
        f"  {r.to_json_dict()['bits']}  {r.label or '-'}  witness "
        + ",".join(r.witness.to_json_list())
        for r in records
    ]
    _emit(payload, lines, args, cfg)
    return 0


def _degree_cap(args, cfg) -> Optional[int]:
    """--cap if given, else the config's degree_cap; both must be at least 2."""
    if args.cap is None:
        return cfg.degree_cap
    if args.cap < 2:
        raise ValueError(f"--cap must be at least 2, got {args.cap}")
    return args.cap


def _resolve_model(args, cfg):
    weights_text = args.weights if args.weights is not None else cfg.weights
    w = parse_weights(weights_text) if weights_text is not None else None
    return iemb_model(args.n, args.chamber, w, degree_cap=_degree_cap(args, cfg))


def _cmd_model_build(args, cfg) -> int:
    D = _resolve_model(args, cfg)
    payload = {
        "n": args.n,
        "chamber": args.chamber,
        "model": dga_to_json(D),
    }
    table = D.table
    lines = [
        "generators: "
        + ", ".join(f"{n} (deg {d})" for n, d in zip(table.names, table.degrees)),
        "relations: "
        + ("; ".join(r.to_text() for r in D.algebra.relations) or "none"),
    ]
    lines += [f"d({name}) = {value.to_text()}" for name, value in sorted(D.values.items())]
    _emit(payload, lines, args, cfg)
    return 0


def _cmd_model_cohomology(args, cfg) -> int:
    D = _resolve_model(args, cfg)
    report, representatives = cohomology_representatives(D)
    payload = {
        "n": args.n,
        "chamber": args.chamber,
        "cohomology": report.to_json_dict(representatives),
        "rank_list": report.rank_list(),
    }
    fmt = "json" if args.json else cfg.format
    if fmt == "csv":
        lines = ["degree,rank"] + [
            f"{q},{r}" for q, r in enumerate(report.rank_list())
        ]
    else:
        lines = [f"ranks through degree {D.degree_cap}: {report.rank_list()}"]
    _emit(payload, lines, args, cfg)
    return 0


def _cmd_kriz(args, cfg) -> int:
    D = kriz_model(KrizParams(args.m, args.k), degree_cap=_degree_cap(args, cfg))
    report = cohomology_ranks(D)
    # a chi summed through a cap that cuts classes off would be wrong: print null
    complete = complete_through_cap(D)
    payload = {
        "m": args.m,
        "k": args.k,
        "degree_cap": D.degree_cap,
        "ranks": report.rank_list(),
        "complete": complete,
        "euler_characteristic": report.euler_characteristic() if complete else None,
    }
    lines = [f"ranks through degree {D.degree_cap}: {report.rank_list()}"]
    _emit(payload, lines, args, cfg)
    return 0


def _cmd_conf_stratify(args, cfg) -> int:
    points = [ProjectivePoint.parse(p) for p in args.points.split(",")]
    label = stratum(points)
    payload = {
        "points": [p.to_text() for p in points],
        "stratum": label,
        "collinear_triples": [list(t) for t in collinear_triples(points)],
    }
    lines = [f"stratum {label}"]
    if len(points) == 4 and label == "F_1234":
        ratio = cross_ratio(points)
        payload["cross_ratio"] = str(ratio)
        lines.append(f"cross ratio {ratio}")
    _emit(payload, lines, args, cfg)
    return 0


def _cmd_verify(args, cfg) -> int:
    reports = run_suites(args.suite)
    payload = report_json(reports)
    # with --json, stdout carries the canonical payload alone
    log = sys.stderr if args.json else sys.stdout
    for r in reports:
        for c in r.checks:
            mark = "pass" if c.passed else "FAIL"
            print(f"[{mark}] {r.suite}: {c.name}", file=log)
            if not c.passed:
                print(f"       expected {c.expected}", file=log)
                print(f"       computed {c.computed}", file=log)
    total = sum(len(r.checks) for r in reports)
    good = sum(1 for r in reports for c in r.checks if c.passed)
    print(f"{good}/{total} checks passed", file=log)
    out = args.out or cfg.output
    if out:
        Path(out).write_text(canonical_json(payload))
    if args.json:
        sys.stdout.write(canonical_json(payload))
    return 0 if payload["pass"] else 1


# ---------------------------------------------------------------------------
# Parser assembly

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="print canonical JSON")
    common.add_argument("--out", help="write the JSON payload to this path")
    common.add_argument("--config", help="JSON file with run defaults")

    parser = argparse.ArgumentParser(
        prog="cpstrata",
        description=(
            "Exact stability chambers for ball packings of the projective "
            "plane and rational cohomology of the associated embedding spaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chamber = sub.add_parser("chamber", help="admissible capacities and chambers")
    chsub = chamber.add_subparsers(dest="subcommand", required=True)
    classify = chsub.add_parser(
        "classify", parents=[common], help="classify one capacity vector"
    )
    classify.add_argument(
        "--capacities", required=True, help="comma list of rationals, e.g. 1/2,1/3"
    )
    classify.set_defaults(handler=_cmd_chamber_classify)
    enum = chsub.add_parser(
        "enumerate", parents=[common], help="enumerate chambers at fixed n"
    )
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--boundary", choices=_BOUNDARIES, default=None)
    enum.set_defaults(handler=_cmd_chamber_enumerate)

    model = sub.add_parser("model", help="embedding-space models per chamber")
    msub = model.add_subparsers(dest="subcommand", required=True)
    for name, handler in (
        ("build", _cmd_model_build),
        ("cohomology", _cmd_model_cohomology),
    ):
        p = msub.add_parser(name, parents=[common])
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--chamber", required=True, help="e.g. C_2, big, small, unique")
        p.add_argument(
            "--weights", default=None, help="circle weights 'a,b;a,b;...'"
        )
        p.add_argument("--cap", type=int, default=None, help="degree cap")
        p.set_defaults(handler=handler)

    kz = sub.add_parser(
        "kriz", parents=[common], help="configuration-space model ranks"
    )
    kz.add_argument("--m", type=int, required=True, help="complex dimension")
    kz.add_argument("--k", type=int, required=True, help="number of points")
    kz.add_argument("--cap", type=int, default=None, help="degree cap")
    kz.set_defaults(handler=_cmd_kriz)

    conf = sub.add_parser("conf", help="point configurations in the plane")
    csub = conf.add_subparsers(dest="subcommand", required=True)
    strat = csub.add_parser(
        "stratify", parents=[common], help="stratum of 3 or 4 points"
    )
    strat.add_argument(
        "--points", required=True, help="comma list of points 'z0:z1:z2,...'"
    )
    strat.set_defaults(handler=_cmd_conf_stratify)

    ver = sub.add_parser("verify", parents=[common], help="run a named check suite")
    ver.add_argument("suite", choices=sorted(SUITES) + ["all"])
    ver.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        return args.handler(args, cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
