"""Command-line front end: sweep, cool, verify.

Exit codes: 0 success, 1 verification failure, 2 bad flags or configuration,
3 flat sweep curve, 4 restart cap exceeded.  RC_SEED in the environment
overrides --seed; a --config file supplies key=value defaults that explicit
flags override.  Output files are written atomically, so a failed run never
leaves a partial file behind.
"""
from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .acceptance import render_results, run_checks
from .cooling import RestartCapExceeded, render_report, run_algorithm
from .hamiltonian import AlgorithmConfig, write_atomic
from .models import from_registry, ground_truth
from .sweep import FlatCurve, SweepConfig, render_csv, scan


def _load_config_file(path: str) -> dict[str, str]:
    """key=value lines; '#' starts a comment; keys use underscores."""
    values: dict[str, str] = {}
    with open(path, encoding="ascii") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}: expected key=value, got {raw.strip()!r}")
            key, val = line.split("=", 1)
            values[key.strip()] = val.strip()
    return values


def _effective(args, key: str, cast, default):
    """Explicit flag beats config-file value beats built-in default."""
    val = getattr(args, key)
    if val is not None:
        return val
    config_values = getattr(args, "config_values", {})
    if key in config_values:
        return cast(config_values[key])
    return default


def _as_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"bad boolean {text!r}")


def _resolve_seed(args) -> int:
    env = os.environ.get("RC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"RC_SEED={env!r} is not an integer") from exc
    return int(_effective(args, "seed", int, 0))


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo_text, hi_text = text.split(":")
        return float(lo_text), float(hi_text)
    except ValueError as exc:
        raise ValueError(f"bad range {text!r}, expected lo:hi") from exc


def _parse_init(text: str, n_qubits: int) -> np.ndarray:
    """Bitstring basis state, or file:<path> with one "re,im" line per amplitude."""
    dim = 2**n_qubits
    if text.startswith("file:"):
        path = text[5:]
        amps = []
        with open(path, encoding="ascii") as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                try:
                    re_text, im_text = line.split(",")
                    amps.append(complex(float(re_text), float(im_text)))
                except ValueError as exc:
                    raise ValueError(f"{path}: bad amplitude line {line!r}") from exc
        vec = np.asarray(amps, dtype=complex)
        if vec.size != dim:
            raise ValueError(f"{path}: {vec.size} amplitudes for a {dim}-dim system")
        norm = float(np.linalg.norm(vec))
        if not 1e-12 <= norm < float("inf"):
            raise ValueError(f"{path}: state norm {norm} is zero or not finite")
        return vec / norm
    if len(text) != n_qubits or any(b not in "01" for b in text):
        raise ValueError(f"init {text!r} is not a {n_qubits}-bit string")
    vec = np.zeros(dim, dtype=complex)
    vec[int(text, 2)] = 1.0
    return vec


def _write_text(path: str | None, body: str) -> None:
    if path is None:
        sys.stdout.write(body)
    else:
        write_atomic(path, body)


def cmd_sweep(args) -> int:
    model_name = _effective(args, "model", str, None)
    if model_name is None:
        print("error: --model is required", file=sys.stderr)
        return 2
    model = from_registry(model_name)
    init_text = _effective(args, "init", str, "0" * model.n_qubits)
    phi0 = _parse_init(init_text, model.n_qubits)
    lo, hi = _parse_range(_effective(args, "range", str, "0.8:1.2"))
    config = SweepConfig(
        eps_min=lo,
        eps_max=hi,
        points=int(_effective(args, "points", int, 100)),
        shots=int(_effective(args, "shots", int, 0)),
        coupling=float(_effective(args, "c", float, 0.05)),
        tau=_effective(args, "tau", float, None),
        seed=_resolve_seed(args),
    )
    result = scan(model, config, phi0)
    _write_text(_effective(args, "out", str, None), render_csv(result))
    print(
        f"peak epsilon0={result.peak_epsilon:.12g} estimated E1={result.estimated_e1:.12g}",
        file=sys.stderr,
    )
    print(f"refined peak epsilon0={result.refined_peak:.12g}", file=sys.stderr)
    return 0


def cmd_cool(args) -> int:
    model_name = _effective(args, "model", str, None)
    if model_name is None:
        print("error: --model is required", file=sys.stderr)
        return 2
    model = from_registry(model_name)
    init_text = _effective(args, "init", str, "0" * model.n_qubits)
    phi0 = _parse_init(init_text, model.n_qubits)
    epsilon0 = _effective(args, "epsilon0", float, None)
    if epsilon0 is None:
        if not _effective(args, "auto_epsilon", _as_bool, False):
            print("error: give --epsilon0 or --auto-epsilon", file=sys.stderr)
            return 2
        e1, _, _ = ground_truth(model)
        epsilon0 = e1 + 1.0
    config = AlgorithmConfig(
        epsilon0=float(epsilon0),
        coupling=float(_effective(args, "c", float, 0.05)),
        tau=_effective(args, "tau", float, None),
        trotter_steps=int(_effective(args, "trotter_steps", int, 0)),
        max_iterations=int(_effective(args, "iters", int, 1)),
        seed=_resolve_seed(args),
        mode=str(_effective(args, "mode", str, "post-selected")),
        restart_cap=int(_effective(args, "restart_cap", int, 1000)),
    )
    report = run_algorithm(model, config, phi0)
    _write_text(_effective(args, "out", str, None), render_report(report))
    if _effective(args, "target_known", _as_bool, False):
        if report.records:
            final_fid = report.records[-1].fidelity_to_target
        else:
            final_fid = report.initial_fidelity
        print(f"final fidelity={final_fid:.12g}", file=sys.stderr)
    return 0


def cmd_verify(args) -> int:
    results = run_checks(only=args.only, tolerance_scale=args.tolerance_scale)
    if not results:
        print(f"error: no checks match --only {args.only!r}", file=sys.stderr)
        return 2
    sys.stdout.write(render_results(results))
    return 0 if all(r.passed for r in results) else 1


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", help="model name: aklt<N>, diag:<levels>, file:<path>")
    sub.add_argument(
        "--init", help="initial system state: bitstring or file:<path> (default all zeros)"
    )
    sub.add_argument("--c", type=float, help="coupling strength (default 0.05)")
    sub.add_argument("--tau", type=float, help="evolution time (default pi/(2c))")
    sub.add_argument("--seed", type=int, help="RNG seed (default 0; RC_SEED overrides)")
    sub.add_argument("--out", help="output file, written atomically (default stdout)")
    sub.add_argument(
        "--config",
        help="key=value defaults file (keys are long flag names with underscores)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rescool",
        description="Ground-state cooling by resonant ancilla transitions: "
        "sweep the reference eigenvalue, run the cooling loop, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep_parser = sub.add_parser("sweep", help="scan epsilon0 and locate the excitation peak")
    _add_model_flags(sweep_parser)
    sweep_parser.add_argument("--range", help="scan range lo:hi (default 0.8:1.2)")
    sweep_parser.add_argument("--points", type=int, help="grid size (default 100)")
    sweep_parser.add_argument("--shots", type=int, help="shots per point, 0 = exact (default 0)")
    sweep_parser.set_defaults(func=cmd_sweep)

    cool_parser = sub.add_parser("cool", help="run the iterative cooling loop")
    _add_model_flags(cool_parser)
    cool_parser.add_argument("--epsilon0", type=float, help="reference eigenvalue")
    cool_parser.add_argument(
        "--auto-epsilon",
        dest="auto_epsilon",
        action="store_true",
        default=None,
        help="set epsilon0 = E1 + 1 from exact diagonalization",
    )
    cool_parser.add_argument("--iters", type=int, help="excited outcomes to collect (default 1)")
    cool_parser.add_argument(
        "--mode", choices=("stochastic", "post-selected"), help="measurement mode"
    )
    cool_parser.add_argument(
        "--trotter-steps", dest="trotter_steps", type=int, help="Trotter steps, 0 = exact"
    )
    cool_parser.add_argument(
        "--restart-cap", dest="restart_cap", type=int, help="stochastic restart budget"
    )
    cool_parser.add_argument(
        "--target-known",
        dest="target_known",
        action="store_true",
        default=None,
        help="print the final fidelity to the exact ground state",
    )
    cool_parser.set_defaults(func=cmd_cool)

    verify_parser = sub.add_parser("verify", help="run the built-in verification suite")
    verify_parser.add_argument(
        "--only", default="", help="run only checks whose name contains this substring"
    )
    verify_parser.add_argument(
        "--tolerance-scale",
        dest="tolerance_scale",
        type=float,
        default=1.0,
        help="multiply every tolerance (0.1 tightens tenfold)",
    )
    verify_parser.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "config", None):
            args.config_values = _load_config_file(args.config)
        return args.func(args)
    except FlatCurve as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RestartCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
