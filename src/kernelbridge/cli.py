"""Batch command-line front end.

Every subcommand is a thin adapter over the library: files in, files out,
one JSON summary line on stdout.  Exit codes: 0 success, 2 validation
problem (bad flags, bad files, non-finite evaluations), 3 mathematical
rejection (NotPositiveDefinite, UnboundedMetric, NotHilbertian) with a
machine-readable JSON diagnostic on stdout.
"""

from __future__ import annotations

import argparse
import gc
import sys

import numpy as np

from . import io
from .exceptions import KernelBridgeError, MathematicalRejection
from .features import approximate_kernel, sample_frequencies, sample_product_frequencies
from .gram import (DEFAULT_TOL, build_gram, euclidean_embedding, is_negative_definite,
                   is_positive_definite, nd_to_psd)
from .measures import GammaMeasure, SpectralMeasure, _in_range, _numbers, check_elements
from .product import ProductSpectralMeasure, product_synthesis
from .profiles import (PROBE_GRID_SIZE, PROBE_GRID_SPAN, metric_from_kernel,
                       profile_from_samples, zoo, zoo_names)
# atom_at_zero is unused here, but bench/tracing.py times it through this module's name
from .spectral import (InversionConfig, _estimate_zero_atom, atom_at_zero,
                       bochner_inversion, bochner_synthesis, bound_report,
                       gamma_from_spectral, int_bound_integral, screw_synthesis,
                       spectral_from_gamma)

DEFAULT_GRID = (-PROBE_GRID_SPAN, PROBE_GRID_SPAN, PROBE_GRID_SIZE)


def _emit(data: dict) -> None:
    print(io.dumps_json(data))


def _grid(args) -> np.ndarray:
    lo, hi, n = args.grid
    if not (np.isfinite([lo, hi, hi - lo, n]).all() and hi > lo and n >= 2 and n == int(n)):
        raise ValueError("--grid needs finite MIN < MAX, a finite MAX - MIN and an "
                         "integer N >= 2")
    check_elements(n, "--grid N")
    return np.linspace(lo, hi, int(n))


def _add_grid(parser) -> None:
    parser.add_argument("--grid", nargs=3, type=float, metavar=("MIN", "MAX", "N"),
                        default=list(DEFAULT_GRID),
                        help="evaluation grid (default: %g %g %d)" % DEFAULT_GRID)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every string ``float`` accepts as a value.

    argparse's own test for a negative number takes -1000 and -.5 but not
    -1e3, which it reads as an unknown option, so ``--grid -1e3 1e3 5``
    found no MIN.
    """

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def _add_kernel_source(parser, required: bool = True) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--kernel", help=f"named profile, one of {zoo_names()}")
    group.add_argument("--profile", help="JSON descriptor file {name, params}")
    group.add_argument("--samples", help="CSV file of t,value samples (t >= 0)")
    parser.add_argument("--params", default=None,
                        help="JSON object of parameters for --kernel")


def _named_kernel(name, params):
    """``zoo(name, **params)`` for a name and params read from JSON.

    params must be an object (``zoo`` checks its values); other shapes are
    a ValueError, not a TypeError from inside ``zoo``.
    """
    if not isinstance(name, str):
        raise ValueError(f"kernel name must be a string, got {name!r}")
    if not isinstance(params, dict):
        raise ValueError(f"kernel params must be a JSON object of finite numbers, "
                         f"got {params!r}")
    return zoo(name, **params)


def _load_kernel(args):
    if args.kernel is not None:
        return _named_kernel(args.kernel,
                             io.parse_json(args.params, "--params") if args.params else {})
    if args.profile is not None:
        descriptor = io.read_json(args.profile)
        if not isinstance(descriptor, dict):
            raise ValueError("--profile must hold a JSON object {name, params}")
        return _named_kernel(descriptor.get("name"), descriptor.get("params", {}))
    t, values = io.read_profile_csv(args.samples)
    return profile_from_samples(t, values)


def _readings(record, *payload: str) -> dict:
    """A result record's fields in their order, less its payload fields:
    the readings its summary line carries after the first key."""
    return {name: value for name, value in vars(record).items() if name not in payload}


def cmd_zoo(args) -> int:
    if args.action == "list":
        _emit({"kernels": [zoo(name).descriptor() for name in zoo_names()]})
        return 0
    if args.output is None:
        raise ValueError("zoo sample requires -o/--output")
    if args.kernel is None and args.profile is None and args.samples is None:
        raise ValueError("zoo sample requires a kernel source")
    kernel = _load_kernel(args)
    grid = _grid(args)
    io.write_profile_csv(args.output, grid, kernel(grid))
    _emit({"written": args.output, "kernel": kernel.descriptor()})
    return 0


def cmd_gram(args) -> int:
    kernel = _load_kernel(args)
    points = io.read_points_csv(args.points)
    gram = build_gram(kernel, points)
    io.write_matrix_csv(args.output, gram.entries)
    _emit({"written": args.output, "n": gram.n})
    return 0


def cmd_check_psd(args) -> int:
    matrix = io.read_matrix_csv(args.matrix)
    verdict = is_positive_definite(matrix, tol=args.tol)
    _emit({"psd": verdict.verdict, **_readings(verdict)})
    return 0


def cmd_check_nd(args) -> int:
    matrix = io.read_matrix_csv(args.matrix)
    verdict = is_negative_definite(matrix, tol=args.tol)
    _emit({"nd": verdict.verdict, **_readings(verdict)})
    return 0


def cmd_nd_to_psd(args) -> int:
    matrix = io.read_matrix_csv(args.matrix)
    io.write_matrix_csv(args.output, nd_to_psd(matrix, base_index=args.base_index))
    _emit({"written": args.output, "base_index": args.base_index})
    return 0


def cmd_embed(args) -> int:
    matrix = io.read_matrix_csv(args.matrix)
    result = euclidean_embedding(matrix, tol=args.tol)
    io.write_matrix_csv(args.output, result.coordinates)
    _emit({"written": args.output, **_readings(result, "coordinates")})
    return 0


def cmd_to_metric(args) -> int:
    kernel = _load_kernel(args)
    metric = metric_from_kernel(kernel)
    grid = _grid(args)
    io.write_profile_csv(args.output, grid, metric(grid))
    _emit({"written": args.output})
    return 0


def cmd_invert(args) -> int:
    kernel = _load_kernel(args)
    config = InversionConfig(t_max=args.t_max, n_samples=args.n_samples,
                             n_bins=args.bins, freq_max=args.freq_max,
                             atom_window=args.window, atom_step=args.step)
    result = bochner_inversion(kernel, config)
    io.write_json(args.output, result.measure.to_dict())
    _emit({"written": args.output, **_readings(result, "measure", "config")})
    return 0


def cmd_synth(args) -> int:
    measure = SpectralMeasure.from_dict(io.read_json(args.measure))
    grid = _grid(args)
    io.write_profile_csv(args.output, grid, bochner_synthesis(measure, grid))
    _emit({"written": args.output, "total_mass": measure.total_mass()})
    return 0


def cmd_screw(args) -> int:
    gamma = GammaMeasure.from_dict(io.read_json(args.gamma))
    grid = _grid(args)
    io.write_profile_csv(args.output, grid, screw_synthesis(gamma, grid),
                         header="t,d2")
    _emit({"written": args.output})
    return 0


def cmd_gamma(args) -> int:
    data = io.read_json(args.measure)
    if args.k0 is None:
        measure = SpectralMeasure.from_dict(data)
        gamma, atom0 = gamma_from_spectral(measure)
        io.write_json(args.output, gamma.to_dict())
        # the exact identity int s^-2 dgamma = 4 (mu(R) - mu{0}), as computed; two
        # sides past the float range agree (inf - inf would read nan)
        integral, four_mass = int_bound_integral(gamma), 4.0 * (measure.total_mass() - atom0)
        gap = 0.0 if integral == four_mass else abs(integral - four_mass)
        _emit({"written": args.output, "atom0": atom0, "identity_gap": gap})
    else:
        gamma = GammaMeasure.from_dict(data)
        measure = spectral_from_gamma(gamma, k0=args.k0)
        io.write_json(args.output, measure.to_dict())
        margin = bound_report(int_bound_integral(gamma), args.k0)["margin"]
        _emit({"written": args.output, "atom0": measure.zero_atom, "margin": margin})
    return 0


def cmd_bound_check(args) -> int:
    gamma = GammaMeasure.from_dict(io.read_json(args.gamma))
    _emit(bound_report(int_bound_integral(gamma), args.k0))
    return 0


def cmd_atom0(args) -> int:
    atom0, gap = _estimate_zero_atom(_load_kernel(args), args.window, args.step)
    _emit({"atom0": atom0, "window": args.window, "atom_window_gap": gap})
    return 0


def _read_pairs(path, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The x and y halves of a --pairs CSV of finite rows x_1..x_d,y_1..y_d, and x - y."""
    pairs = _numbers(io.read_matrix_csv(path), "--pairs entries")
    if pairs.shape[1] != 2 * d:
        raise ValueError(f"--pairs rows must have {2 * d} columns (x then y)")
    xs, ys = pairs[:, :d], pairs[:, d:]
    return xs, ys, _in_range(lambda: xs - ys, "a --pairs lag x - y")


def cmd_rff(args) -> int:
    data = io.read_json(args.measure)
    if isinstance(data, dict) and "factors" in data:
        product = ProductSpectralMeasure.from_dict(data)
        sample = sample_product_frequencies(product, m=args.m, seed=args.seed)
    else:
        measure = SpectralMeasure.from_dict(data)
        sample = sample_frequencies(measure, m=args.m, seed=args.seed)
        product = ProductSpectralMeasure(factors=(measure,))
    summary = {"written": args.output, "m": sample.m, "seed": sample.seed,
               "total_mass": sample.total_mass}
    if args.pairs:  # evaluated first: a rejected pair leaves no sample file
        xs, ys, lags = _read_pairs(args.pairs, sample.dim)
        exacts = product_synthesis(product, lags)
        approxs = approximate_kernel(sample, xs, ys)
        errors = np.abs(approxs - exacts)
        io.write_matrix_csv(args.errors_out, np.column_stack((exacts, approxs, errors)),
                            header="exact,approx,abs_error")
        summary["errors_written"] = args.errors_out
        summary["max_abs_error"] = float(errors.max())
    io.write_json(args.output, sample.to_dict())
    _emit(summary)
    return 0


def cmd_product_synth(args) -> int:
    measure = ProductSpectralMeasure.from_dict(io.read_json(args.measure))
    _, _, lags = _read_pairs(args.pairs, measure.dim)
    values = product_synthesis(measure, lags)
    io.write_points_csv(args.output, values)
    _emit({"written": args.output, "n": len(values)})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kernelbridge",
        description="Transforms between translation-invariant kernels, "
                    "Hilbertian metrics, and spectral measures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zoo", help="list named kernels or sample one to CSV")
    p.add_argument("action", choices=["list", "sample"])
    _add_kernel_source(p, required=False)  # zoo list takes none
    _add_grid(p)
    p.add_argument("-o", "--output", help="output CSV (required for sample)")
    p.set_defaults(func=cmd_zoo)

    p = sub.add_parser("gram", help="points CSV + profile -> Gram matrix CSV")
    p.add_argument("--points", required=True)
    _add_kernel_source(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("check-psd", help="matrix CSV -> PSD verdict JSON")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_check_psd)

    p = sub.add_parser("check-nd", help="matrix CSV -> ND verdict JSON")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(func=cmd_check_nd)

    p = sub.add_parser("nd-to-psd", help="center a candidate ND matrix")
    p.add_argument("matrix")
    p.add_argument("--base-index", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_nd_to_psd)

    p = sub.add_parser("embed", help="squared-distance matrix -> coordinates CSV")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("to-metric", help="kernel profile -> squared-metric CSV")
    _add_kernel_source(p)
    _add_grid(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_to_metric)

    inversion = InversionConfig()
    p = sub.add_parser("invert", help="kernel profile -> spectral measure JSON")
    _add_kernel_source(p)
    p.add_argument("--t-max", type=float, default=inversion.t_max)
    p.add_argument("--n-samples", type=int, default=inversion.n_samples)
    p.add_argument("--bins", type=int, default=inversion.n_bins)
    p.add_argument("--freq-max", type=float, default=inversion.freq_max)
    p.add_argument("--window", type=float, default=inversion.atom_window,
                   help="zero-atom estimation window T")
    p.add_argument("--step", type=float, default=inversion.atom_step)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("synth", help="spectral measure JSON -> kernel CSV")
    p.add_argument("measure")
    _add_grid(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("screw", help="gamma measure JSON -> squared-metric CSV")
    p.add_argument("gamma")
    _add_grid(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_screw)

    p = sub.add_parser("gamma",
                       help="measure JSON -> gamma JSON (inverse with --k0)")
    p.add_argument("measure")
    p.add_argument("--k0", type=float, default=None,
                   help="invert: treat input as gamma, produce a measure with k(0)=K0")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gamma)

    p = sub.add_parser("bound-check", help="gamma JSON + k0 -> boundedness report")
    p.add_argument("gamma")
    p.add_argument("--k0", type=float, required=True)
    p.set_defaults(func=cmd_bound_check)

    p = sub.add_parser("atom0", help="kernel profile -> zero-frequency mass estimate")
    _add_kernel_source(p)
    p.add_argument("--window", type=float, default=inversion.atom_window)
    p.add_argument("--step", type=float, default=inversion.atom_step)
    p.set_defaults(func=cmd_atom0)

    p = sub.add_parser("rff", help="measure JSON -> frequency sample JSON")
    p.add_argument("measure")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", default=None,
                   help="CSV of x,y rows; emits an approximation-error CSV")
    p.add_argument("--errors-out", default="rff_errors.csv")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_rff)

    p = sub.add_parser("product-synth",
                       help="factored measure JSON + vector pairs -> values CSV")
    p.add_argument("measure")
    p.add_argument("--pairs", required=True,
                   help="CSV rows x_1..x_d,y_1..y_d")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_product_synth)

    return parser


def main(argv=None) -> int:
    """Run one command; ``argv=None`` reads sys.argv and marks the process entry.

    At the process entry the interpreter exits right after, so ``gc.freeze``
    moves every object out of the collector's reach: its final full
    collections then have nothing to traverse (~20 ms of teardown over the
    objects numpy and kernelbridge hold).  Callers passing ``argv`` keep
    their collector as it was.
    """
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MathematicalRejection as exc:
        print(io.dumps_json(exc.diagnostic()))
        return 3
    except (KernelBridgeError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    raise SystemExit(main())
