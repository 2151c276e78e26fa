"""The three benchmark workloads: seeded inputs, command chains, output checks.

A workload is a fixed chain of ``kernelbridge`` subcommands (a *pipeline*)
repeated over a pool of seeded parameter sets.  ``generate`` writes every
input file of the pool before any timing starts; ``steps`` yields the
commands of one pipeline; ``check`` judges that pipeline's outputs and
names the step each failure belongs to.  Tolerances are the ones pinned in
``tests/test_acceptance.py`` and are never looser.

The program only ever sees the generated files and the command lines; the
reference values the checks use (closed forms, point sets, matrix maxima)
are computed here, independently of the library.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KERNELS = ("gaussian", "laplacian", "cauchy")


@dataclass
class Step:
    """One CLI invocation: argv after ``kernelbridge`` and the exit code a
    correct program gives for it (3 for a planted rejection)."""

    argv: list
    expect: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class Result:
    """What one invocation returned."""

    code: int
    stdout: str
    wall: float
    rss_kb: int = 0
    cpu: float = 0.0
    stderr: str = ""

    def summary(self) -> dict:
        """The one-line JSON summary the CLI prints last on stdout."""
        lines = self.stdout.strip().splitlines()
        return json.loads(lines[-1]) if lines else {}


@dataclass
class Pipeline:
    index: int
    dir: Path
    params: dict
    inputs: Path
    #: accuracy readings the checks take on the way (reported, not gated)
    readings: dict = field(default_factory=dict)


@dataclass
class Failure:
    step: int
    message: str


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(Path(path).name.encode())
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def write_matrix(path: Path, matrix: np.ndarray) -> None:
    fmt = ",".join(["%.17g"] * matrix.shape[1])
    path.write_text("\n".join(fmt % tuple(row) for row in matrix.tolist()) + "\n")


def read_csv_columns(path: Path, skip_header: bool) -> np.ndarray:
    lines = Path(path).read_text().strip().splitlines()
    if skip_header:
        lines = lines[1:]
    return np.array([[float(c) for c in line.split(",")] for line in lines], dtype=float)


def measure_mass(data: dict) -> float:
    """Two-sided total mass of a spectral measure JSON, i.e. its k(0)."""
    atoms = sum(a["mass"] if a["loc"] == 0 else 2.0 * a["mass"] for a in data["atoms"])
    edges = np.asarray(data["density"]["edges"], dtype=float)
    values = np.asarray(data["density"]["values"], dtype=float)
    return float(atoms + 2.0 * np.sum(values * np.diff(edges)))


def closed_l1(data: dict, density) -> float:
    """L1 distance between a binned density and a closed form at bin midpoints."""
    edges = np.asarray(data["density"]["edges"], dtype=float)
    values = np.asarray(data["density"]["values"], dtype=float)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(np.abs(values - density(mids)) * np.diff(edges)))


class Workload:
    name = ""
    #: pipelines per round; timed loops stop only at round boundaries so
    #: every run mixes pipeline kinds in the same proportions
    round_len = 1
    #: pipelines with distinct seeded parameters; pipeline i uses entry i % pool
    pool = 1

    def plan(self, seed: int) -> list:
        raise NotImplementedError

    def generate(self, seed: int, inputs: Path, run_step) -> None:
        """Write every input file for the pool into ``inputs``."""
        inputs.mkdir(parents=True, exist_ok=True)
        plan = self.plan(seed)
        (inputs / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")
        self._write_inputs(seed, inputs, plan, run_step)

    def _write_inputs(self, seed, inputs, plan, run_step) -> None:
        pass

    def pipeline(self, index: int, inputs: Path, work: Path) -> Pipeline:
        plan = json.loads((inputs / "plan.json").read_text())
        params = plan[index % len(plan)]
        pdir = work / f"p{index}"
        pdir.mkdir(parents=True, exist_ok=True)
        return Pipeline(index=index, dir=pdir, params=params, inputs=inputs)

    def steps(self, p: Pipeline):
        raise NotImplementedError

    def check(self, p: Pipeline, results: list) -> list:
        raise NotImplementedError

    def cleanup(self, p: Pipeline) -> None:
        for path in p.dir.iterdir():
            path.unlink()


class SpectralChain(Workload):
    """invert -> gamma -> gamma --k0 -> screw -> synth -> bound-check --k0 on a
    seeded draw from the gaussian, laplacian and cauchy kernels."""

    name = "spectral-chain"
    pool = 12

    def plan(self, seed):
        rng = np.random.default_rng([seed, 1])
        return [{"kernel": KERNELS[int(k)]} for k in rng.integers(0, 3, self.pool)]

    def steps(self, p):
        d = p.dir
        mu, gamma, back = d / "mu.json", d / "gamma.json", d / "mu_back.json"
        yield Step(["invert", "--kernel", p.params["kernel"], "-o", str(mu)])
        k0 = repr(measure_mass(json.loads(mu.read_text())))
        yield Step(["gamma", str(mu), "-o", str(gamma)])
        yield Step(["gamma", str(gamma), "--k0", k0, "-o", str(back)])
        yield Step(["screw", str(gamma), "-o", str(d / "d2.csv")])
        yield Step(["synth", str(mu), "-o", str(d / "k.csv")])
        yield Step(["bound-check", str(gamma), "--k0", k0])

    def check(self, p, results):
        fails = []
        d = p.dir
        mu = json.loads((d / "mu.json").read_text())
        k0 = measure_mass(mu)
        scale = max(k0, 1.0)
        kernel = p.params["kernel"]
        t, synth = read_csv_columns(d / "k.csv", skip_header=True).T
        # criterion 3: closed-form pairs
        if kernel == "gaussian":
            inside = np.abs(t) <= 5.0
            err = float(np.max(np.abs(synth[inside] - np.exp(-t[inside] ** 2 / 2.0))))
            if not err <= 1e-3:
                fails.append(Failure(0, f"gaussian re-synthesis error {err!r} > 1e-3"))
        elif kernel == "laplacian":
            at0 = mu["density"]["values"][0]
            if not abs(at0 - 1.0 / np.pi) <= 1e-3:
                fails.append(Failure(0, f"laplacian density(0) {at0!r} off 1/pi by > 1e-3"))
            l1 = closed_l1(mu, lambda x: (1.0 / np.pi) / (1.0 + x ** 2))
            if not l1 <= 1e-2:
                fails.append(Failure(0, f"laplacian density L1 {l1!r} > 1e-2"))
        else:
            l1 = closed_l1(mu, lambda x: np.exp(-x))
            if not l1 <= 1e-2:
                fails.append(Failure(0, f"cauchy density L1 {l1!r} > 1e-2"))
        # gamma --k0 restores the total mass
        back = measure_mass(json.loads((d / "mu_back.json").read_text()))
        if not abs(back - k0) <= 1e-10 * scale:
            fails.append(Failure(2, f"round trip mass {back!r} != {k0!r}"))
        # criterion 4: screw(t) == 2 k(0) - 2 synth(t) on the same grid
        t2, screw = read_csv_columns(d / "d2.csv", skip_header=True).T
        k0_synth = results[4].summary().get("total_mass", float("nan"))
        gap = float(np.max(np.abs(screw - (2.0 * k0_synth - 2.0 * synth)))) \
            if t2.shape == t.shape and np.array_equal(t2, t) else float("inf")
        p.readings["identity_gap"] = gap
        if not gap <= 1e-6:
            fails.append(Failure(3, f"screw/Bochner identity gap {gap!r} > 1e-6"))
        # criterion 5: bounded, and the integral equals 4 (k(0) - atom0)
        report = results[5].summary()
        atom0 = results[1].summary().get("atom0", float("nan"))
        integral = report.get("integral")
        if report.get("ok") is not True:
            fails.append(Failure(5, f"bound-check not ok: {report}"))
        elif not (isinstance(integral, float)
                  and abs(integral - 4.0 * (k0 - atom0)) <= 1e-10 * scale):
            fails.append(Failure(5, f"integral {integral!r} != 4 (k0 - atom0) = "
                                    f"{4.0 * (k0 - atom0)!r}"))
        p.readings["inversion_residual"] = results[0].summary().get("residual")
        return fails


ZOO_METRICS = {
    # squared metrics d2(t) = 2 k(0) - 2 k(t) of the positive definite zoo
    # kernels, written out here so the generator does not use the library
    "gaussian": lambda t: 2.0 - 2.0 * np.exp(-t ** 2 / 2.0),
    "laplacian": lambda t: 2.0 - 2.0 * np.exp(-np.abs(t)),
    "cauchy": lambda t: 4.0 - 4.0 / (1.0 + t ** 2),
    # |t|^p is negative definite only for p <= 2: a planted rejection
    "planted": lambda t: np.abs(t) ** 3,
}


def squared_distances(points, metric: str) -> np.ndarray:
    points = np.asarray(points, dtype=float)
    return ZOO_METRICS[metric](points[:, None] - points[None, :])


class SampleCalculus(Workload):
    """check-nd -> nd-to-psd -> check-psd (on the centered file) -> embed on
    seeded point sets in [-20, 20] under zoo metrics or a planted |t|^3."""

    name = "sample-calculus"
    round_len = 4
    pool = 4
    #: n cycles through the sizes; one pipeline in four is the planted |t|^3
    PLAN = ((200, "cauchy"), (800, "laplacian"), (1600, "gaussian"), (200, "planted"))
    #: ``embed`` drops eigendirections below n * tol times the Gram scale, and
    #: that truncation is what its residual measures.  Criterion 2 pins the
    #: residual on samples of n <= 8 at the default tol 1e-10, a threshold of
    #: at most 8e-10; ``--tol`` keeps the threshold there at every n.
    EMBED_THRESHOLD = 8e-10

    def plan(self, seed):
        rng = np.random.default_rng([seed, 2])
        return [{"n": n, "metric": metric,
                 "points": rng.uniform(-20.0, 20.0, n).tolist()}
                for n, metric in self.PLAN]

    def _write_inputs(self, seed, inputs, plan, run_step):
        for i, entry in enumerate(plan):
            write_matrix(inputs / f"d2_{i}.csv",
                         squared_distances(entry["points"], entry["metric"]))

    def pipeline(self, index, inputs, work):
        p = super().pipeline(index, inputs, work)
        p.params = dict(p.params, source=str(inputs / f"d2_{index % self.pool}.csv"))
        return p

    def steps(self, p):
        source, d = p.params["source"], p.dir
        planted = p.params["metric"] == "planted"
        yield Step(["check-nd", source])
        yield Step(["nd-to-psd", source, "-o", str(d / "centered.csv")])
        yield Step(["check-psd", str(d / "centered.csv")])
        tol = repr(self.EMBED_THRESHOLD / p.params["n"])
        yield Step(["embed", source, "--tol", tol, "-o", str(d / "coords.csv")],
                   expect=3 if planted else 0)

    def check(self, p, results):
        fails = []
        n = p.params["n"]
        hilbertian = p.params["metric"] != "planted"
        nd = results[0].summary()
        psd = results[2].summary()
        # criterion 1: both verdicts match the planted kind, hence each other
        for step, key, verdict in ((0, "nd", nd), (2, "psd", psd)):
            if verdict.get(key) is not hilbertian:
                fails.append(Failure(step, f"{key} verdict {verdict.get(key)!r}, "
                                           f"expected {hilbertian}"))
            elif len(verdict.get("witness_vector", ())) != n:
                fails.append(Failure(step, f"{key} witness has the wrong length"))
        out = results[3].summary()
        matrix = squared_distances(p.params["points"], p.params["metric"])
        if hilbertian:
            # criterion 2: residual <= 1e-8 * max entry on zoo metrics
            bound = 1e-8 * float(np.max(matrix))
            residual = out.get("residual")
            if not (isinstance(residual, float) and residual <= bound):
                fails.append(Failure(3, f"embedding residual {residual!r} > {bound!r}"))
            rows = (p.dir / "coords.csv").read_bytes().count(b"\n")
            if rows != n:
                fails.append(Failure(3, f"coordinates file has {rows} rows, expected {n}"))
        else:
            # criterion 2: the rejection carries a witness c orthogonal to the
            # all-ones vector with c^T D c equal to the positive eigenvalue
            witness = np.asarray(out.get("witness_vector", []), dtype=float)
            value = out.get("witness_eigenvalue")
            if out.get("error") != "NotHilbertian" or witness.shape != (n,) \
                    or not isinstance(value, float) or not value > 0:
                fails.append(Failure(3, f"rejection without a valid witness: "
                                        f"{str(out)[:200]}"))
            else:
                form = float(witness @ matrix @ witness)
                if abs(float(np.sum(witness))) > 1e-8 * math.sqrt(n) \
                        or abs(form - value) > 1e-8 * max(abs(value), float(np.max(matrix))):
                    fails.append(Failure(3, f"witness form {form!r} != eigenvalue {value!r}"))
        return fails


class FeatureMap(Workload):
    """rff --pairs on a 1-d measure, rff --pairs on its d=3 product, and
    product-synth on the same pairs, with a fresh seed and m=4096."""

    name = "feature-map"
    pool = 12
    M = 4096
    PAIRS = 500

    def __init__(self):
        #: sample-file digest of every (file kind, kernel, m, seed) seen in this run
        self.sample_digests = {}

    def plan(self, seed):
        rng = np.random.default_rng([seed, 3])
        return [{"kernel": KERNELS[i % 3], "rff_seed": int(rng.integers(0, 2 ** 31))}
                for i in range(self.pool)]

    def _write_inputs(self, seed, inputs, plan, run_step):
        rng = np.random.default_rng([seed, 4])
        for i in range(self.pool):
            write_matrix(inputs / f"pairs1_{i}.csv", rng.uniform(-3.0, 3.0, (self.PAIRS, 2)))
            write_matrix(inputs / f"pairs3_{i}.csv", rng.uniform(-3.0, 3.0, (self.PAIRS, 6)))
        for kernel in KERNELS:
            mu = inputs / f"mu_{kernel}.json"
            result = run_step(Step(["invert", "--kernel", kernel, "-o", str(mu)]))
            if result.code != 0:
                raise RuntimeError(f"set-up inversion of {kernel} exited {result.code}")
            factor = json.loads(mu.read_text())
            (inputs / f"prod_{kernel}.json").write_text(
                json.dumps({"factors": [factor] * 3}) + "\n")

    def steps(self, p):
        d, i, kernel = p.dir, p.index % self.pool, p.params["kernel"]
        seed = str(p.params["rff_seed"])
        inputs = p.inputs
        yield Step(["rff", str(inputs / f"mu_{kernel}.json"), "-m", str(self.M),
                    "--seed", seed, "--pairs", str(inputs / f"pairs1_{i}.csv"),
                    "--errors-out", str(d / "errors1.csv"), "-o", str(d / "sample1.json")])
        yield Step(["rff", str(inputs / f"prod_{kernel}.json"), "-m", str(self.M),
                    "--seed", seed, "--pairs", str(inputs / f"pairs3_{i}.csv"),
                    "--errors-out", str(d / "errors3.csv"), "-o", str(d / "sample3.json")])
        yield Step(["product-synth", str(inputs / f"prod_{kernel}.json"),
                    "--pairs", str(inputs / f"pairs3_{i}.csv"), "-o", str(d / "values.csv")])

    def hoeffding(self, k0: float) -> float:
        """Deviation no pair exceeds except with probability 1e-9 in all.

        Each feature product 2 k0 cos(w.x + b) cos(w.y + b) lies in
        [-2 k0, 2 k0]; Hoeffding for the mean of m of them, union-bounded
        over the pairs.
        """
        return 4.0 * k0 * math.sqrt(math.log(2.0 * self.PAIRS / 1e-9) / (2.0 * self.M))

    def check(self, p, results):
        fails = []
        d, kernel = p.dir, p.params["kernel"]
        for step, tag in ((0, "1"), (1, "3")):
            out = results[step].summary()
            errors = read_csv_columns(d / f"errors{tag}.csv", skip_header=True)
            worst = out.get("max_abs_error")
            bound = self.hoeffding(float(out.get("total_mass", float("nan"))))
            if out.get("m") != self.M or out.get("seed") != p.params["rff_seed"]:
                fails.append(Failure(step, f"rff summary names the wrong sample: {out}"))
            if errors.shape != (self.PAIRS, 3) or not np.max(errors[:, 2]) == worst:
                fails.append(Failure(step, "errors file disagrees with max_abs_error"))
            if not (isinstance(worst, float) and worst <= bound):
                fails.append(Failure(step, f"rff max_abs_error {worst!r} > Hoeffding "
                                           f"bound {bound!r}"))
            p.readings.setdefault("rff_max_abs_error", []).append(worst)
            # criterion 9: a repeated (measure, m, seed) gives identical bytes
            key = (tag, kernel, self.M, p.params["rff_seed"])
            sample = digest([d / f"sample{tag}.json"])
            if self.sample_digests.setdefault(key, sample) != sample:
                fails.append(Failure(step, "repeated (measure, m, seed) changed the sample file"))
        values = read_csv_columns(d / "values.csv", skip_header=False).ravel()
        exact = read_csv_columns(d / "errors3.csv", skip_header=True)[:, 0]
        if values.shape != exact.shape or not np.array_equal(values, exact):
            fails.append(Failure(2, "product-synth disagrees with the rff exact column"))
        elif kernel == "gaussian":
            # criterion 8: separable gaussian on R^3 within 3e-3
            pairs = read_csv_columns(p.inputs / f"pairs3_{p.index % self.pool}.csv", False)
            truth = np.exp(-np.sum((pairs[:, :3] - pairs[:, 3:]) ** 2, axis=1) / 2.0)
            err = float(np.max(np.abs(values - truth)))
            if not err <= 3e-3:
                fails.append(Failure(2, f"d=3 gaussian product error {err!r} > 3e-3"))
        return fails


WORKLOADS = {w.name: w for w in (SpectralChain, SampleCalculus, FeatureMap)}
