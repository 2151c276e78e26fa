"""Span recording around the calls between kernelbridge layers.

Nothing under ``src/`` is edited: at run time the module attributes
through which the layers call each other are replaced by timing wrappers,
and restored afterwards.  A span records its name, layer, start, end,
parent and pipeline id; spans stay in memory and are written out when the
run ends.  A span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time

import numpy as np

LAYERS = ("cli", "io", "profiles", "gram", "measures", "spectral", "product", "features")


class Span:
    __slots__ = ("id", "name", "layer", "parent", "pipeline", "start", "end",
                 "child_ns", "attrs")

    def __init__(self, id, name, layer, parent, pipeline, start):
        self.id, self.name, self.layer = id, name, layer
        self.parent, self.pipeline, self.start = parent, pipeline, start
        self.end = start
        self.child_ns = 0
        self.attrs = None

    @property
    def dur_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.dur_ns - self.child_ns

    def to_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "layer": self.layer,
                "parent": self.parent.id if self.parent else None,
                "pipeline": self.pipeline, "start_ns": self.start, "end_ns": self.end,
                "attrs": self.attrs}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pipeline = None
        self._stack: list[Span] = []
        self._saved: list = []

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, layer, parent, self.pipeline, 0)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter_ns()
        return span

    def _close(self, span):
        span.end = time.perf_counter_ns()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_ns += span.dur_ns

    def wrap(self, name, layer, fn, attrs=None):
        """A wrapper of ``fn`` that records one span per call.

        ``attrs(args, result)`` runs after the span closes and may attach
        sizes (matrix order, point count, file bytes) to it.
        """
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = open_(name, layer)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                close(span)
                if attrs is not None:
                    span.attrs = attrs(args, result)
        return wrapper

    @contextlib.contextmanager
    def root(self, pipeline_id):
        """Record the span of one whole pipeline around the block."""
        self.pipeline = pipeline_id
        span = self._open("pipeline", "pipeline")
        try:
            yield span
        finally:
            self._close(span)
            self.pipeline = None

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def install(self, kb) -> None:
        """Replace the cross-layer call points of the package ``kb``."""
        cli, io, gram, spectral = kb.cli, kb.io, kb.gram, kb.spectral
        product, features, measures, profiles = kb.product, kb.features, kb.measures, kb.profiles
        w = self.wrap
        for name in ("read_matrix_csv", "write_matrix_csv", "read_points_csv",
                     "write_points_csv", "read_profile_csv", "write_profile_csv",
                     "read_json", "write_json", "dumps_json"):
            self._patch(io, name, w(f"io.{name}", "io", getattr(io, name), IO_ATTRS.get(name)))
        for layer, module, names in (
                ("gram", gram, ("build_gram", "euclidean_embedding", "is_negative_definite",
                                "is_positive_definite", "nd_to_psd")),
                ("spectral", spectral, ("atom_at_zero", "bochner_inversion",
                                        "bochner_synthesis", "gamma_from_spectral",
                                        "int_bound_integral", "screw_synthesis",
                                        "spectral_from_gamma")),
                ("product", product, ("product_synthesis",)),
                ("features", features, ("approximate_kernel", "sample_frequencies",
                                        "sample_product_frequencies"))):
            for name in names:
                attrs = _matrix_order if layer == "gram" and name != "build_gram" else None
                self._patch(cli, name, w(f"{layer}.{name}", layer, getattr(module, name), attrs))
        # calls made inside a layer that the issue asks to see
        self._patch(spectral, "atom_at_zero",
                    w("spectral.atom_at_zero", "spectral", spectral.atom_at_zero))
        self._patch(spectral, "bochner_synthesis",
                    w("spectral.bochner_synthesis", "spectral", spectral.bochner_synthesis))
        self._patch(gram, "is_negative_definite",
                    w("gram.is_negative_definite", "gram", gram.is_negative_definite,
                      _matrix_order))
        self._patch(product, "bochner_synthesis",
                    w("spectral.bochner_synthesis", "spectral", product.bochner_synthesis))
        for cls in (measures.SpectralMeasure, measures.GammaMeasure):
            kind = {"kind": cls.__name__}
            self._patch(cls, "from_dict", classmethod(
                w("measures.from_dict", "measures", cls.from_dict.__func__,
                  lambda args, result, kind=kind: kind)))
            self._patch(cls, "to_dict", w("measures.to_dict", "measures", cls.to_dict,
                                          _bins_of(kind)))
        self._patch(product.ProductSpectralMeasure, "from_dict", classmethod(
            w("product.from_dict", "product",
              product.ProductSpectralMeasure.from_dict.__func__)))
        self._patch(profiles.KernelProfile, "__call__",
                    w("profiles.kernel_eval", "profiles", profiles.KernelProfile.__call__,
                      lambda args, result: {"points": int(np.size(args[1]))}))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


_MISSING = object()


def _matrix_order(args, result):
    entries = getattr(args[0], "entries", args[0])
    return {"n": int(np.shape(entries)[0])}


def _bins_of(kind):
    def attrs(args, result):
        bins = len(result["density"]["values"]) if result else None
        return dict(kind, bins=bins)
    return attrs


def _file_attrs(path, shape=None):
    out = {"file": os.path.basename(str(path))}
    if shape is not None:
        out["shape"] = list(shape)
    return out


IO_ATTRS = {
    "read_matrix_csv": lambda args, result: _file_attrs(
        args[0], None if result is None else result.shape),
    "write_matrix_csv": lambda args, result: dict(
        _file_attrs(args[0], np.shape(np.atleast_2d(args[1]))),
        bytes=os.path.getsize(args[0]) if os.path.exists(args[0]) else None),
    "read_json": lambda args, result: _file_attrs(args[0]),
    "write_json": lambda args, result: dict(
        _file_attrs(args[0]),
        bytes=os.path.getsize(args[0]) if os.path.exists(args[0]) else None),
}
