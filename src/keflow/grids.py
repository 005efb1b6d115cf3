"""Structured grids holding metric tensors and 2-forms, plus stencil helpers.

Grids are uniform per axis. Tensor components live in the trailing array
dimensions; the leading dimensions enumerate nodes. Derivative helpers use
second-order central stencils and mark the boundary layer with NaN instead
of falling back to one-sided differences, so every consumer works on a
shrunken interior and no silent first-order contamination occurs.

A Killing direction is an axis of one node: along it every stencil
returns exact zeros and `interior` strips no margin. Any other axis of a
grid needs MIN_NODES_PER_AXIS nodes.

Grid artifacts (metric and 2-form grids here, leaf specs and profiles in
`leafpde`) store every node array through one codec: an axis along which
the array equals its first slice bit for bit is written once and
broadcast back on load, so a round trip is bit-exact. Loading rebuilds
the full shape and validates it there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import GridError

SCHEMA_VERSION = 2

# Node count below which a margin-2 stencil leaves no interior at all.
MIN_NODES_PER_AXIS = 5


@dataclass(frozen=True)
class Axis:
    """A uniformly spaced coordinate axis."""

    name: str
    start: float
    step: float
    count: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.start) or not np.isfinite(self.step):
            raise GridError(f"axis {self.name!r}: non-finite start or step")
        if self.step <= 0.0:
            raise GridError(f"axis {self.name!r}: step must be positive")
        # second differences divide by step^2
        if not np.finfo(float).tiny <= self.step * self.step < np.inf:
            raise GridError(f"axis {self.name!r}: step {self.step:.6g} "
                            f"squared is not a normal float")
        if self.count < 1:
            raise GridError(f"axis {self.name!r}: need at least 1 node")

    @property
    def nodes(self) -> np.ndarray:
        return self.start + self.step * np.arange(self.count)

    @property
    def stop(self) -> float:
        return self.start + self.step * (self.count - 1)

    def to_dict(self) -> dict:
        return {"name": self.name, "min": self.start, "step": self.step,
                "count": self.count}

    @classmethod
    def from_dict(cls, d: dict) -> "Axis":
        axis = cls(name=d["name"], start=float(d["min"]), step=float(d["step"]),
                   count=int(d["count"]))
        unknown = sorted(d.keys() - {"name", "min", "step", "count"})
        if unknown:
            raise GridError(
                f"unknown axis key(s) {', '.join(map(repr, unknown))}")
        return axis


def det(m: np.ndarray) -> np.ndarray:
    """Determinants of the trailing square matrices of m; 2x2 in closed
    form, since batched LAPACK costs more per matrix than the arithmetic."""
    if m.shape[-1] == 2:
        return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    return np.linalg.det(m)


def constant_axes(arr: np.ndarray, naxes: int) -> tuple[int, ...]:
    """The first `naxes` axes along which arr is exactly constant.

    The test is exact equality with the first slice, never a tolerance
    (signed zeros compare equal, NaN never does).
    """
    return tuple(m for m in range(naxes)
                 if np.all(arr == arr.take([0], axis=m)))


def collapse_constant(arr: np.ndarray, naxes: int):
    """(constant_axes(arr, naxes), arr with each of them cut to its first
    slice): the distinct values of arr, one per node off those axes."""
    const = constant_axes(arr, naxes)
    return const, arr[tuple(slice(0, 1) if m in const else slice(None)
                            for m in range(naxes))]


def encode_array(arr: np.ndarray, naxes: int) -> dict:
    """Artifact form of a node array: each of its first `naxes` axes on
    which it is constant bit for bit (0.0 and -0.0 differ here) is
    collapsed to its first slice."""
    bits = np.asarray(arr, dtype=np.float64).view(np.int64)
    const, core = collapse_constant(bits, naxes)
    return {"constant_axes": list(const),
            "values": core.view(np.float64).ravel().tolist()}


def decode_array(doc: dict, key: str, shape: tuple[int, ...],
                 naxes: int) -> np.ndarray:
    """Inverse of encode_array for doc[key]: the full-shape array, equal at
    every node to the one encoded. Malformed entries raise GridError."""
    entry = doc.get(key)
    if not isinstance(entry, dict) or entry.keys() != {"constant_axes",
                                                       "values"}:
        raise GridError(f"{key!r}: missing or not an encoded array")
    const = entry["constant_axes"]
    if (not isinstance(const, list)
            or not all(isinstance(m, int) and 0 <= m < naxes for m in const)
            or len(set(const)) != len(const)):
        raise GridError(f"{key!r}: constant_axes {const!r} must be distinct "
                        f"node axes below {naxes}")
    stored = tuple(1 if m in const else n for m, n in enumerate(shape))
    try:
        values = np.asarray(entry["values"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise GridError(f"{key!r}: values are not numbers: {exc}") from None
    if values.shape != (int(np.prod(stored)),):
        raise GridError(f"{key!r}: {values.size} values for stored shape "
                        f"{stored}")
    if not np.all(np.isfinite(values)):
        raise GridError(f"{key!r}: non-finite values")
    return np.broadcast_to(values.reshape(stored), shape).copy()


def dump_artifact(kind: str, axes, arrays: dict, **fields) -> str:
    """Text of a grid artifact: schema, kind, axes, each of `arrays`
    through encode_array, and the `fields` that are not None; keys sorted."""
    doc = {"schema": SCHEMA_VERSION, "kind": kind,
           "axes": [ax.to_dict() for ax in axes]}
    doc.update((key, encode_array(arr, len(axes)))
               for key, arr in arrays.items())
    doc.update((key, v) for key, v in fields.items() if v is not None)
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# the keys every grid artifact may carry besides its arrays
_FIELDS = ("schema", "kind", "axes", "meta", "manifest", "dims")


def load_artifact(text: str | bytes, kind: str, keys: tuple[str, ...],
                  dims: tuple[int, ...] = (2,), rank: int = 0,
                  optional: tuple[str, ...] = ()):
    """Inverse of dump_artifact: (document, axes, arrays of `keys`), each
    array of node shape plus `rank` axes of length dim, for a document of
    this schema, kind and a number of axes in `dims` whose keys are
    _FIELDS, `keys` and `optional`; else GridError."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise GridError(f"not a JSON document: {exc}") from None
    if not isinstance(doc, dict):
        raise GridError("artifact must be a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise GridError(f"unsupported schema {doc.get('schema')!r}")
    if doc.get("kind") != kind:
        raise GridError(f"expected kind {kind!r}, got {doc.get('kind')!r}")
    unknown = sorted(doc.keys() - {*_FIELDS, *keys, *optional})
    if unknown:
        raise GridError(f"unknown key(s) {', '.join(map(repr, unknown))} in "
                        f"{kind} document")
    try:
        axes = tuple(Axis.from_dict(a) for a in doc["axes"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GridError(f"malformed axes in {kind} document: {exc!r}") from None
    for key in ("meta", "manifest"):
        if not isinstance(doc.get(key, {}), dict):
            raise GridError(f"{key!r} must be a JSON object")
    d = len(axes)
    if d not in dims:
        raise GridError(f"{kind} document needs "
                        f"{' or '.join(map(str, dims))} axes, got {d}")
    shape = tuple(ax.count for ax in axes) + (d,) * rank
    return doc, axes, [decode_array(doc, key, shape, d) for key in keys]


def check_axis_counts(axes) -> None:
    """GridError unless every axis has 1 or at least MIN_NODES_PER_AXIS
    nodes, the counts a grid accepts."""
    for ax in axes:
        if 1 < ax.count < MIN_NODES_PER_AXIS:
            raise GridError(f"axis {ax.name!r}: {ax.count} nodes, need 1 "
                            f"or at least {MIN_NODES_PER_AXIS}")


class MetricGrid:
    """A Riemannian metric sampled on a uniform grid.

    components has shape counts + (d, d), is exactly symmetric in the two
    trailing indices, and is positive-definite at every node: every leading
    principal minor is finite and positive, the 2x2 one in closed form
    (`det`), taken on one slice per exactly constant axis.
    """

    kind = "metric_grid"
    # components equal this sign times their transpose
    transpose_sign = 1

    def __init__(self, axes, components, manifest: dict | None = None):
        self.axes = tuple(axes)
        self.components = np.ascontiguousarray(components, dtype=np.float64)
        self.manifest = manifest
        self._validate()

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(ax.count for ax in self.axes)

    @property
    def steps(self) -> tuple[float, ...]:
        return tuple(ax.step for ax in self.axes)

    def _validate(self) -> None:
        d = self.dim
        if d not in (2, 4):
            raise GridError(f"grid dimension {d} not in (2, 4)")
        check_axis_counts(self.axes)
        g = self.components
        metric = self.transpose_sign > 0
        noun = "metric" if metric else "form"
        expected = self.counts + (d, d)
        if g.shape != expected:
            raise GridError(f"components shape {g.shape} != {expected}")
        if not np.all(np.isfinite(g)):
            raise GridError(f"non-finite {noun} component")
        if not np.array_equal(g, self.transpose_sign * np.swapaxes(g, -1, -2)):
            raise GridError(f"{noun} components are not exactly "
                            f"{'' if metric else 'anti'}symmetric")
        if not metric:
            return
        # minors repeat exactly along constant axes: one slice gives the
        # same verdict, and argmin the same first failing node
        _, g = collapse_constant(g, d)
        for k in range(1, d + 1):
            # finite components can only overflow to a non-finite minor
            with np.errstate(over="ignore", invalid="ignore"):
                minors = det(g[..., :k, :k]) if k > 1 else g[..., 0, 0]
            if not np.all(np.isfinite(minors)):
                node = tuple(int(i[0])
                             for i in np.nonzero(~np.isfinite(minors)))
                raise GridError(f"metric minor {k} overflows at node {node}")
            if not np.all(minors > 0.0):
                node = tuple(int(i) for i in
                             np.unravel_index(np.argmin(minors), minors.shape))
                raise GridError(
                    f"metric not positive-definite: minor {k} fails at node {node}")

    def to_json(self) -> str:
        return dump_artifact(self.kind, self.axes,
                             {"components": self.components}, dims=self.dim,
                             manifest=self.manifest)

    @classmethod
    def from_json(cls, text: str | bytes) -> "MetricGrid":
        doc, axes, (comp,) = load_artifact(text, cls.kind, ("components",),
                                           dims=(2, 4), rank=2)
        return cls(axes, comp, manifest=doc.get("manifest"))


class TwoFormGrid(MetricGrid):
    """A 2-form sampled on a uniform grid; exactly antisymmetric components."""

    kind = "two_form_grid"
    transpose_sign = -1


# ---------------------------------------------------------------------------
# Central-difference stencils. `axis` indexes the grid (node) dimensions; the
# input may carry extra trailing component dimensions. Boundary nodes where a
# stencil does not fit are set to NaN, and a one-node axis gets exact zeros.

def shift(f: np.ndarray, axis: int, offset: int) -> np.ndarray:
    idx = [slice(None)] * f.ndim
    idx[axis] = slice(1 + offset, f.shape[axis] - 1 + offset)
    return f[tuple(idx)]


def _interior_index(f: np.ndarray, axis: int) -> tuple:
    idx = [slice(None)] * f.ndim
    idx[axis] = slice(1, -1)
    return tuple(idx)


def central_diff(f: np.ndarray, step: float, axis: int) -> np.ndarray:
    """d f / d x_axis, second order; one NaN layer on that axis."""
    if f.shape[axis] == 1:
        return np.zeros_like(f)
    out = np.full_like(f, np.nan)
    out[_interior_index(f, axis)] = (shift(f, axis, +1) - shift(f, axis, -1)) / (2.0 * step)
    return out


def second_diff(f: np.ndarray, step: float, axis: int) -> np.ndarray:
    """d^2 f / d x_axis^2, second order; one NaN layer on that axis."""
    if f.shape[axis] == 1:
        return np.zeros_like(f)
    out = np.full_like(f, np.nan)
    out[_interior_index(f, axis)] = (
        shift(f, axis, +1) - 2.0 * shift(f, axis, 0) + shift(f, axis, -1)
    ) / (step * step)
    return out


def mixed_diff(f: np.ndarray, step_i: float, axis_i: int,
               step_j: float, axis_j: int) -> np.ndarray:
    """d^2 f / (d x_i d x_j) for i != j via the symmetric 4-point stencil."""
    if axis_i == axis_j:
        return second_diff(f, step_i, axis_i)
    fp = central_diff(f, step_i, axis_i)
    # Second pass over a NaN-margined array keeps NaN bookkeeping automatic.
    return central_diff(fp, step_j, axis_j)


def interior(arr: np.ndarray, margin: int, grid_ndim: int) -> np.ndarray:
    """View of arr with `margin` layers stripped from each grid axis of
    more than one node; a one-node axis has no margin."""
    if margin == 0:
        return arr
    return arr[tuple(slice(None) if n == 1 else slice(margin, -margin)
                     for n in arr.shape[:grid_ndim])]
