"""Scoring rules and point metrics for discretized predictive forecasts.

Scores on the point-mass form are exact closed-form sums or piecewise
integrals of the step CDF; no Monte Carlo is involved anywhere.  All
metrics are negatively oriented (lower is better) except ``r2``.

    crps(F, y)           integral of (F(x) - 1[x >= y])^2 dx
    crls(F, y)           -integral of log|F(x) + 1[y <= x] - 1| dx, clamped
    energy_score(F,y,b)  E|X - y|^b - 0.5 E|X - X'|^b, b in (0, 2]
    interval_score       (u - l) + (2/a)(l - y)1[y < l] + (2/a)(y - u)1[y > u]
    wcrps(F, y, w)       integral of w((x - loc)/scale) (F(x) - 1[x >= y])^2 dx
    log_score(H, y)      -log(p[k*] / width[k*]), k* the bin containing y
    brier_score(H, y)    sum_k (p[k] - 1[k = k*])^2

The step-CDF integrands are piecewise constant between support points, so
CRPS, CRLS, and wCRPS reduce to finite sums over segments; the wCRPS
weight factor is integrated per segment with the exact Gaussian
antiderivatives (the antiderivative of the normal CDF is z*cdf(z)+pdf(z)).

Every metric is one batch kernel ``(batch, targets, spec)`` over a
:class:`ForecastBatch` that returns per-record values or one batch value;
the scalar functions (``crps(f, y)`` and so on) run the same kernel on a
one-record batch.  Kernels gather records of equal support size (or edge
count) as rows and work row-wise, in chunks whose temporaries stay within
``forecast.BLOCK_ELEMENTS`` elements whatever the batch size.  Per-record
sums add left to right, so no score depends on where the chunks fall, and
a record scores the same in any batch: the energy score takes its pair sums
in slabs whose height follows from the support size alone.

The energy scores form one family, and CRPS, CRLS and wCRPS another:
``score_batch`` scores every requested member of a family in one walk that
takes the family's shared inputs once, and each member's kernel is the
one-member call of that walk.  Each member runs the same operations in the
same order either way, so it gets the same bytes.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence, Union

import numpy as np

from .errors import (
    ConversionWarning,
    EmptyBatchError,
    InvalidBetaError,
    InvalidLevelError,
    InvalidScaleError,
    OutsideSupportError,
    ProbevalError,
    UnknownMetricError,
    warn,
)
from .forecast import (
    DiscreteForecast,
    Forecast,
    ForecastBatch,
    HistogramForecast,
    _bin_index,
    _row_sums,
)

if TYPE_CHECKING:  # pragma: no cover
    from .io import ForecastRecord

LOWER_BETTER = "lower_better"
HIGHER_BETTER = "higher_better"

# Clamps keeping the log-based scores finite when a forecast assigns
# (numerically) zero probability to the observed outcome.
EPS_LOG = 1e-12
EPS_DENSITY = 1e-12

ENERGY_BETAS = (0.2, 0.5, 1.0, 1.5, 2.0)
WEIGHT_KINDS = ("left", "right", "center", "unit")

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Cephes ndtr.c, the normal CDF that scipy.special.ndtr ships: the erf
# coefficients T/U (|x| <= 1) and the erfc coefficients P/Q (1 <= x < 8) and
# R/S (x >= 8), each highest power first; U, Q and S omit a leading 1.
_SQRT1_2 = math.sqrt(0.5)
_MAXLOG = 7.09782712893383996843e2
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)

# Pair-matrix elements the energy score takes per pass from one support: a
# support of at most 64 points takes its whole pair matrix at once, a larger
# one a row at a time.  This constant alone fixes the bytes of every energy
# score, whatever the batch and wherever the chunks fall.
_PAIR_SLAB_ELEMENTS = 4096

# A kernel scores a whole batch: per-record values (NaN where undefined) or
# one batch-level value (NaN when undefined for the batch).
Kernel = Callable[[ForecastBatch, np.ndarray, "MetricSpec"], Union[np.ndarray, float]]


@dataclass(frozen=True)
class MetricSpec:
    """Identity, orientation, parameters and kernel of one metric.

    ``alpha`` is the mass outside a central prediction interval, ``beta``
    the energy-score exponent, ``level`` the nominal coverage of a central
    interval, ``weight_kind`` selects the wCRPS weight and
    ``weight_loc``/``weight_scale`` its climatological reference, set both
    or neither.
    ``kernel`` computes the metric; when omitted it follows from the
    parameter that is set, through ``FAMILIES`` (beta: energy score,
    alpha: interval score, weight_kind: wCRPS, level: coverage), or from
    the built-in metric of the same name.
    """

    name: str
    orientation: str = LOWER_BETTER
    alpha: float | None = None
    beta: float | None = None
    weight_kind: str | None = None
    weight_loc: float | None = None
    weight_scale: float | None = None
    level: float | None = None
    kernel: Kernel | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.orientation not in (LOWER_BETTER, HIGHER_BETTER):
            raise ValueError(f"unknown orientation: {self.orientation!r}")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise InvalidLevelError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.beta is not None and not 0.0 < self.beta <= 2.0:
            raise InvalidBetaError(f"beta must be in (0, 2], got {self.beta}")
        if self.level is not None and not 0.0 < self.level < 1.0:
            raise InvalidLevelError(f"coverage level must be in (0, 1), got {self.level}")
        if self.weight_kind is not None and self.weight_kind not in WEIGHT_KINDS:
            raise ValueError(f"unknown weight kind: {self.weight_kind!r}")
        if (self.weight_loc is None) != (self.weight_scale is None):
            raise ValueError("set weight_loc and weight_scale together, or neither")
        if self.kernel is None:
            object.__setattr__(self, "kernel", _implied_kernel(self))


def _implied_kernel(spec: MetricSpec) -> Kernel | None:
    implied = [fam.kernel for fam in FAMILIES.values() if getattr(spec, fam.param) is not None]
    if len(implied) > 1:
        raise ValueError(f"metric {spec.name!r}: parameters imply more than one kernel")
    if implied:
        return implied[0]
    builtin = _REGISTRY.get(spec.name)
    return builtin.kernel if builtin is not None else None


def _pieces(x: np.ndarray, cdf: np.ndarray, y: np.ndarray):
    """Pieces of the piecewise-constant CRPS-type integrands of equal-size records.

    Rows of ``x`` are supports with CDF values ``cdf``; ``y`` is a column
    of observations.  Each support is merged with its observation, which
    goes right of the points at or below it; every merged value but the
    last opens one piece, so a row has as many pieces as support points (a
    zero-width one where y equals a point).  Returns, per piece, (left end,
    width, F(left), 1[left >= y]); outside the pieces the integrands are
    identically zero.
    """
    slot = np.arange(x.shape[1] + 1)
    k = (x <= y).sum(axis=1, keepdims=True)  # the slot of y in the merged row
    zero = np.zeros_like(y)
    # Points at or below y keep their slot; the points above y move one up.
    merged = np.where(slot < k, np.hstack([x, y]), np.where(slot > k, np.hstack([y, x]), y))
    f_left = np.where(slot < k, np.hstack([cdf, zero]), np.hstack([zero, cdf]))[:, :-1]
    left = merged[:, :-1]
    return left, merged[:, 1:] - left, f_left, left >= y


def _norm_pdf(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / _SQRT_2PI


def _polevl(x: np.ndarray, coef: tuple, leading_one: bool = False) -> np.ndarray:
    """Cephes ``polevl`` (or ``p1evl`` with ``leading_one``), in Horner order."""
    y = x + coef[0] if leading_one else coef[0] * x + coef[1]
    for c in coef[1 if leading_one else 2 :]:
        y *= x
        y += c
    return y


def _erf_small(x: np.ndarray) -> np.ndarray:
    """Cephes ``erf`` for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, leading_one=True)


def _erfc_tail(z: np.ndarray, square: np.ndarray, p: tuple, q: tuple) -> np.ndarray:
    """Cephes ``erfc`` for z >= 1 short of its underflow: exp(-z^2) p(z) / q(z)."""
    e = np.fromiter(map(math.exp, (-square).tolist()), float, z.size)
    return (e * _polevl(z, p)) / _polevl(z, q, leading_one=True)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF, bit for bit cephes ``ndtr`` as scipy.special ships it.

    Each branch of cephes ``ndtr``/``erf``/``erfc`` runs on its own elements
    in cephes' operation order.  exp(-x^2) goes through ``math.exp`` (the C
    library's, as in cephes): numpy's vectorised ``exp`` differs from it in
    the last bit on a few percent of arguments.
    """
    a = np.asarray(a, dtype=float)
    # x * x overflows and a signalling NaN is invalid, both silently in C.
    with np.errstate(over="ignore", invalid="ignore"):
        x = a.ravel() * _SQRT1_2
        z = np.abs(x)
        square = z * z
        y = np.full_like(x, math.nan)
        near = np.flatnonzero(z < _SQRT1_2)
        y[near] = 0.5 + 0.5 * _erf_small(x[near])
        # Elsewhere y is 0.5 erfc(z), taken from 1 when x > 0.
        mid = np.flatnonzero((z >= _SQRT1_2) & (z < 1.0))
        y[mid] = 0.5 * (1.0 - _erf_small(z[mid]))
        inner = np.flatnonzero((z >= 1.0) & (z < 8.0))
        y[inner] = 0.5 * _erfc_tail(z[inner], square[inner], _ERFC_P, _ERFC_Q)
        outer = np.flatnonzero((z >= 8.0) & (square <= _MAXLOG))
        y[outer] = 0.5 * _erfc_tail(z[outer], square[outer], _ERFC_R, _ERFC_S)
        y[square > _MAXLOG] = 0.0  # erfc underflows; a NaN fails every test above
        upper = np.flatnonzero((x > 0.0) & (z >= _SQRT1_2))
        y[upper] = 1.0 - y[upper]
    return y.reshape(a.shape)


def _weight_integrals(a: np.ndarray, b: np.ndarray, loc: float, scale: float) -> dict:
    """Integrals over target-axis intervals [a, b] of every Gaussian weight kind.

    Every kind reads the same two normal CDFs, and both tails the same
    two densities, so a walk takes them once per weight reference.
    """
    # _ndtr gives scipy.special.ndtr's bits, so these integrals keep the bytes
    # that tests/data/scores_golden.csv pins without importing scipy.
    za = (a - loc) / scale
    zb = (b - loc) / scale
    cdf_a, cdf_b = _ndtr(za), _ndtr(zb)
    # z*cdf(z) + pdf(z) is the antiderivative of the normal CDF.  A z*z that
    # overflows gives the exact zero density; an infinite z was reported above.
    with np.errstate(over="ignore", invalid="ignore"):
        prim_a = za * cdf_a + _norm_pdf(za)
        prim_b = zb * cdf_b + _norm_pdf(zb)
        return {"center": scale * (cdf_b - cdf_a), "right": scale * (prim_b - prim_a),
                "left": scale * ((zb - prim_b) - (za - prim_a))}


class _Member:
    """A family member's kernel, the one-member call of the family's walk:
    ``walk(batch, targets, [(kernel, spec), ...])`` scores its members at
    once, one column each, with the bytes each member's kernel gives alone."""

    def __init__(self, walk: Callable):
        self.walk = walk

    def __call__(self, batch: ForecastBatch, targets: np.ndarray, spec: MetricSpec) -> np.ndarray:
        return self.walk(batch, targets, [(self, spec)])[0]

    def __reduce__(self):
        # Pickled and copied as its module global: _integrand tells members apart by identity.
        return next(name for name, value in globals().items() if value is self)


def _integrand(kernel: Kernel, spec: MetricSpec, targets: np.ndarray) -> tuple:
    """(kind, weight reference) of what the integrals walk sums for one
    member: ``("crls", None)``, ``("unit", None)`` for CRPS, or a Gaussian
    weight kind with its (loc, scale).  Checks an explicit wCRPS reference
    and takes the default one."""
    if kernel is crls_kernel:
        return "crls", None
    kind = spec.weight_kind or "unit"
    if spec.weight_loc is not None:
        loc, scale = float(spec.weight_loc), float(spec.weight_scale)
        if not (math.isfinite(loc) and math.isfinite(scale)):
            raise InvalidScaleError(f"weight reference must be finite, got {loc}, {scale}")
        if scale <= 0.0:
            raise InvalidScaleError(f"weight scale must be > 0, got {scale}")
    elif kind != "unit":
        loc, scale = float(np.mean(targets)), float(np.std(targets))
        if scale <= 0.0:
            raise InvalidScaleError(
                "batch targets have zero spread; pass an explicit weight reference"
            )
    return (kind, None) if kind == "unit" else (kind, (loc, scale))


def _integrals(batch: ForecastBatch, targets: np.ndarray, members) -> list[np.ndarray]:
    """CRPS, CRLS and wCRPS columns, one per ``(kernel, spec)`` member.

    All members read one ``_pieces`` call per chunk; CRPS and wCRPS share
    its squared CDF difference, and wCRPS members of one weight reference
    share its normal CDFs and densities.  Each column runs the operations
    it runs alone, in the same order, so it has the same bytes.
    """
    rules = [_integrand(kernel, spec, targets) for kernel, spec in members]
    references = {ref for _, ref in rules if ref is not None}
    out = [np.empty(batch.n) for _ in rules]
    # A merged row holds one point more than its support.
    for rows, cols in batch.by_size.chunks(lambda size: size + 1):
        left, width, cdf, above = _pieces(batch.points[cols], batch.cdf[cols], targets[rows, None])
        diff = cdf - above
        square = diff * diff
        weights = {ref: _weight_integrals(left, left + width, *ref) for ref in references}
        for k, (kind, ref) in enumerate(rules):
            if kind == "crls":
                pieces = width * -np.log(np.maximum(np.abs(cdf + above - 1.0), EPS_LOG))
            elif ref is None:
                pieces = width * square
            else:
                pieces = square * weights[ref][kind]
            out[k][rows] = _row_sums(pieces)
    return out


def _energy_scores(batch: ForecastBatch, targets: np.ndarray, members) -> list[np.ndarray]:
    """Energy-score columns, one per ``(kernel, spec)`` member's beta.

    Each chunk's distances |x - y| are taken once for every beta, as are
    the pair differences of ``_energy_pairs``.  A support wider than the
    largest float overflows them.  The score has degree beta in the
    support and target, so each non-finite cell is scored again from its
    record halved, times 2^beta; every finite cell keeps its bytes.
    """
    betas = [spec.beta for _, spec in members]
    scale = np.array([2.0 ** beta for beta in betas])[:, None]
    out = np.empty((len(betas), batch.n))
    for rows, cols in batch.by_size.chunks(lambda size: _pair_slab(size) * size):
        x, p, y = batch.points[cols], batch.probs[cols], targets[rows, None]
        with np.errstate(over="ignore", invalid="ignore"):  # redone below where not finite
            scores = _energy_rows(x, p, y, betas)
        finite = np.isfinite(scores)
        if not finite.all():
            wide = ~finite.all(axis=0)
            halved = scale * _energy_rows(x[wide] / 2.0, p[wide], y[wide] / 2.0, betas)
            scores[:, wide] = np.where(finite[:, wide], scores[:, wide], halved)
        out[:, rows] = scores
    return list(out)


crls_kernel = _Member(_integrals)
# wCRPS; without an explicit reference the weights center on the whole
# batch's target mean and population standard deviation.  The unit weight
# (also an unset ``weight_kind``) reads no reference: it is CRPS.
wcrps_kernel = crps_kernel = _Member(_integrals)
energy_score_kernel = _Member(_energy_scores)


def _energy_rows(x: np.ndarray, p: np.ndarray, y: np.ndarray, betas) -> np.ndarray:
    """Energy scores of the rows of ``x`` at the column ``y``, one row per beta."""
    dist = np.abs(x - y)
    cross = _energy_pairs(x, p, betas)
    return np.array([_row_sums(p * dist ** beta) - c for beta, c in zip(betas, cross)])


def _pair_slab(size: int) -> int:
    """Rows of a support's pair matrix taken per pass: all of them, or one."""
    return size if size * size <= _PAIR_SLAB_ELEMENTS else 1


def _energy_pairs(x: np.ndarray, p: np.ndarray, betas: Sequence[float]) -> list[np.ndarray]:
    """0.5 E|X - X'|^b per row of ``x``, one array per beta: the sum over
    pairs i < j.

    Rows hold equal-size ascending supports.  The pair matrix is taken
    ``_pair_slab`` rows at a time, against the columns right of the slab's
    first row; pairs with j <= i give x_j - x_i <= 0 and are clipped to zero.
    Each slab's clipped differences are taken once, and every beta works
    on a copy of them in one reused buffer, so each runs the same
    operations in the same order, whatever the other betas.
    """
    size = x.shape[1]
    slab = _pair_slab(size)
    cross = [np.zeros(x.shape[0]) for _ in betas]
    buffer = np.empty(x.shape[0] * slab * (size - 1))
    for lo in range(0, size - 1, slab):
        hi = min(lo + slab, size - 1)
        d = x[:, None, lo + 1 :] - x[:, lo:hi, None]
        np.maximum(d, 0.0, out=d)
        for k, beta in enumerate(betas):
            t = buffer[: d.size].reshape(d.shape)
            np.copyto(t, d)
            t **= beta
            t *= p[:, lo:hi, None]
            t *= p[:, None, lo + 1 :]
            cross[k] += t.sum(axis=2).sum(axis=1)
    return cross


def interval_score_kernel(batch: ForecastBatch, targets: np.ndarray, spec: MetricSpec):
    alpha = spec.alpha
    lower = batch.quantiles(alpha / 2.0)
    upper = batch.quantiles(1.0 - alpha / 2.0)
    penalty = np.where(
        targets < lower,
        (2.0 / alpha) * (lower - targets),
        np.where(targets > upper, (2.0 / alpha) * (targets - upper), 0.0),
    )
    return (upper - lower) + penalty


def log_score_kernel(batch: ForecastBatch, targets: np.ndarray, spec: MetricSpec) -> np.ndarray:
    """Histogram log score; NaN for records without a histogram form."""
    hists = batch.histograms()
    out = np.full(batch.n, math.nan)
    for rows, cols in hists.by_bins.chunks():
        probs, edges = hists.probs[cols], hists.edges[cols]
        k, inside = _bin_index(edges, targets[rows, None])
        r = np.arange(rows.size)
        p = np.where(inside, np.maximum(probs[r, k], EPS_DENSITY), EPS_DENSITY)
        with np.errstate(over="ignore", divide="ignore"):
            width = edges[r, k + 1] - edges[r, k]
            scores = -np.log(p / width) + 0.0  # a density of exactly 1 scores 0.0, not -0.0
        # A bin narrower than about 1e-308 overflows the density, and one wider
        # than the float range its width: take the difference of logs there,
        # and only there, with the log of an overflowing width from its halves.
        bad = ~np.isfinite(scores)
        log_width = np.log(width[bad])
        wide = np.isinf(log_width)
        half = 0.5 * edges[r, k + 1][bad][wide] - 0.5 * edges[r, k][bad][wide]
        log_width[wide] = np.log(half) + math.log(2.0)
        scores[bad] = log_width - np.log(p[bad])
        out[rows] = scores
    return out


def brier_score_kernel(batch: ForecastBatch, targets: np.ndarray, spec: MetricSpec) -> np.ndarray:
    """Histogram Brier score; NaN for records without a histogram form.

    Raises :class:`OutsideSupportError` for the first record, in record
    order, whose observation lies outside its grid.
    """
    hists = batch.histograms()
    out = np.full(batch.n, math.nan)
    outside = np.zeros(out.size, dtype=bool)
    for rows, cols in hists.by_bins.chunks():
        probs, edges = hists.probs[cols], hists.edges[cols]
        k, inside = _bin_index(edges, targets[rows, None])
        outside[rows] = ~inside
        out[rows] = _row_sums(probs * probs) - 2.0 * probs[np.arange(rows.size), k] + 1.0
    if outside.any():
        r = int(np.argmax(outside))
        first = hists.edges[hists.offsets[r]]
        last = hists.edges[hists.offsets[r + 1] - 1]
        raise OutsideSupportError(
            f"observation {float(targets[r])} outside histogram support"
            f" [{float(first)}, {float(last)}]",
            index=r,
        )
    return out


def mae_kernel(batch: ForecastBatch, targets: np.ndarray, spec: MetricSpec) -> np.ndarray:
    return np.abs(targets - batch.quantiles(0.5))


def _squared_error_metrics(pred: np.ndarray, y: np.ndarray) -> tuple[float, float | None]:
    """RMSE of ``pred``, and R-squared (None when ``y`` has zero variance)."""
    sq_err = (y - pred) ** 2
    rmse = float(math.sqrt(np.mean(sq_err)))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return rmse, None if ss_tot == 0.0 else 1.0 - float(np.sum(sq_err)) / ss_tot


def rmse_kernel(batch: ForecastBatch, targets: np.ndarray, spec: MetricSpec) -> float:
    return _squared_error_metrics(batch.means(), targets)[0]


def r2_kernel(batch: ForecastBatch, targets: np.ndarray, spec: MetricSpec) -> float:
    r2 = _squared_error_metrics(batch.means(), targets)[1]
    return math.nan if r2 is None else r2


def sharpness_kernel(batch: ForecastBatch, targets, spec: MetricSpec) -> np.ndarray:
    """Per-record predictive standard deviation."""
    return batch.stds()


def dispersion_kernel(batch: ForecastBatch, targets, spec: MetricSpec) -> float:
    """Population standard deviation of the per-record standard deviations."""
    stds = sharpness_kernel(batch, targets, spec)
    with np.errstate(over="ignore", invalid="ignore"):  # retaken at 2^-514 where not finite
        spread = np.std(stds)
    return float(spread if np.isfinite(spread) else np.ldexp(np.std(np.ldexp(stds, -514)), 514))


def coverage_kernel(batch: ForecastBatch, targets: np.ndarray, spec: MetricSpec) -> np.ndarray:
    """1.0 where y lies in the central ``spec.level`` interval, bounds inclusive."""
    alpha = 1.0 - spec.level
    lower, upper = batch.quantiles(alpha / 2.0), batch.quantiles(1.0 - alpha / 2.0)
    return ((lower <= targets) & (targets <= upper)).astype(float)


# Each parametric family: the parameter that makes a spec a member, the kernel
# that parameter implies, and the identifier of the member of a given value.
Family = NamedTuple("Family", [("param", str), ("kernel", Kernel), ("name", Callable)])
FAMILIES = {
    "energy_score": Family("beta", energy_score_kernel, lambda beta: f"energy_score_beta_{beta}"),
    "interval_score": Family("alpha", interval_score_kernel,
                             lambda alpha: f"interval_score_{round((1.0 - alpha) * 100)}"),
    "wcrps": Family("weight_kind", wcrps_kernel, lambda kind: f"wcrps_{kind}"),
    "coverage": Family("level", coverage_kernel, lambda level: f"coverage_{round(level * 100)}"),
}


def family_spec(family: str, value) -> MetricSpec:
    """The member of ``family`` with parameter ``value``, under its identifier."""
    param, _, name = FAMILIES[family]
    spec = MetricSpec(family, **{param: value})  # checks value before name() reads it
    return replace(spec, name=name(value))


_REGISTRY: dict[str, MetricSpec] = {spec.name: spec for spec in [
    MetricSpec("mae", kernel=mae_kernel),
    MetricSpec("rmse", kernel=rmse_kernel),
    MetricSpec("crps", kernel=crps_kernel),
    MetricSpec("crls", kernel=crls_kernel),
    MetricSpec("log_score", kernel=log_score_kernel),
    MetricSpec("brier_score", kernel=brier_score_kernel),
    MetricSpec("r2", orientation=HIGHER_BETTER, kernel=r2_kernel),
    *[family_spec("energy_score", beta) for beta in ENERGY_BETAS],
    *[family_spec("wcrps", kind) for kind in ("left", "right", "center")],
    *[family_spec("interval_score", alpha) for alpha in (0.10, 0.05)],
    # Calibration diagnostics share the identifier namespace so they can
    # be requested through the same batch interface.
    MetricSpec("sharpness", kernel=sharpness_kernel),
    MetricSpec("dispersion", kernel=dispersion_kernel),
    *[family_spec("coverage", level) for level in (0.90, 0.95)],
]}

METRIC_NAMES: tuple[str, ...] = tuple(_REGISTRY)


def resolve_metric(name: str) -> MetricSpec:
    """Look up a metric identifier, e.g. ``crps`` or ``wcrps_left``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        valid = ", ".join(METRIC_NAMES)
        raise UnknownMetricError(f"unknown metric {name!r}; valid identifiers: {valid}") from None


def _one(spec: MetricSpec, forecast: Forecast, y: float) -> float:
    """A kernel's value on the one-record batch of ``forecast``: its own
    batch for a point-mass forecast, else the batch it packs into."""
    batch = (forecast.batch if isinstance(forecast, DiscreteForecast)
             else ForecastBatch.from_forecasts([forecast]))
    return float(spec.kernel(batch, np.array([y], dtype=float), spec)[0])


def crps(f: DiscreteForecast, y: float) -> float:
    """Continuous Ranked Probability Score, exact for point-mass forecasts."""
    return _one(_REGISTRY["crps"], f, y)


def crls(f: DiscreteForecast, y: float) -> float:
    """Continuous Ranked Logarithmic Score (exceedance-probability form).

    The integrand -log|F(x) + 1[y <= x] - 1| diverges where the forecast
    puts zero mass on the observed side; the argument is clamped at 1e-12,
    which turns impossible-event observations into large finite penalties
    that grow with the size of the violation.
    """
    return _one(_REGISTRY["crls"], f, y)


def energy_score(f: DiscreteForecast, y: float, beta: float) -> float:
    """beta-energy score via the exact double sum over point masses.

    beta=1 reproduces CRPS; beta=2 collapses to the squared error of the
    forecast mean.  O(J^2) in the support size.
    """
    return _one(MetricSpec("energy_score", beta=beta), f, y)


def interval_score(f: DiscreteForecast, y: float, alpha: float) -> float:
    """Interval score of the central (1 - alpha) prediction interval."""
    return _one(MetricSpec("interval_score", alpha=alpha), f, y)


def wcrps(f: DiscreteForecast, y: float, spec: MetricSpec) -> float:
    """Weighted CRPS with standard-normal climatological weights.

    ``spec.weight_kind`` selects w(z) = 1 - cdf(z) (left tail), cdf(z)
    (right tail), pdf(z) (center), or 1 (unit, which is :func:`crps`);
    z = (x - weight_loc) / weight_scale, with loc 0 and scale 1 where the
    spec leaves them unset.  The squared CDF term is constant per segment,
    so only the weight needs integrating, which is done with the exact
    Gaussian antiderivatives.
    """
    if spec.weight_loc is None:
        spec = replace(spec, weight_loc=0.0, weight_scale=1.0)
    return _one(replace(spec, kernel=wcrps_kernel), f, y)


def log_score(h: HistogramForecast, y: float) -> float:
    """Negative log of the histogram density at the observation.

    The density in bin k is p[k] / width[k].  Probabilities are clamped
    below at 1e-12; an observation outside the grid is scored with the
    clamp mass over the nearest bin's width.
    """
    return _one(_REGISTRY["log_score"], h, y)


def brier_score(h: HistogramForecast, y: float) -> float:
    """Squared distance between the bin PMF and the observed one-hot bin.

    Raises :class:`OutsideSupportError` when the observation lies outside
    the grid, where the one-hot target is undefined; a silent worst-case
    value would corrupt downstream leaderboards.
    """
    return _one(_REGISTRY["brier_score"], h, y)


@dataclass(frozen=True)
class PointMetrics:
    """MAE/RMSE/R-squared of point predictions extracted from forecasts."""

    mae: float
    rmse: float
    r2: float | None


def point_metrics(pred_mae, pred_sq, targets) -> PointMetrics:
    """Point metrics from separate functionals per loss.

    ``pred_mae`` should be the forecast medians (Bayes-optimal for MAE)
    and ``pred_sq`` the forecast means (optimal for squared error); both
    are overridable by passing any other point predictions.  R-squared is
    undefined (None) when the targets have zero variance.
    """
    pred_mae = np.asarray(pred_mae, dtype=float)
    pred_sq = np.asarray(pred_sq, dtype=float)
    y = np.asarray(targets, dtype=float)
    if y.size == 0:
        raise EmptyBatchError("point metrics need at least one observation")
    mae = float(np.mean(np.abs(y - pred_mae)))
    rmse, r2 = _squared_error_metrics(pred_sq, y)
    return PointMetrics(mae=mae, rmse=rmse, r2=r2)


@dataclass(frozen=True, eq=False)
class ScoreResult:
    """Scores of one metric over a batch.

    ``values`` holds per-instance scores in record order (NaN where the
    metric is undefined for a record) or None for batch-level metrics
    (rmse, r2, dispersion).  ``mean`` is the batch score; for per-instance
    metrics it is the arithmetic mean of the defined values.
    """

    metric: str
    values: np.ndarray | None
    mean: float


def score_batch(
    records: Sequence["ForecastRecord"],
    specs: Sequence[MetricSpec | str],
) -> dict[str, ScoreResult]:
    """Score every requested metric over a batch of forecast records.

    Records need ``target`` and ``forecast`` attributes (see
    :class:`probeval.io.ForecastRecord`).  The forecasts are packed into
    one :class:`ForecastBatch` and each metric's kernel runs over it; the
    members of a family (the energy scores; CRPS, CRLS and wCRPS) are
    scored in one walk, each with the bytes it gets alone.
    Histogram-only metrics (log score, Brier) are computed through the
    quantile-to-histogram conversion for quantile records and are absent
    (NaN) for sample records.  wCRPS weight references default to the
    batch target mean and population standard deviation.  Two different
    specs with one name raise :class:`UnknownMetricError`.
    """
    records = list(records)
    if not records:
        raise EmptyBatchError("no forecast records to score")
    resolved: dict[str, MetricSpec] = {}
    for spec in specs:
        spec = resolve_metric(spec) if isinstance(spec, str) else spec
        if resolved.setdefault(spec.name, spec) != spec:
            raise UnknownMetricError(f"two different metrics are named {spec.name!r}")
    targets = np.array([rec.target for rec in records], dtype=float)
    batch = ForecastBatch.from_forecasts(rec.forecast for rec in records)

    results: dict[str, ScoreResult] = {}
    columns: dict[str, np.ndarray] = {}
    walked = set()
    for name, spec in resolved.items():
        if spec.kernel is None:
            raise UnknownMetricError(f"metric {name!r} has no kernel and names no built-in metric")
        walk = spec.kernel.walk if isinstance(spec.kernel, _Member) else None
        if walk is not None and walk not in walked:
            # A family's first member scores every member in one walk.  If the
            # walk raises a library error, each member runs alone at its own
            # turn, so the first such failure in request order raises.
            walked.add(walk)
            family = [s for s in resolved.values()
                      if isinstance(s.kernel, _Member) and s.kernel.walk is walk]
            with contextlib.suppress(ProbevalError):
                scored = walk(batch, targets, [(s.kernel, s) for s in family])
                columns.update(zip([s.name for s in family], scored))
        try:
            value = columns.pop(name) if name in columns else spec.kernel(batch, targets, spec)
        except OutsideSupportError as exc:
            if exc.index is None:
                raise
            rec_id = getattr(records[exc.index], "id", exc.index)
            raise OutsideSupportError(f"record {rec_id!r}: {exc}") from exc
        if isinstance(value, np.ndarray):
            if value.shape != (batch.n,):
                raise ValueError(
                    f"metric {name!r}: kernel returned shape {value.shape} for {batch.n} records"
                )
            defined = ~np.isnan(value)
            if defined.any():
                results[name] = ScoreResult(name, value, float(np.mean(value[defined])))
                continue
            message = f"{name} is undefined for every record; omitted"
        elif not math.isnan(value):
            results[name] = ScoreResult(name, None, float(value))
            continue
        else:
            message = f"{name} is undefined for this batch; omitted"
        warn(message, ConversionWarning)
    return results
