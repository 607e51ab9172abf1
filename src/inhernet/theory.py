"""Closed-form compression and preservation accounting.

Every quantity reported here is computable from singular spectra and
parameter counts alone. Two parameter accountings coexist on purpose:
the closed-form ratio ``m*n / (H*r*(m+n) + H*(r+1))`` counts a separate
down-projection per head, while the built architecture shares one down
across heads. Both numbers appear side by side in reports; they agree
only at H=1. A layer's m x n is the shape of the matrix its inheritance
factors (``inherit.factor_matrix``): a dense weight as it is, a conv
kernel (N, c, kh, kw) as N x c*kh*kw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import DegenerateInputError, RangeError, ShapeError, require_index
from .inherit import GatedMixture, factor_matrix
from .linalg import condition_number, spectrum_condition
from .nn import Network


def compression_ratio_paper(m: int, n: int, r: int, h: int) -> float:
    """Closed-form ratio with per-head down-projection accounting; every count
    must be an integer of at least 1."""
    for name, value in (("m", m), ("n", n), ("rank", r), ("head count", h)):
        require_index(name, value)
    if min(m, n, r, h) < 1:
        raise RangeError(f"dimensions must be positive, got {(m, n, r, h)}")
    return (m * n) / (h * r * (m + n) + h * (r + 1))


def spectral_energy(full_spectrum, r: int) -> float:
    """Fraction of squared singular values kept by a rank-r truncation."""
    s = _check_spectrum(full_spectrum, r)
    sq = s * s
    return float(sq[:r].sum() / sq.sum())


def rank_for_energy(full_spectrum, epsilon: float) -> int:
    """Smallest rank whose retained energy ratio reaches ``1 - epsilon``."""
    s = _check_spectrum(full_spectrum)
    if not 0.0 < epsilon < 1.0:
        raise RangeError(f"epsilon must be in (0, 1), got {epsilon}")
    sq = s * s
    ratios = np.cumsum(sq) / sq.sum()
    hits = np.nonzero(ratios >= 1.0 - epsilon)[0]
    return int(hits[0]) + 1 if hits.size else s.size


def eckart_young_error(full_spectrum, r: int) -> float:
    """Frobenius error of the optimal rank-r approximation: sqrt tail energy,
    0.0 for an all-zero spectrum."""
    s = _check_spectrum(full_spectrum, r, zero_ok=True)
    return float(np.sqrt(np.sum(s[r:] * s[r:])))


@dataclass(frozen=True)
class LayerInfluence:
    """Nonnegative per-layer influence weights, normalized to sum to 1."""

    alpha: tuple[float, ...]

    @classmethod
    def uniform(cls, n_layers: int) -> "LayerInfluence":
        return cls.normalized([1.0] * n_layers)

    @classmethod
    def normalized(cls, weights) -> "LayerInfluence":
        w = np.asarray(weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ShapeError("influence weights must be a nonempty vector")
        if not np.isfinite(w).all() or np.any(w < 0):
            raise RangeError(f"influence weights must be finite and nonnegative, got {w.tolist()}")
        with np.errstate(over="ignore"):
            total = w.sum()
        if not np.isfinite(total):
            raise RangeError(f"influence weights {w.tolist()} sum past the float64 range")
        if total == 0:
            raise DegenerateInputError("influence weights are all zero")
        return cls(alpha=tuple(float(v) for v in w / total))


def preservation_bound(influences: LayerInfluence, spectra: list,
                       r_per_layer: list[int]) -> float:
    """Functional-similarity lower bound from per-layer truncation losses.

    ``1 - sum_l alpha_l * (1 - energy_ratio_l(r_l))``; equals 1 exactly
    when every layer keeps its full spectrum.
    """
    if not (len(influences.alpha) == len(spectra) == len(r_per_layer)):
        raise ShapeError(f"length mismatch: {len(influences.alpha)} influences, "
                         f"{len(spectra)} spectra, {len(r_per_layer)} ranks")
    loss = 0.0
    for a, s, r in zip(influences.alpha, spectra, r_per_layer):
        loss += a * (1.0 - spectral_energy(s, r))
    return 1.0 - loss


@dataclass
class TheoryReport:
    """Aggregate compression and fidelity figures for one inheritance.

    ``rho_paper`` uses the closed-form per-head-down accounting summed over
    layers; ``rho_actual`` divides the teacher's enumerated count by the
    built network's enumerated count (shared down). ``spectral_energy_ratio``
    pools squared singular values across layers, ``eckart_young_error`` is
    the pooled-tail Frobenius error, ``epsilon`` its complement ratio, and
    ``kappa`` the worst per-layer teacher condition number.
    """

    rho_paper: float
    param_count_actual: int
    param_count_teacher: int
    rho_actual: float
    spectral_energy_ratio: float
    eckart_young_error: float
    epsilon: float
    kappa: float
    preservation_lower_bound: float
    per_layer_breakdown: list[dict] = field(default_factory=list)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(asdict(self), indent=indent)

    def summary_lines(self) -> list[str]:
        lines = [
            f"compression ratio: paper formula {self.rho_paper:.4f}, "
            f"actual {self.rho_actual:.4f} "
            f"({self.param_count_teacher} -> {self.param_count_actual} params)",
            f"retained spectral energy {self.spectral_energy_ratio:.6f} "
            f"(epsilon {self.epsilon:.3e}), pooled truncation error "
            f"{self.eckart_young_error:.6e}",
            f"worst teacher condition number {self.kappa:.4e}; "
            f"preservation lower bound {self.preservation_lower_bound:.6f}",
        ]
        for entry in self.per_layer_breakdown:
            k_down = "n/a" if entry["kappa_down"] is None else f"{entry['kappa_down']:.3e}"
            lines.append(
                f"  layer {entry['layer']}: {entry['m']}x{entry['n']} r={entry['r']} "
                f"H={entry['h']} epsilon={entry['epsilon']:.3e} "
                f"kappa={entry['kappa']:.3e} kappa_down={k_down}")
        return lines


def analyze_network(teacher: Network, inherited: Network,
                    influences: LayerInfluence | None = None) -> TheoryReport:
    """Build a TheoryReport for an inherited network against its teacher.

    Decomposable teacher layers (dense and conv) are paired positionally
    with the inherited network's gated layers; each layer's rank and head
    count are read off the built layer, so a capped rank reports its
    effective value and a ``symmetric`` layer its two branches.
    ``kappa_down`` is the condition number of a layer's shared down factor
    (``None``, JSON ``null``, when every head has its own).
    """
    matrices = [(i, factor_matrix(l)) for i, l in enumerate(teacher.layers)]
    decomposed = [(i, w) for i, w in matrices if w is not None]
    built = [l for l in inherited.layers if isinstance(l, GatedMixture)]
    if not built or len(decomposed) != len(built):
        raise ShapeError(f"teacher has {len(decomposed)} decomposable layers but the "
                         f"inherited network has {len(built)}")
    breakdown, spectra = [], []
    for (i, w), b_layer in zip(decomposed, built):
        m, n = w.shape
        r_l, h = b_layer.rank, b_layer.n_heads
        s = np.linalg.svd(w, compute_uv=False)
        down = b_layer.blocks["down"][0]
        try:
            energy = spectral_energy(s, r_l)
            breakdown.append({
                "layer": i, "m": m, "n": n, "r": r_l, "h": h,
                "rho_paper": compression_ratio_paper(m, n, r_l, h),
                "param_teacher": teacher.layers[i].param_count(),
                "param_actual": b_layer.param_count(),
                "energy_ratio": energy,
                "epsilon": 1.0 - energy,
                "ey_error": eckart_young_error(s, r_l),
                "kappa": spectrum_condition(s),
                "kappa_down": None if "down" in b_layer.per_head else condition_number(
                    down.reshape(len(down), -1)),
            })
        except (ShapeError, RangeError, DegenerateInputError) as exc:
            raise type(exc)(f"layer {i}: {exc}") from exc
        spectra.append(s)
    ranks = [e["r"] for e in breakdown]
    kept = sum(float((s[:r] * s[:r]).sum()) for s, r in zip(spectra, ranks))
    total = sum(float((s * s).sum()) for s in spectra)
    paper_den = sum(e["h"] * e["r"] * (e["m"] + e["n"]) + e["h"] * (e["r"] + 1)
                    for e in breakdown)
    if influences is None:
        influences = LayerInfluence.uniform(len(spectra))
    actual = inherited.param_count()
    teacher_count = teacher.param_count()
    return TheoryReport(
        rho_paper=sum(e["m"] * e["n"] for e in breakdown) / paper_den,
        param_count_actual=actual,
        param_count_teacher=teacher_count,
        rho_actual=teacher_count / actual,
        spectral_energy_ratio=kept / total,
        eckart_young_error=float(np.sqrt(total - kept)),
        epsilon=1.0 - kept / total,
        kappa=max(e["kappa"] for e in breakdown),
        preservation_lower_bound=preservation_bound(influences, spectra, ranks),
        per_layer_breakdown=breakdown,
    )


def output_cosine_similarity(net_a: Network, net_b: Network, x: np.ndarray) -> float:
    """Mean per-sample cosine similarity of two networks' outputs.

    Empirical diagnostic only; this is not the similarity quantity the
    preservation bound refers to, which is never computed directly.
    """
    a = net_a.forward(x)
    b = net_b.forward(x)
    num = np.sum(a * b, axis=1)
    den = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    ok = den > 0
    if not np.any(ok):
        raise DegenerateInputError("all outputs are zero vectors")
    return float(np.mean(num[ok] / den[ok]))


def _check_spectrum(full_spectrum, r: int | None = None, zero_ok: bool = False) -> np.ndarray:
    """``full_spectrum`` as a float64 vector: nonempty, nonnegative and
    nonincreasing, with a finite sum of squares, and not all zero unless
    ``zero_ok``. A rank ``r``, when given, must be an integer in [1, size]."""
    s = np.asarray(full_spectrum, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise ShapeError(f"spectrum must be a nonempty vector, got shape {s.shape}")
    with np.errstate(over="ignore"):
        if not np.isfinite(s @ s):
            raise RangeError("spectrum holds NaN or Inf, or its squares sum past float64")
    if np.any(s < 0) or np.any(s[:-1] < s[1:]):
        raise RangeError("spectrum must be nonnegative and nonincreasing")
    if s[0] == 0.0 and not zero_ok:
        raise DegenerateInputError("spectral energy of an all-zero spectrum")
    if r is not None and not 1 <= require_index("rank", r) <= s.size:
        raise RangeError(f"rank {r} out of range [1, {s.size}]")
    return s
