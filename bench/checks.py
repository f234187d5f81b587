"""Output checks, written with the benchmark's own numpy and scipy.

Nothing here calls otkit: costs, couplings and exact optima are
recomputed independently from the generated inputs. A check raises
:class:`WrongOutput` when the program returned an answer that is wrong,
and :class:`OpFailed` when it returned none (it raised, did not
converge when asked to, or the CLI exited non-zero).
"""

from __future__ import annotations

import numpy as np


class OpFailed(Exception):
    """The operation produced no usable result."""


class WrongOutput(Exception):
    """The operation produced a result that fails its check."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise WrongOutput(message)


def cost_matrix(x: np.ndarray, y: np.ndarray, cost_fn: str) -> np.ndarray:
    sq = (x * x).sum(axis=1)[:, None] + (y * y).sum(axis=1)[None, :] - 2.0 * x @ y.T
    np.maximum(sq, 0.0, out=sq)
    return np.sqrt(sq) if cost_fn == "eucl" else sq


def plan_from_potentials(f: np.ndarray, g: np.ndarray, eps: float, cost: np.ndarray) -> np.ndarray:
    with np.errstate(invalid="ignore"):
        return np.exp((f[:, None] + g[None, :] - cost) / eps)


def exact_ot_uniform(cost: np.ndarray) -> float:
    """Exact OT value between uniform measures on n = m points."""
    # Imported here so that it adds nothing to the workers' peak memory,
    # which is read before any check runs.
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].sum()) / cost.shape[0]


def entropic_transport_cost(cost: np.ndarray, eps: float) -> float:
    """<P, C> of the entropic OT plan between uniform measures, solved afresh."""
    from scipy.special import logsumexp

    n, m = cost.shape
    log_a, log_b = -np.log(n), -np.log(m)
    g = np.zeros(m)
    for _ in range(10_000):
        f = eps * (log_a - logsumexp((g[None, :] - cost) / eps, axis=1))
        # Column sums of the plan of (f, g); its rows are exact after the f step.
        col_lse = logsumexp((f[:, None] - cost) / eps, axis=0)
        if np.abs(np.exp(g / eps + col_lse) - 1.0 / m).sum() <= 1e-7:
            break
        g = eps * (log_b - col_lse)
    return float((plan_from_potentials(f, g, eps, cost) * cost).sum())


def marginals(plan: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float, what: str) -> None:
    row = float(np.abs(plan.sum(axis=1) - a).sum())
    col = float(np.abs(plan.sum(axis=0) - b).sum())
    expect(row <= tol and col <= tol, f"{what}: marginal L1 errors {row:.3e}, {col:.3e} exceed {tol:.1e}")


def close(value: float, reference: float, rtol: float, what: str) -> None:
    expect(
        np.isfinite(value) and abs(value - reference) <= rtol * (1.0 + abs(reference)),
        f"{what}: {value!r} differs from {reference!r}",
    )


def sinkhorn_solution(f, g, eps, cost, a, b, threshold, transport_cost, uniform_square) -> np.ndarray:
    """Marginals within the solve threshold, cost = <C, P>, cost >= exact OT."""
    plan = plan_from_potentials(np.asarray(f), np.asarray(g), eps, cost)
    expect(bool(np.all(np.isfinite(plan))), "coupling from (f, g, eps) is not finite")
    marginals(plan, a, b, threshold, "sinkhorn")
    close(transport_cost, float((cost * plan).sum()), 1e-9, "transport cost")
    if uniform_square:
        # A plan off by at most `threshold` in L1 can undercut the optimum
        # by at most threshold * max(C).
        floor = exact_ot_uniform(cost) - threshold * float(cost.max())
        expect(transport_cost >= floor, f"transport cost {transport_cost!r} is below the exact OT value {floor!r}")
    return plan


def grad_points(grad: np.ndarray, plan: np.ndarray, x: np.ndarray, y: np.ndarray) -> None:
    reference = 2.0 * (plan.sum(axis=1)[:, None] * x - plan @ y)
    scale = 1.0 + float(np.abs(reference).max())
    expect(
        grad.shape == x.shape and float(np.abs(grad - reference).max()) <= 1e-9 * scale,
        "grad_points differs from 2 (diag(P1) x - P y)",
    )


def monotone_within(values, lo: float, hi: float, what: str) -> None:
    values = np.asarray(values, dtype=float)
    slack = 1e-9 * (1.0 + max(abs(lo), abs(hi)))
    expect(bool(np.all(np.isfinite(values))), f"{what}: non-finite entries")
    expect(bool(np.all(np.diff(values) >= -slack)), f"{what}: not monotone")
    expect(float(values.min()) >= lo - slack and float(values.max()) <= hi + slack, f"{what}: outside [{lo}, {hi}]")


def soft_ranks(ranks, x: np.ndarray, what: str) -> None:
    """Soft ranks lie in [0, n-1] and increase with the input values."""
    ranks = np.asarray(ranks, dtype=float)
    expect(ranks.shape == x.shape, f"{what}: shape {ranks.shape}")
    monotone_within(ranks[np.argsort(x, kind="stable")], 0.0, x.size - 1.0, what)


def pairing(plan: np.ndarray, partner: np.ndarray, what: str, share: float = 0.9) -> None:
    """Row-argmax recovers the planted correspondence on `share` of points."""
    hit = float(np.mean(np.asarray(plan).argmax(axis=1) == partner))
    expect(hit >= share, f"{what}: row-argmax recovers {hit:.0%} of the pairing (need {share:.0%})")


def low_rank(q, r, g, a, b, cost, transport_cost) -> None:
    """Factor marginals within 1e-6; exact OT <= low-rank cost <= a^T C b."""
    worst = max(
        float(np.abs(q.sum(axis=1) - a).sum()),
        float(np.abs(r.sum(axis=1) - b).sum()),
        float(np.abs(q.sum(axis=0) - g).sum()),
        float(np.abs(r.sum(axis=0) - g).sum()),
    )
    expect(worst <= 1e-6, f"low-rank factor marginal error {worst:.3e} exceeds 1e-6")
    close(transport_cost, float(np.sum(q * (cost @ (r / g[None, :])))), 1e-9, "low-rank cost")
    slack = 1e-6 * float(cost.max())
    exact = exact_ot_uniform(cost)
    independent = float(a @ cost @ b)
    expect(
        exact - slack <= transport_cost <= independent + slack,
        f"low-rank cost {transport_cost!r} outside [exact {exact!r}, independent {independent!r}]",
    )


def probability_vector(p, size: int, what: str) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    expect(p.shape == (size,), f"{what}: shape {p.shape}, expected ({size},)")
    expect(bool(np.all(p >= 0)) and abs(float(p.sum()) - 1.0) <= 1e-9, f"{what}: not a probability vector")
    return p
