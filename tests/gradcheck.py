"""Central finite differences for the tests' gradient checks."""

import numpy as np

from mulr.errors import NumericError


def grad_check(loss_fn, params: dict[str, np.ndarray],
               analytic: dict[str, np.ndarray], step: float = 1e-4,
               rng: np.random.Generator | None = None,
               max_samples_per_param: int = 16) -> float:
    """Central finite differences against analytic gradients.

    ``loss_fn`` recomputes the scalar loss from the current contents of
    ``params`` (which are perturbed in place and restored). Returns the
    maximum relative error over the sampled coordinates.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for name in sorted(params):
        p = params[name]
        a = analytic[name]
        flat_p = p.reshape(-1)
        flat_a = a.reshape(-1)
        n = flat_p.size
        if n <= max_samples_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_samples_per_param, replace=False)
        for idx in coords:
            orig = flat_p[idx]
            flat_p[idx] = orig + step
            up = loss_fn()
            flat_p[idx] = orig - step
            down = loss_fn()
            flat_p[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError("non-finite loss during gradient check")
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(flat_a[idx]), abs(numeric), 1e-3)
            worst = max(worst, abs(flat_a[idx] - numeric) / denom)
    return worst
