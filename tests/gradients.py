"""Policy-gradient fields of a ``TabularPolicy`` as numpy arrays.

Thin wrappers over the tangents ``simulate.flow_step`` integrates, so a
test can compare one flow step against the gradient it composes.
"""

from __future__ import annotations

import numpy as np

from trajreward.simulate import TabularPolicy, _floats, _kl_tangent, _tangent, softmax


def exact_policy_gradient(policy: TabularPolicy, rewards: np.ndarray) -> np.ndarray:
    """Exact objective gradient: component y is pi(y) * (r(y) - E_pi[r])."""
    return np.array(_tangent(softmax(_floats(policy.logits)), _floats(rewards)))


def kl_gradient(policy: TabularPolicy, ref_log_probs: np.ndarray) -> np.ndarray:
    """Gradient of KL(pi_theta || pi_ref) with respect to the logits."""
    return np.array(_kl_tangent(softmax(_floats(policy.logits)), _floats(ref_log_probs)))


def policy_velocity(probs: np.ndarray, rewards: np.ndarray) -> np.ndarray:
    """Closed-form d pi / dt under the exact gradient flow.

    pi(y)^2 (r(y) - E[r]) - pi(y) * sum_y' pi(y')^2 (r(y') - E[r]),
    which is the tangent of the logit gradient g: pi(y) * (g(y) - E[g]).
    """
    p = _floats(probs)
    return np.array(_tangent(p, _tangent(p, _floats(rewards))))
