"""Check every analytic gradient in the two networks against central
finite differences. A relative error near 1e-7 is the noise floor of the
finite difference itself; anything under 1e-5 counts as exact here.

The networks run through the calls training makes, each given a list of
one fold.

Run:  python3 demos/gradient_checking.py
"""

import numpy as np

from hiersum import grad_check, init_policy, substream
from hiersum.policy import (
    log_prob_score_grad,
    manager_forward,
    manager_loss_backward,
    manager_param_names,
    worker_backward,
    worker_forward,
    worker_param_names,
)

store = init_policy(5, 4, substream(12, "init"))
feats = substream(12, "x").normal(size=(6, 5))
labels = np.array([1.0, 0.0, 1.0])


def manager_loss():
    fwds = manager_forward([store], [feats], 2)
    return manager_loss_backward([store], fwds, [labels])[0]


print("Manager: mean binary cross-entropy of subtask probabilities")
report = grad_check(manager_loss, store, names=manager_param_names(store))
for name, err in report["per_param"].items():
    print(f"  {name:18s} rel err {err:.2e}")
print(f"  max {report['max_rel_error']:.2e}  ok={report['ok']}")

subgoals = manager_forward([store], [feats], 2)[0].subgoals
actions = np.array([1, 0, 1, 1, 0, 0], dtype=np.float64)


def worker_loss():
    fwds = worker_forward([store], [feats], [subgoals], 2)
    scores = fwds[0].scores
    # log-probability of the actions under one Bernoulli draw per frame
    loss = float(np.sum(actions * np.log(scores) + (1.0 - actions) * np.log1p(-scores)))
    worker_backward([store], fwds, [log_prob_score_grad(scores, actions)])
    return loss


print("\nWorker: log-probability of one sampled action sequence")
report = grad_check(worker_loss, store, names=worker_param_names(store))
for name, err in report["per_param"].items():
    print(f"  {name:18s} rel err {err:.2e}")
print(f"  max {report['max_rel_error']:.2e}  ok={report['ok']}")
