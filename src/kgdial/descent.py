"""Full-batch gradient descent shared by the detector and selector trainers."""

import math

import numpy as np

# Step halvings tried per epoch before the line search keeps the weights.
MAX_HALVINGS = 60
# Largest descent schedule: the loss trajectory holds epochs + 1 floats.
MAX_EPOCHS = 1_000_000


def check_schedule(lr: float, epochs: int) -> None:
    """Reject a descent schedule: ``epochs`` outside [0, ``MAX_EPOCHS``], or ``lr`` negative or not finite.

    ``lr`` = 0 is allowed: the weights then stay at their initialization.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if epochs > MAX_EPOCHS:
        raise ValueError(f"epochs must be <= {MAX_EPOCHS}, got {epochs}")
    if not (math.isfinite(lr) and lr >= 0):
        raise ValueError(f"lr must be finite and >= 0, got {lr}")


def _scored_once(score):
    """``score`` memoized on the last weight vector it was called with (the object itself).

    The descent scores each trial once, for its loss; when the trial is kept,
    the next epoch's gradient is taken at that same object, so a loss and a
    gradient both built on the memoized ``score`` share one forward pass.
    """
    last = [None, None]

    def scored(weights):
        if last[0] is not weights:
            last[:] = weights, score(weights)
        return last[1]

    return scored


def _descend(loss, gradient, w0, lr: float, epochs: int, line_search: bool):
    """Descend on ``loss`` (with gradient ``gradient``) from ``w0`` for ``epochs`` steps.

    Without ``line_search`` every step is ``lr`` times the gradient. With it
    the step starts at ``lr`` and is halved, up to ``MAX_HALVINGS`` tries,
    until the loss does not increase; if no try qualifies the weights stay
    put. Returns the final weights and the loss trajectory (epochs + 1
    entries, the first at ``w0``).

    An epoch that leaves the weights bit-for-bit unchanged (a step that
    rounds away, or a line search that rejects every try) ends the loop:
    each epoch's step is a function of the weights alone, so every later
    epoch would repeat it. The trajectory is padded with the current loss,
    and both results are those of running all ``epochs``. A line search
    that rejects every try at epoch 1 raises ValueError instead: the step
    never got small enough, and the weights would stay at ``w0``.

    Numpy's overflow and invalid-value warnings are off inside the loop. A
    line search rejects a trial whose loss is not finite; a kept loss that
    is not finite (without line search every step is kept) raises
    ValueError naming the epoch.
    """
    weights = w0
    with np.errstate(over="ignore", invalid="ignore"):
        losses = [loss(weights)]
        for epoch in range(1, epochs + 1):
            previous = weights
            direction = gradient(weights)
            step, current = lr, losses[-1]
            for _ in range(MAX_HALVINGS if line_search else 1):
                trial = weights - step * direction
                trial_loss = loss(trial)
                if trial_loss <= current or not line_search:
                    weights, current = trial, trial_loss
                    break
                step /= 2
            if weights is previous and epoch == 1:  # the line search kept no trial
                raise ValueError(
                    f"line search rejected all {MAX_HALVINGS} steps at epoch 1, down to lr / 2**{MAX_HALVINGS - 1}; "
                    "lower the learning rate (--lr)"
                )
            if not math.isfinite(current):
                raise ValueError(
                    f"training diverged at epoch {epoch}: the loss is {current}; "
                    "lower the learning rate (--lr) or turn on line search (--line-search)"
                )
            losses.append(current)
            if weights.tobytes() == previous.tobytes():
                losses.extend([current] * (epochs + 1 - len(losses)))
                break
    return weights, losses
