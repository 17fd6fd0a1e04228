"""Trivial direction predictors: static and oracle, for ablations."""

from __future__ import annotations

from .base import DirectionPredictor


class StaticPredictor(DirectionPredictor):
    """Always predicts the same direction (default: taken)."""

    def __init__(self, taken: bool = True) -> None:
        super().__init__()
        self.direction = taken

    def predict(self, pc: int) -> bool:
        return self.direction

    def update(self, pc: int, taken: bool) -> None:
        pass


class PerfectPredictor(DirectionPredictor):
    """Oracle predictor: primed with the outcome before each prediction.

    :meth:`predict_and_update`, the call fetch makes with the trace's
    ground-truth direction, primes the predictor with that direction
    before predicting, so callers need not know which predictor they
    drive.  This models a machine with no direction mispredictions,
    used to isolate the cost of REESE from branch effects in ablation
    studies.  A bare :meth:`predict` (wrong-path fetch) returns the
    last primed direction.
    """

    def __init__(self) -> None:
        super().__init__()
        self._next: bool = False

    def prime(self, taken: bool) -> None:
        self._next = taken

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        self.prime(taken)
        return super().predict_and_update(pc, taken)

    def predict(self, pc: int) -> bool:
        return self._next

    def update(self, pc: int, taken: bool) -> None:
        pass
