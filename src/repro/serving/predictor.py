"""Generation-length prediction for size-aware scheduling.

SJF needs each waiting request's *remaining* generation length, which the
simulator knows exactly (``Request.gen_len``) but a real serving stack
does not — production schedulers rank on a *predicted* length and eat the
mispredictions.  This module makes that gap measurable:

* :class:`OracleLengthPredictor` — returns the true remaining tokens.
  It is the default everywhere, and the byte-identity baseline: a run
  scheduled with it is exactly the run the oracle ``SJFPolicy`` produces.
* :class:`BucketedQuantilePredictor` — the learned predictor: an online,
  per-``(model, prompt-bucket)`` empirical distribution of *completed*
  generation lengths.  Prediction is a nearest-rank quantile of the
  bucket's observed lengths (median by default — the minimizer of
  expected absolute ranking error); buckets with no history fall back to
  a configurable prior.  Fitting is one list-append per finished request:
  every completion updates exactly one bucket (the conservation property
  the tests pin).

Mispredict accounting: the first prediction made for a request is frozen
(that is the number the scheduler acted on) and compared against the true
length when the request completes.  :meth:`LengthPredictor.stats`
summarises the deltas — observations, mean ``|predicted - actual|`` and
the mispredict rate (fraction mispredicted by more than
``mispredict_margin`` relative) — and the multi-model bench reports it.

Everything is deterministic: quantiles use the same exact nearest-rank
arithmetic as the SLO metrics, and there is no RNG anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ServingError
from repro.obs.registry import exact_nearest_rank
from repro.serving.request import Request


class LengthPredictor:
    """Interface: predict remaining tokens, learn from completions."""

    name = "oracle"
    #: True when predictions can change as the predictor learns — the
    #: scheduler must then re-rank the queue instead of relying on a
    #:  waiting-time-constant sort key.
    learned = False

    def predict(self, req: Request) -> float:  # reach: the oracle; shipped sjf-predict learns (tests/test_serving_multimodel.py::test_k1_predicted_sjf_oracle_matches_sjf)
        """Predicted *remaining* generation tokens for ``req``."""
        return float(req.remaining_tokens)

    def observe(self, req: Request) -> None:
        """Learn from a finished request (no-op for the oracle)."""

    # -- mispredict accounting (shared) ---------------------------------

    def stats(self) -> dict[str, float]:  # reach: the oracle's all-zero ledger; shipped sjf-predict learns
        """Summary of the mispredict ledger (all zeros for the oracle)."""
        return {
            "observations": 0,
            "mean_abs_error": 0.0,
            "mispredict_rate": 0.0,
        }


class OracleLengthPredictor(LengthPredictor):
    """The simulator's omniscient baseline: true remaining tokens.

    Scheduling with this predictor is byte-identical to the oracle
    :class:`~repro.serving.policies.SJFPolicy` (tested), which is what
    makes the learned predictor's cost measurable as a diff.
    """


@dataclass
class BucketedQuantilePredictor(LengthPredictor):
    """Online per-(model, prompt-bucket) empirical quantile predictor.

    ``predict`` estimates the request's *total* generation length as the
    ``quantile``-th nearest-rank percentile of the lengths completed so
    far in the request's bucket (falling back to ``prior_gen_len`` while
    the bucket is empty), then subtracts the tokens already generated —
    so preempted requests keep sinking toward the front as they near
    completion, the same property the oracle ranking has.
    """

    #: Prompt lengths are bucketed by rounding down to a multiple of this
    #: (so 1..63 share bucket 0 at the default width of 64).
    prompt_bucket: int = 64
    #: Nearest-rank percentile of the bucket's completed lengths used as
    #: the point prediction (50 = median).
    quantile: float = 50.0
    #: Prediction for a bucket with no completions yet.
    prior_gen_len: float = 32.0
    #: A request counts as mispredicted when
    #: ``|predicted - actual| > mispredict_margin * actual``.
    mispredict_margin: float = 0.5

    name: str = field(default="bucketed", init=False)
    learned: bool = field(default=True, init=False)

    _samples: dict[tuple[str, int], list[int]] = field(
        default_factory=dict, repr=False
    )
    #: rid -> (frozen first prediction of the *total* length, model, bucket).
    _first_prediction: dict[int, float] = field(default_factory=dict, repr=False)
    _abs_errors: list[float] = field(default_factory=list, repr=False)
    _mispredicts: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.prompt_bucket <= 0:
            raise ServingError("predictor: prompt_bucket must be positive")
        if not 0 <= self.quantile <= 100:
            raise ServingError("predictor: quantile must be in [0, 100]")
        if self.prior_gen_len <= 0:
            raise ServingError("predictor: prior_gen_len must be positive")
        if self.mispredict_margin < 0:
            raise ServingError("predictor: mispredict_margin must be >= 0")

    # -- bucketing -------------------------------------------------------

    def bucket_of(self, req: Request) -> tuple[str, int]:
        return (req.model, (req.prompt_len // self.prompt_bucket))

    # -- predict / observe ----------------------------------------------

    def predict_total(self, req: Request) -> float:
        """Predicted *total* generation length for ``req``'s bucket."""
        samples = self._samples.get(self.bucket_of(req))
        if not samples:
            return self.prior_gen_len
        return exact_nearest_rank([float(v) for v in samples], self.quantile)

    def predict(self, req: Request) -> float:
        total = self.predict_total(req)
        if req.rid not in self._first_prediction:
            # Freeze the number the scheduler first acted on: that is the
            # prediction whose error the mispredict ledger charges.
            self._first_prediction[req.rid] = total
        return max(1.0, total - req.tokens_done)

    def observe(self, req: Request) -> None:
        """Fold one *finished* request into its bucket and settle its
        mispredict delta.  Exactly one bucket gains exactly one sample per
        call (the conservation property)."""
        predicted = self._first_prediction.pop(req.rid, None)
        if predicted is not None:
            error = abs(predicted - req.gen_len)
            self._abs_errors.append(error)
            if error > self.mispredict_margin * req.gen_len:
                self._mispredicts += 1
        self._samples.setdefault(self.bucket_of(req), []).append(req.gen_len)

    # -- accounting ------------------------------------------------------

    def stats(self) -> dict[str, float]:
        n = len(self._abs_errors)
        return {
            "observations": n,
            "mean_abs_error": (sum(self._abs_errors) / n) if n else 0.0,
            "mispredict_rate": (self._mispredicts / n) if n else 0.0,
        }
