"""Randomized TAGE-SC-L determinism and fold-path equivalence.

``TageSCL.predict``/``update`` take an optional ``folds`` argument: the
history-maintained fold values of an attached ``SpeculativeHistory``. The
timing core passes them; the functional fast-forward
(``repro.sampling.fastforward``) does not, and the predictor recomputes
(and memoises) the same folds itself. Both paths must be bit-identical on
*any* predict/update sequence — every Prediction triple and the full
storage snapshot, including the allocation RNG state — and a
snapshot/restore round trip mid-sequence must change nothing.

The prediction trail and final snapshot of every configuration are also
pinned by sha256, so a behaviour change in either path fails here even
when it changes both paths alike.

The sequences here are randomized but seeded, so a failure is a
reproducible counterexample, not a flake.
"""

import hashlib
import json
import random

import pytest

from repro.branch.history import SpeculativeHistory
from repro.branch.tage import TageSCL
from repro.common.config import TageConfig

CONFIGS = {
    "full": dict(),
    "no_sc": dict(enable_sc=False),
    "no_loop": dict(enable_loop_predictor=False),
    "tage_only": dict(enable_sc=False, enable_loop_predictor=False),
}

#: sha256 of (prediction trail, final snapshot) after
#: ``drive(seed=1234, steps=1_500)``, identical with and without folds
PINNED = {
    "full": (
        "06054f073491b014cbdaafc481a8ecf2045c191dc15e55006310513f496833d5",
        "f92c513f2f9df0491c067562ffa40ba307a89c3064fe8b82eb8db81c19bfaa6c"),
    "no_sc": (
        "06054f073491b014cbdaafc481a8ecf2045c191dc15e55006310513f496833d5",
        "fd79ea8a91fe30c1b9bc05c57922ce8c31d35b1333d5ec007cd822f9891fbd16"),
    "no_loop": (
        "7bfb543118fa25fc3c1b046cb2080ffc53b4bf58d99dadc6b62f8902b8444dd9",
        "f2a0ca0ff928ade0343b80777fa32f70e90d75703808800b64539a5e130a82a3"),
    "tage_only": (
        "7bfb543118fa25fc3c1b046cb2080ffc53b4bf58d99dadc6b62f8902b8444dd9",
        "c47cbe8ab538845752e591eb683d78ea72c58a52f6e5232ec21b129b4edd5c5d"),
}


def make_config(key) -> TageConfig:
    return TageConfig(num_tables=5, table_log_size=7, bimodal_log_size=9,
                      max_history=64, sc_log_size=6, loop_log_size=5,
                      **CONFIGS[key])


def make_predictor(key) -> TageSCL:
    return TageSCL(make_config(key), seed=99)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def make_history(predictor, use_folds: bool) -> SpeculativeHistory:
    hist = SpeculativeHistory(64)
    if use_folds:
        ghr_specs, path_specs = predictor.fold_specs()
        hist.attach_folds(ghr_specs, path_specs)
    return hist


def stimulus(seed: int, steps: int):
    """A seeded branch stream: few PCs, mixed biases, some loop-shaped."""
    rng = random.Random(seed)
    pcs = [rng.randrange(0x1000, 0x40000) & ~3 for _ in range(24)]
    bias = {pc: rng.choice((0.05, 0.3, 0.5, 0.8, 0.97)) for pc in pcs}
    backward = {pc: rng.random() < 0.3 for pc in pcs}
    trips = {pc: rng.randrange(3, 9) for pc in pcs}
    count = dict.fromkeys(pcs, 0)
    for _ in range(steps):
        pc = rng.choice(pcs)
        if backward[pc]:
            # loop shape: taken trip-1 times, then one not-taken
            count[pc] += 1
            taken = count[pc] % trips[pc] != 0
        else:
            taken = rng.random() < bias[pc]
        yield pc, taken, backward[pc]


def drive(predictor, seed: int, steps: int, use_folds: bool,
          roundtrip_every: int = 0):
    """Run a predict/update walk; returns the observed prediction trail.

    ``roundtrip_every > 0`` additionally snapshot/restores the predictor
    into itself every that-many steps, exercising the save path and the
    restore path mid-sequence (memoised state must be invalidated)."""
    hist = make_history(predictor, use_folds)
    trail = []
    for i, (pc, taken, backward) in enumerate(stimulus(seed, steps)):
        folds = hist.folds if use_folds else None
        pred = predictor.predict(pc, hist.ghr, hist.path, folds=folds)
        trail.append((pred.taken, pred.confidence, pred.provider))
        predictor.update(pc, hist.ghr, taken, hist.path,
                         backward=backward, folds=folds)
        hist.push(taken, pc)
        if roundtrip_every and i % roundtrip_every == roundtrip_every - 1:
            predictor.restore(predictor.snapshot())
    return trail


@pytest.mark.parametrize("config_key", sorted(CONFIGS))
def test_folds_match_recomputed_folds(config_key):
    """The attached-folds path and the self-folding path agree."""
    folded = make_predictor(config_key)
    plain = make_predictor(config_key)
    assert drive(folded, seed=1234, steps=1_500, use_folds=True) \
        == drive(plain, seed=1234, steps=1_500, use_folds=False)
    assert folded.snapshot() == plain.snapshot()


@pytest.mark.parametrize("config_key", sorted(CONFIGS))
@pytest.mark.parametrize("use_folds", [False, True],
                         ids=["no_folds", "folds"])
class TestPredictorBehaviour:
    def test_trail_and_snapshot_pinned(self, config_key, use_folds):
        predictor = make_predictor(config_key)
        trail = drive(predictor, seed=1234, steps=1_500,
                      use_folds=use_folds)
        assert (digest(trail), digest(predictor.snapshot())) \
            == PINNED[config_key]

    def test_roundtrips_do_not_disturb_state(self, config_key, use_folds):
        """Snapshot/restore mid-sequence is a no-op."""
        tripped = make_predictor(config_key)
        plain = make_predictor(config_key)
        assert drive(tripped, seed=71, steps=900, use_folds=use_folds,
                     roundtrip_every=113) \
            == drive(plain, seed=71, steps=900, use_folds=use_folds)
        assert tripped.snapshot() == plain.snapshot()
