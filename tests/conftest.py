import ctypes
import gc
from pathlib import Path

import numpy as np
import pytest

import advbundle as ab


def binary_linear(w, bias=0.0):
    """Two-class linear model: class-0 logit fixed at 0, class-1 logit w.x + bias."""
    w = np.asarray(w, dtype=np.float64)
    W = np.zeros((w.shape[0], 2))
    W[:, 1] = w
    return ab.ModelParams("softmax_linear", W, np.array([0.0, bias]))


def random_linear(rng, d, k=2, scale=1.0):
    return ab.ModelParams("softmax_linear",
                          rng.normal(0.0, scale, size=(d, k)),
                          rng.normal(0.0, scale, size=k))


def random_mlp(rng, d, k=2, h=6, scale=0.7):
    return ab.ModelParams("mlp1",
                          rng.normal(0.0, scale, size=(d, h)),
                          rng.normal(0.0, scale, size=h),
                          rng.normal(0.0, scale, size=(h, k)),
                          rng.normal(0.0, scale, size=k))


def stable_softmax(logits):
    """Independent softmax used by test oracles."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_loss(params, x, label):
    """Cross-entropy computed from scratch (floored like the library's)."""
    x = np.asarray(x, dtype=np.float64)
    if params.architecture == "softmax_linear":
        logits = x @ params.W1 + params.b1
    else:
        hidden = np.maximum(x @ params.W1 + params.b1, 0.0)
        logits = hidden @ params.W2 + params.b2
    p = stable_softmax(logits)[label]
    return -np.log(max(float(p), 1e-12))


def openblas_core() -> str:
    """The core (kernel set) numpy's bundled OpenBLAS runs on this host, such as
    SkylakeX, or "unknown" where its library or the symbol is absent. Recorded
    output bytes hold for one core, so a golden-byte failure names it."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


@pytest.fixture(autouse=True)
def collect_after_main():
    """Thaw the collector after each test. `advbundle.cli.main` freezes it at its
    first exit in a process, and freezes it only once; the suite keeps running, so
    it collects, and finalizes what it frees, as it would without that call."""
    yield
    gc.unfreeze()


@pytest.fixture(scope="session")
def blobs_2c():
    return ab.synth_dataset(200, 2, 2, seed=7)


@pytest.fixture(scope="session")
def linear_on_blobs(blobs_2c):
    hp = ab.TrainParams(learning_rate=0.1, epochs=200, batch_size=32, seed=7)
    return ab.train(blobs_2c, "softmax_linear", hp)


@pytest.fixture(scope="session")
def small_blobs():
    return ab.synth_dataset(80, 2, 3, seed=3)


@pytest.fixture(scope="session")
def mlp_on_small_blobs(small_blobs):
    hp = ab.TrainParams(learning_rate=0.3, epochs=150, batch_size=16, seed=5, hidden=12)
    return ab.train(small_blobs, "mlp1", hp)
