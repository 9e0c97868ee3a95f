import numpy as np
import pytest

from obsmask import bitcommit, samplers

DIMS = [2, 3, 4, 8, 16]


def _gaussian(rng, shape):
    # the complex Gaussian every sampler starts from: real part, then imaginary
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _single_haar(rng, d):
    """QR of one complex Gaussian with the phases of R fixed, as a single
    unitary has always been drawn."""
    q, r = np.linalg.qr(_gaussian(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _single_hermitian(rng, d):
    g = _gaussian(rng, (d, d))
    return (g + g.conj().T) / 2


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_single_draws_keep_their_definition(d):
    # the seeded stream of every pinned report starts here
    got, want = np.random.default_rng(d), np.random.default_rng(d)
    assert _same_bits(samplers.haar_unitary(got, d), _single_haar(want, d))
    assert _same_bits(samplers.hermitian(got, d), _single_hermitian(want, d))
    g = _gaussian(want, (d, d))
    rho = g @ g.conj().T
    assert _same_bits(samplers.density(got, d), rho / np.trace(rho).real)
    assert got.random() == want.random()


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("size", [(1,), (3,), (2, 3)])
def test_unitary_stack_equals_single_draws(d, size):
    stack = samplers.haar_unitary(np.random.default_rng(10 + d), d, size=size)
    rng = np.random.default_rng(10 + d)
    singles = np.stack([_single_haar(rng, d) for _ in range(int(np.prod(size)))])
    assert _same_bits(stack, singles.reshape(*size, d, d))


@pytest.mark.parametrize("d", DIMS)
def test_hermitian_stack_equals_single_draws(d):
    n = bitcommit.DEMO_OBSERVABLES
    stack = samplers.hermitian_stack(np.random.default_rng(20 + d), d, n)
    rng = np.random.default_rng(20 + d)
    assert _same_bits(stack, np.stack([samplers.hermitian(rng, d) for _ in range(n)]))


@pytest.mark.parametrize("d", DIMS)
def test_demo_observables_equal_single_draws(d):
    # after the commitment pair, as the demo draws them
    got, want = np.random.default_rng(30 + d), np.random.default_rng(30 + d)
    bitcommit.random_commitment_pair(got, d)
    stack = samplers.hermitian_stack(got, d, bitcommit.DEMO_OBSERVABLES)
    want.random(d)
    for _ in range(3):
        _single_haar(want, d)
    singles = [_single_hermitian(want, d) for _ in range(bitcommit.DEMO_OBSERVABLES)]
    assert _same_bits(stack, np.stack(singles))


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_hermitian_batch_draws_real_parts_first(d, scale):
    # the batch order the acceptance criteria and the invariant registry
    # (and so `selftest`) draw through
    n = 7
    batch = samplers.hermitian(np.random.default_rng(d), d, size=(n,), scale=scale)
    rng = np.random.default_rng(d)
    real = rng.normal(size=(n, d, d))
    g = real + 1j * rng.normal(size=(n, d, d))
    assert _same_bits(batch, (g + np.swapaxes(g.conj(), -1, -2)) * (scale / 2))
