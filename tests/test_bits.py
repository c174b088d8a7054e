"""Bit pins of whole results, on whichever kernel twin is active.

A kernel change that claims to keep every double must keep these: the
float.hex of each energy's value, error estimate and per-mode parts, its
wave and evaluation counts, and two closed-form forces. The inputs are
four figure-grid energies, one small-gap energy and two forces of the
benchmark's force workload. The pins were made by version 0.8.2; both
twins give them, since the twins are bit-identical. Two single-mode
energies, pinned by version 0.9.1, take the node fills that make only
TE's chains and the ones that make TM's too. The massive small-gap
energy, pinned by version 0.9.3, has the longest Miller runs and the most
massive TM node fills of the benchmark's inputs. A TE-only and a TM-only
force, pinned by version 0.9.4, are the derivative sums of one mode each.
"""

import pytest

from procasphere import ProblemSpec, energy, force

ENERGY_PINS = [
    ((1.15, 0.0, 1e-07), ('-0x1.697a8698797e2p+8', '0x1.13508781801afp-14',
                          '-0x1.67c2ff56aa62fp+7', '-0x1.6b320dda48995p+7',
                          69, 5484)),
    ((1.3, 0.5, 1e-07), ('-0x1.7d39fad7eb262p+5', '0x1.4ebdf1f764f4bp-19',
                         '-0x1.784f69ef315ffp+4', '-0x1.82248bc0a4ec6p+4',
                         39, 3144)),
    ((1.5, 5.0, 1e-07), ('-0x1.95862f8e95d10p-1', '0x1.2888e943518c0p-26',
                         '-0x1.87730cd560a22p-2', '-0x1.a3995247caffcp-2',
                         29, 2234)),
    ((2.0, 0.5, 1e-07), ('-0x1.4170521905ca1p+0', '0x1.accb51be245ecp-29',
                         '-0x1.329c828ba8d17p-1', '-0x1.504421a662c2cp-1',
                         17, 1352)),
    ((1.05, 0.0, 1e-05), ('-0x1.1b5770431e8f5p+13', '0x1.92d5229536b2cp-1',
                          '-0x1.1b2708eae3293p+12', '-0x1.1b87d79b59f56p+12',
                          130, 10300)),
    ((1.03, 0.5, 1e-05), ('-0x1.4218092e3a189p+15', '0x1.b39a7b3bb967cp+2',
                          '-0x1.42036c2846dbep+14', '-0x1.422ca6342d555p+14',
                          203, 16178)),
]

MODE_PINS = [
    ((1.5, 0.5, 1e-07, "te"), ('-0x1.4b8c4449d094cp+2', '0x1.471ba28b9a34fp-24',
                               27, 2112)),
    ((1.5, 0.5, 1e-07, "tm"), ('-0x1.5c289b8b38492p+2', '0x1.2c6ea04ee01e5p-24',
                               27, 2172)),
]

FORCE_PINS = [
    ((1.3, 0.5, 1e-4), '-0x1.cf4d982209f11p+8'),
    ((2.0, 0.0, 1e-4), '-0x1.1c214a85c6bb0p+2'),
]

MODE_FORCE_PINS = [
    ((1.5, 5.0, 1e-4, "te"), '-0x1.3eb0cdebfc9c6p+2'),
    ((1.5, 5.0, 1e-4, "tm"), '-0x1.5292643065200p+2'),
]


@pytest.mark.parametrize("case, pin", ENERGY_PINS)
def test_energy_bits(case, pin):
    ratio, mu, rel_tol = case
    r = energy(ProblemSpec(ratio=ratio, mu=mu, rel_tol=rel_tol))
    got = (r.value.hex(), r.abs_error_estimate.hex(), r.te.hex(), r.tm.hex(),
           r.l_used, r.integrand_evals)
    assert got == pin


@pytest.mark.parametrize("case, pin", MODE_PINS)
def test_single_mode_energy_bits(case, pin):
    ratio, mu, rel_tol, mode = case
    r = energy(ProblemSpec(ratio=ratio, mu=mu, rel_tol=rel_tol, mode=mode))
    part = r.te if mode == "te" else r.tm
    assert (r.te is None) == (mode == "tm") and part == r.value
    got = (r.value.hex(), r.abs_error_estimate.hex(), r.l_used,
           r.integrand_evals)
    assert got == pin


@pytest.mark.parametrize("case, pin", FORCE_PINS)
def test_force_bits(case, pin):
    ratio, mu, rel_tol = case
    assert force(ProblemSpec(ratio=ratio, mu=mu, rel_tol=rel_tol)).hex() == pin


@pytest.mark.parametrize("case, pin", MODE_FORCE_PINS)
def test_single_mode_force_bits(case, pin):
    ratio, mu, rel_tol, mode = case
    spec = ProblemSpec(ratio=ratio, mu=mu, rel_tol=rel_tol, mode=mode)
    assert force(spec).hex() == pin
