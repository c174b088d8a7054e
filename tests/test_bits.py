"""Bit pins of whole results, on whichever kernel twin is active.

A kernel change that claims to keep every double must keep these: the
float.hex of each energy's value, error estimate and per-mode parts, its
wave and evaluation counts, and two closed-form forces. The inputs are
four figure-grid energies, one small-gap energy and two forces of the
benchmark's force workload; two single-mode energies, which take the node
fills that make only TE's chains and the ones that make TM's too; the
massive small-gap energy, which has the longest Miller runs and the most
massive TM node fills of the benchmark's inputs; a TE-only and a TM-only
force, the derivative sums of one mode each; and one massive TM wave,
bisected down to 316 node evaluations, more than the pure twin's node
table holds (256), so that its fills pass the table's cap. Every pin was
made by version 0.10.0, whose frames (a power-of-two edge, shared by the
blocks that round up to it, and panels graded toward 0) moved the bits of
every result; both twins give them, since the twins are bit-identical.
"""

import pytest

from procasphere import ProblemSpec, energy, force, l_term

ENERGY_PINS = [
    ((1.15, 0.0, 1e-07), ('-0x1.697a8698797e0p+8', '0x1.1474eea7a40b3p-14',
                          '-0x1.67c2ff56aa62dp+7', '-0x1.6b320dda48993p+7',
                          69, 5454)),
    ((1.3, 0.5, 1e-07), ('-0x1.7d39fad7eb29ap+5', '0x1.5cc5d16c0aa9fp-19',
                         '-0x1.784f69ef31570p+4', '-0x1.82248bc0a4fc4p+4',
                         39, 3054)),
    ((1.5, 5.0, 1e-07), ('-0x1.95862f8e95d19p-1', '0x1.285e0425ff4bdp-26',
                         '-0x1.87730cd560a22p-2', '-0x1.a3995247cb00fp-2',
                         29, 2204)),
    ((2.0, 0.5, 1e-07), ('-0x1.4170521905b56p+0', '0x1.d814a39c66603p-28',
                         '-0x1.329c828ba8dd7p-1', '-0x1.504421a6628d4p-1',
                         17, 1382)),
    ((1.05, 0.0, 1e-05), ('-0x1.1b5770431ebbep+13', '0x1.929fe181a350fp-1',
                          '-0x1.1b2708eae2e7bp+12', '-0x1.1b87d79b5a902p+12',
                          130, 10060)),
    ((1.03, 0.5, 1e-05), ('-0x1.4218092e39a70p+15', '0x1.b3766439b82ecp+2',
                          '-0x1.42036c2846c6ap+14', '-0x1.422ca6342c876p+14',
                          203, 15878)),
]

MODE_PINS = [
    ((1.5, 0.5, 1e-07, "te"), ('-0x1.4b8c4449d0a10p+2', '0x1.1ed3825ea2e96p-24',
                               27, 2082)),
    ((1.5, 0.5, 1e-07, "tm"), ('-0x1.5c289b8b3844fp+2', '0x1.66909fffc90bcp-24',
                               27, 2082)),
]

FORCE_PINS = [
    ((1.3, 0.5, 1e-4), '-0x1.cf4d982209f00p+8'),
    ((2.0, 0.0, 1e-4), '-0x1.1c214a85c6bb3p+2'),
]

MODE_FORCE_PINS = [
    ((1.5, 5.0, 1e-4, "te"), '-0x1.3eb0cdebfc9c5p+2'),
    ((1.5, 5.0, 1e-4, "tm"), '-0x1.5292643065206p+2'),
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


def test_over_cap_wave_bits():
    spec = ProblemSpec(ratio=1.5, mu=0.5, rel_tol=1e-13)
    assert l_term(spec, 3).hex() == '-0x1.e8a1aa440d064p+0'
