"""The Cartan suite against its per-check form, and the operator calls it
makes."""

import numpy as np
import pytest

from coisolab import dercalc, verify
from coisolab.cli import main
from coisolab.dercalc import AtiyahForm, Derivation, Form
from coisolab.fields import Field, ShapeError, Space
from coisolab.verify import (d_via_definition, lie_via_definition, rand_atiyah,
                             rand_derivation)


def cartan_oracle(seed=0, n=50, trunc_order=8):
    """The Cartan suite as it was written before its checks shared values:
    every check recomputes its own operators from eta, box and delta, and
    every Lie derivative goes through AtiyahForm.lie.  Kept as the oracle of
    ``verify.cartan_suite``, which must return the same report or raise the
    same error."""
    rng = np.random.default_rng(seed)
    space = Space(verify.CARTAN_TORUS_DIM, 0, trunc_order, 0)
    one = Derivation.identity(space)
    spec = [(name, n, verify.IDENTITY_TOL) for name in (
        "cartan_magic", "iota_lie", "lie_lie", "d_squared", "d_lie",
        "iota_iota", "homotopy", "d_defining_formula",
        "lie_defining_formula", "commutator_jacobi")]
    defects, bump = verify._accumulator(spec)
    cross_stride = max(1, n // 10)

    for it in range(n):
        cross = it % cross_stride == 0
        for deg in (0, 1, 2, 3):
            eta = rand_atiyah(rng, space, deg)
            box = rand_derivation(rng, space)
            delta = rand_derivation(rng, space)

            magic = eta.d().contract(box) + eta.contract(box).d()
            probes = [rand_derivation(rng, space, n_modes=1) for _ in range(deg)]
            rhs = lie_via_definition(eta, box, probes)
            bump("cartan_magic", magic.evaluate_on(probes) - rhs)
            bump("lie_defining_formula", eta.lie(box).evaluate_on(probes) - rhs)

            if deg > 0:
                got = eta.lie(delta).contract(box) - eta.contract(box).lie(delta)
                want = eta.contract(box.commutator(delta))
                bump("iota_lie", got - want)

            got = eta.lie(delta).lie(box) - eta.lie(box).lie(delta)
            want = eta.lie(box.commutator(delta))
            bump("lie_lie", got - want)

            bump("d_squared", eta.d().d())
            bump("d_lie", eta.lie(box).d() - eta.d().lie(box))

            if deg >= 2:
                bump("iota_iota",
                     eta.contract(delta).contract(box) + eta.contract(box).contract(delta))

            bump("homotopy", eta.d().contract(one) + eta.contract(one).d() - eta)

            if cross:
                boxes = [rand_derivation(rng, space, n_modes=1) for _ in range(deg + 1)]
                split = eta.d().evaluate_on(boxes)
                bump("d_defining_formula", split - d_via_definition(eta, boxes))

            gamma = rand_derivation(rng, space)
            terms = [(box.commutator(delta)).commutator(gamma),
                     (delta.commutator(gamma)).commutator(box),
                     (gamma.commutator(box)).commutator(delta)]
            bump("commutator_jacobi", terms[0].symbol + terms[1].symbol + terms[2].symbol)
            bump("commutator_jacobi", terms[0].scalar + terms[1].scalar + terms[2].scalar)

    return verify._finish("cartan", spec, defects, n, seed)


def outcome(suite, **kw):
    """The report of a suite, or the one-line error the CLI prints for it."""
    try:
        return suite(**kw)
    except ShapeError as exc:
        return f"error: {exc}\n"


def bits(x):
    """Spectral evidence to the bit: coefficients and loss as float.hex."""
    if isinstance(x, Field):
        return ([(key, c.real.hex(), c.imag.hex()) for key, c in x.packed.items()],
                x.trunc_loss.hex())
    if isinstance(x, Form):
        return [(idx, bits(f)) for idx, f in x.comps.items()]
    if isinstance(x, AtiyahForm):
        return bits(x.alpha), bits(x.beta)
    return [bits(f) for f in x.components]


def recorded(monkeypatch, suite, **kw):
    """The outcome of a suite and every (check, evidence) it bumped, in order."""
    bumps = []

    def accumulator(spec, _orig=verify._accumulator):
        defects, bump = _orig(spec)

        def recording(name, defect, *evidence):
            bumps.append((name, bits(defect)))
            bump(name, defect, *evidence)
        return defects, recording
    with monkeypatch.context() as patch:
        patch.setattr(verify, "_accumulator", accumulator)
        return outcome(suite, **kw), bumps


@pytest.mark.parametrize("seed, n, trunc_order", [(7, 1, 8), (3, 2, 3), (0, 2, 2)])
def test_cartan_suite_matches_per_check_oracle(monkeypatch, seed, n, trunc_order):
    # the same report, or at a small box the same first check whose evidence
    # lost mass; and every defect the same to the bit, in the same order
    kw = dict(seed=seed, n=n, trunc_order=trunc_order)
    assert recorded(monkeypatch, verify.cartan_suite, **kw) == \
        recorded(monkeypatch, cartan_oracle, **kw)


def test_verify_cartan_truncation_error_matches_oracle(capsys):
    code = main(["verify", "cartan", "--n", "2", "--trunc", "2"])
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == outcome(cartan_oracle, seed=0, n=2, trunc_order=2)
    assert out.err.startswith("error: check lie_lie: evidence lost mass")


def test_cartan_suite_computes_shared_values_once(monkeypatch):
    # the same report from fewer operator calls, pinned so that
    # recomputation cannot creep back unseen
    calls = {"d": 0, "contract": 0, "commutator": 0}
    for cls, name in ((dercalc.AtiyahForm, "d"), (dercalc.AtiyahForm, "contract"),
                      (dercalc.Derivation, "commutator")):
        def counted(*args, _orig=getattr(cls, name), _name=name):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(cls, name, counted)

    def run(suite):
        calls.update(dict.fromkeys(calls, 0))
        return suite(seed=0, n=2), dict(calls)
    want, oracle_calls = run(cartan_oracle)
    got, suite_calls = run(verify.cartan_suite)
    assert got == want
    assert oracle_calls == {"d": 224, "contract": 218, "commutator": 94}
    assert suite_calls == {"d": 94, "contract": 120, "commutator": 80}
