"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS line on success; tolerances and trial
counts are fixed here, not inherited from defaults.
"""

import itertools
import json

import numpy as np

from amok import (algebra, cli, equivalence as eqv, kgroups, model,
                  morphisms, rand, serialize, suites)

from draws import (circle_function, degree_oracle, partial_isometry,
                   random_morphism)

FD1 = algebra.AlgebraSpec.fd([1])
FD2 = algebra.AlgebraSpec.fd([2])
FD23 = algebra.AlgebraSpec.fd([2, 3])
CIRCLE1 = algebra.AlgebraSpec.circle(1, 64)

RESIDUAL_TOL = 1e-8


def svd_norm_oracle(v):
    return max((np.linalg.svd(a, compute_uv=False).max() if a.size else 0.0)
               for a in v.data)


def test_criterion_1_axiom_suite():
    cfg = suites.RunConfig(seed=1, trials=200)
    for alg in (FD1, FD2, FD23, CIRCLE1):
        results = suites.run_properties(cfg, suites._model_properties(alg, cfg))
        for r in results:
            assert r.passed, f"{alg.summands}: {r.name}: {r.failures[:3]}"
            assert r.worst_residual <= RESIDUAL_TOL, \
                f"{alg.summands}: {r.name}: residual {r.worst_residual:.3e}"
    print("criterion 1 (axiom suite, 200 trials, 4 algebras): PASS")


def test_criterion_2_norm_agreement():
    for alg in (FD23, CIRCLE1):
        rng = rand.stream(2, 0)
        for t in range(200):
            level = 1 + t % 3
            v = rand.element(rand.stream(2, t), alg, level, level)
            got = model.order_unit_norm(v)
            want = svd_norm_oracle(v)
            assert abs(got - want) <= RESIDUAL_TOL * (1 + want), \
                f"{alg.summands} trial {t}: {got} vs {want}"
        for t in range(25):
            srng = rand.stream(2, 1000 + t)
            u = rand.element(srng, alg, 1, 1)
            w = rand.element(srng, alg, 2, 2)
            lhs = model.order_unit_norm(algebra.direct_sum(u, w))
            rhs = max(model.order_unit_norm(u), model.order_unit_norm(w))
            assert abs(lhs - rhs) <= RESIDUAL_TOL * (1 + rhs)
    print("criterion 2 (norm vs singular-value oracle, 200 elements/model): PASS")


def test_criterion_3_k0_structure():
    for k in (1, 2, 3):
        for dims in itertools.product((1, 2, 3), repeat=k):
            alg = algebra.AlgebraSpec.fd(dims)
            view = kgroups.k0_group(alg)
            assert view.rank == k
            assert view.order_unit.normal_form == dims
            # brute force: every rank vector at levels <= 2 is realized by
            # a diagonal projection whose class reads back the same vector
            realized = set()
            for level in (1, 2):
                caps = [level * d for d in dims]
                for ranks in itertools.product(*[range(c + 1) for c in caps]):
                    p = kgroups._diagonal_projection(alg, level, list(ranks))
                    assert model.classify(p).is_order_projection
                    cls = kgroups.k0_class(p)
                    assert cls.normal_form == ranks
                    realized.add(ranks)
            assert np.linalg.matrix_rank(np.array(sorted(realized))) == k
            # cone properness on a small window
            for nf in itertools.product(range(-2, 3), repeat=k):
                g = kgroups.KClass(kgroups.K0, alg, nf)
                if view.cone_contains(g) and view.cone_contains(-g):
                    assert g.normal_form == (0,) * k
    print("criterion 3 (K0 rank/unit for k<=3, d<=3, rank enumeration): PASS")


def test_criterion_4_k1_structure():
    # fd: trivial group, every positive decision backed by a full path
    for alg in (FD2, FD23):
        assert kgroups.k1_group(alg).rank == 0
        for t in range(10):
            srng = rand.stream(4, t)
            u = rand.unitary(srng, alg, 1 + t % 2)
            v = rand.unitary(srng, alg, 1 + t % 2)
            ok, path = eqv.homotopic_unitaries(u, v)
            assert ok
            assert len(path.samples) == 129
            path.validate_strict(1e-8)
    # circle: the winding group, checked against the independent oracle
    view = kgroups.k1_group(CIRCLE1)
    assert view.rank == 1
    powers = {}
    for n in (-2, -1, 0, 1, 2):
        f = circle_function(CIRCLE1, lambda z, n=n: [[z ** n]])
        assert model.classify(f).is_unitary
        assert kgroups.k1_class(f).normal_form == (n,)
        assert degree_oracle(f) == n
        powers[n] = f
    for a in powers:
        for b in powers:
            ok, _ = eqv.sim1_equivalent(powers[a], powers[b])
            assert ok == (a == b)
    print("criterion 4 (K1: fd trivial with validated paths, circle = winding): PASS")


def test_criterion_5_k_splitting():
    view = kgroups.k_group(FD23)
    assert view.rank == 2
    # homomorphism property on 100 random classes
    for t in range(100):
        srng = rand.stream(5, t)
        x = kgroups.k_pair_class(rand.partial_unitary(srng, FD23, 1),
                                 rand.partial_unitary(srng, FD23, 1))
        y = kgroups.k_pair_class(rand.partial_unitary(srng, FD23, 1),
                                 rand.partial_unitary(srng, FD23, 1))
        x0, x1 = kgroups.theta_map(x)
        y0, y1 = kgroups.theta_map(y)
        s0, s1 = kgroups.theta_map(x + y)
        assert s0 == x0 + y0 and s1 == x1 + y1
    # surjectivity: constructed witnesses hit 25 random targets exactly
    rng = rand.stream(5, 10_000)
    for _ in range(25):
        target = kgroups.KClass(
            kgroups.K0, FD23,
            (int(rng.integers(-5, 6)), int(rng.integers(-5, 6))))
        v, p = kgroups.theta_surjectivity_witness(target)
        got, _ = kgroups.theta_map(kgroups.k_pair_class(v, p))
        assert got == target
    # ker(theta) = 0, so K/ker(theta) = K maps isomorphically onto K0 + K1
    seen = set()
    for nf in itertools.product(range(-3, 4), repeat=2):
        x = kgroups.KClass(kgroups.K, FD23, nf)
        k0_part, k1_part = kgroups.theta_map(x)
        if k0_part.normal_form == (0, 0) and k1_part.normal_form == ():
            assert x.normal_form == (0, 0)
        seen.add((k0_part.normal_form, k1_part.normal_form))
    assert len(seen) == 7 * 7  # injective on the window; K1 side is trivial
    print("criterion 5 (K = Z^2, theta homomorphism + surjectivity + kernel): PASS")


def test_criterion_6_decomposition_constructions():
    # mean-of-unitaries decomposition on 100 partial unitaries
    for t in range(100):
        srng = rand.stream(6, t)
        alg = FD23 if t % 2 == 0 else CIRCLE1
        v = rand.partial_unitary(srng, alg, 1 + t % 2)
        v1, v2 = kgroups.partial_unitary_decompose(v)
        assert model.is_unitary(v1) and model.is_unitary(v2)
        assert model.distance((v1 + v2).scale(0.5), v) <= 1e-9
        assert model.orthogonal(v1 - v2, v1 + v2, 1e-7)
    # orthogonal families summing to unitaries, 50 constructed instances
    for t in range(50):
        srng = rand.stream(6, 1000 + t)
        alg = FD23 if t % 2 == 0 else CIRCLE1
        u = rand.unitary(srng, alg, 2)
        p = rand.projection(srng, alg, 2)
        e = algebra.order_unit(alg, 2)
        family = [u.matmul(p), u.matmul(e - p)]
        out = kgroups.orthogonal_sum_unitary(family)
        assert model.distance(out, u) <= 1e-8
    # the membership characterization agrees in both directions
    for t in range(50):
        srng = rand.stream(6, 2000 + t)
        if t % 2 == 0:
            v = rand.partial_unitary(srng, FD23, 1)
        else:
            v = partial_isometry(srng, FD23, 2)
        lhs, rhs = kgroups.partial_unitary_characterization(v)
        assert lhs == rhs
    print("criterion 6 (decomposition/sum/characterization constructions): PASS")


def test_criterion_7_functoriality():
    ident = morphisms.identity_morphism(FD23)
    assert np.array_equal(kgroups.induced_map(ident, kgroups.K0), np.eye(2))
    for t in range(50):
        srng = rand.stream(7, t)
        phi = random_morphism(srng, FD23)
        psi = random_morphism(srng, phi.target)
        comp = morphisms.compose(psi, phi)
        for tag in (kgroups.K0, kgroups.K):
            lhs = kgroups.induced_map(comp, tag)
            rhs = kgroups.induced_map(psi, tag) @ kgroups.induced_map(phi, tag)
            assert np.array_equal(lhs, rhs)
        z = morphisms.zero_morphism(FD23, phi.target)
        assert not kgroups.induced_map(z, kgroups.K).any()
    for t in range(100):
        srng = rand.stream(7, 1000 + t)
        phi = random_morphism(srng, FD23)
        if t % 2 == 0:
            v = rand.projection(srng, FD23, 1 + t % 3)
            lhs = kgroups.k0_class(morphisms.apply_morphism(phi, v))
            rhs = kgroups.induced_class(phi, kgroups.k0_class(v))
        else:
            v = rand.partial_unitary(srng, FD23, 1 + t % 3)
            lhs = kgroups.k_class(morphisms.apply_morphism(phi, v))
            rhs = kgroups.induced_class(phi, kgroups.k_class(v))
        assert lhs == rhs
    print("criterion 7 (functor laws exact, commuting square on 100 elements): PASS")


def test_criterion_8_certificate_validity():
    emitted = 0
    for t in range(25):
        srng = rand.stream(8, t)
        alg = FD23 if t % 2 == 0 else CIRCLE1
        p = rand.projection(srng, alg, 2)
        q = rand.projection(srng, alg, 2)
        ok, cert = eqv.mvn_equivalent(p, q)
        if ok:
            assert cert.validate()
            emitted += 1
        u = rand.unitary(srng, alg, 1)
        v = rand.unitary(srng, alg, 1)
        ok, path = eqv.homotopic_unitaries(u, v)
        if ok:
            assert path.validate()
            emitted += 1
        if all(b == 1 for b, _ in alg.summands):
            a = rand.partial_unitary(srng, alg, 1)
            b = rand.partial_unitary(srng, alg, 1)
            ok, path = eqv.homotopic_partial_unitaries(a, b)
            if ok:
                assert path.validate()
                emitted += 1
    assert emitted >= 25
    for t in range(50):
        srng = rand.stream(8, 1000 + t)
        alg = FD23 if t % 2 == 0 else CIRCLE1
        p = rand.projection(srng, alg, 2)
        a = rand.unitary(srng, alg, 2).matmul(p)
        b = rand.unitary(srng, alg, 2).matmul(p)
        certs = [eqv.PartialIsometryCertificate(
            witness=x, source=model.abs_value(x),
            target=model.abs_value(x.adjoint())) for x in (a, b)]
        w = eqv.condition_T_transport(certs[0], certs[1])
        assert w.validate()
    print("criterion 8 (100% certificate/path revalidation, 50 transports): PASS")


def test_criterion_9_determinism(tmp_path):
    spec = tmp_path / "alg.json"
    spec.write_text(serialize.dumps_canonical(serialize.algebra_to_json(FD2)))
    runs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        code = cli.main(["check-axioms", str(spec), "--seed", "11",
                         "--trials", "20", "--format", "json",
                         "--out", str(out)])
        assert code == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]
    report = json.loads(runs[0])
    assert all(p["passed"] for p in report["properties"])
    print("criterion 9 (byte-identical reports for identical seeds): PASS")
