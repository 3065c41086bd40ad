import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coxmin.braid import (BraidContext, GarsideNormalForm, TwistedBraid,
                          certify_good, delta_squared,
                          divisible_by_delta_squared, good_min_element, lift,
                          verify_quasi_elliptic_divisibility,
                          verify_rotation_identity)
from coxmin.conjugacy import enumerate_classes
from coxmin.coxeter import (DiagramTwist, TwistedElement, build_system,
                            enumerate_twists, named_matrix, untwisted)
from coxmin.eigen import admissible_filtration, eigen_decomposition
from coxmin.errors import HypothesisFailed, TheoremViolation
from oracles import expand_normal_form, normal_form_is_valid
from test_conjugacy import _block_diagonal


def rewrite_closure(word, matrix, cap=200000):
    """All positive words braid-equivalent to `word`: the equality oracle."""
    rels = []
    n = matrix.rank
    for i in range(n):
        for j in range(n):
            if i != j and matrix[i, j] < 100:
                m = matrix[i, j]
                lhs = tuple((i, j)[k % 2] for k in range(m))
                rhs = tuple((j, i)[k % 2] for k in range(m))
                rels.append((lhs, rhs))
    seen = {tuple(word)}
    frontier = [tuple(word)]
    while frontier:
        nxt = []
        for w in frontier:
            for lhs, rhs in rels:
                L = len(lhs)
                for p in range(len(w) - L + 1):
                    if w[p:p + L] == lhs:
                        w2 = w[:p] + rhs + w[p + L:]
                        if w2 not in seen:
                            seen.add(w2)
                            nxt.append(w2)
                            assert len(seen) <= cap
        frontier = nxt
    return seen


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_nf_matches_rewriting_closure_short(name):
    """NF-equality coincides with braid-relation closure on short words."""
    system = build_system(named_matrix(name))
    ctx = BraidContext(system)
    closure_id = {}
    nf_of_closure = {}
    next_id = 0
    for length in range(0, 7):
        for word in itertools.product(range(2), repeat=length):
            if word in closure_id:
                continue
            closure = rewrite_closure(word, system.matrix)
            nf = TwistedBraid(ctx, 0, word).normal_form()
            for w2 in closure:
                closure_id[w2] = next_id
                assert TwistedBraid(ctx, 0, w2).normal_form() == nf
            assert nf not in nf_of_closure, "distinct closures share a normal form"
            nf_of_closure[nf] = next_id
            next_id += 1


def test_nf_examples():
    a2 = build_system(named_matrix("A2"))
    ctx = BraidContext(a2)
    t = ctx.table
    assert TwistedBraid(ctx, 0, ()).normal_form().factors == ()
    nf = TwistedBraid(ctx, 0, (0, 0)).normal_form()
    assert [t.element(f).to_word() for f in nf.factors] == [[0], [0]]
    nf2 = TwistedBraid(ctx, 0, (0, 1)).power(3).normal_form()
    assert nf2 == delta_squared(ctx)
    assert nf2.infimum() == 2
    # Matsumoto: both reduced words of w0 lift to the same braid.
    assert TwistedBraid(ctx, 0, (0, 1, 0)).normal_form() == \
        TwistedBraid(ctx, 0, (1, 0, 1)).normal_form()


def test_nf_idempotent_and_roundtrip():
    g2 = build_system(named_matrix("G2"))
    ctx = BraidContext(g2)
    rng = random.Random(4)
    for _ in range(30):
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 12)))
        nf = TwistedBraid(ctx, 0, word).normal_form()
        assert normal_form_is_valid(nf)
        again = expand_normal_form(nf).normal_form()
        assert again == nf
        assert nf.letter_count() == len(word)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1), max_size=8),
       st.lists(st.integers(min_value=0, max_value=1), max_size=8))
def test_nf_is_congruence_b2(u, v):
    b2 = build_system(named_matrix("B2"))
    ctx = BraidContext(b2)
    bu, bv = TwistedBraid(ctx, 0, tuple(u)), TwistedBraid(ctx, 0, tuple(v))
    # NF of the product from words equals NF-level multiplication.
    assert (bu * bv).normal_form() == bu.normal_form().mul(bv.normal_form())


@pytest.mark.parametrize("matrix,twists", [
    (named_matrix("A3"), None), (named_matrix("A5"), None),
    (named_matrix("D4"), None), (named_matrix("E6"), None),
    (_block_diagonal("A2", "A2"), [(2, 3, 0, 1)]),
], ids=["A3", "A5", "D4", "E6", "A2xA2"])
def test_nf_is_congruence_under_twists(matrix, twists):
    # Normal-form multiplication twists the left factors by d^-l one at a
    # time; the word product twists letters by the power permutation of d,
    # an independent route.  Seeded words with twist prefixes, for every
    # power of each twist.
    system = build_system(matrix)
    if twists is None:
        twists = enumerate_twists(matrix)[1:]
    else:
        twists = [DiagramTwist(matrix, p) for p in twists]
    rng = random.Random(22)
    n = system.rank

    def word():
        return tuple(rng.randrange(n) for _ in range(rng.randrange(0, 14)))

    for twist in twists:
        ctx = BraidContext(system, twist)
        for _ in range(12 * twist.order):
            bu = TwistedBraid(ctx, rng.randrange(twist.order), word())
            bv = TwistedBraid(ctx, rng.randrange(twist.order), word())
            nu, nv = bu.normal_form(), bv.normal_form()
            assert normal_form_is_valid(nu.mul(nv))
            assert (bu * bv).normal_form() == nu.mul(nv)


def _lift_cases():
    for name in ["A3", "B3", "H3"]:
        system = build_system(named_matrix(name))
        yield system, enumerate_twists(system.matrix)[0], [0]
    for name in ["A3", "D4"]:
        system = build_system(named_matrix(name))
        for twist in enumerate_twists(system.matrix)[1:]:
            yield system, twist, range(twist.order)


def test_lift_is_the_normal_form_of_the_reduced_word():
    # The one-factor lift against the word path: the normal form of a
    # reduced word of the body after the twist prefix.  Every element of
    # A3, B3 and H3, and every twisted coset of A3 and D4.
    for system, twist, exponents in _lift_cases():
        ctx = BraidContext(system, twist)
        t = ctx.table
        for k in exponents:
            for x in range(t.size):
                w = TwistedElement(system, twist, k, t.element(x))
                nf = lift(w, ctx)
                assert nf == TwistedBraid(ctx, w.k, tuple(w.body.to_word())).normal_form()
                assert nf.factors == ((x,) if x else ())
                if k == 0:
                    assert lift(w.body, ctx) == nf


def test_power_examples():
    b2 = build_system(named_matrix("B2"))
    ctx = BraidContext(b2)
    b = TwistedBraid(ctx, 0, (0, 1))
    assert b.power(0).word == ()
    assert b.power(1).word == b.word
    assert b.power(4).normal_form() == delta_squared(ctx)
    # Twist-only elements power to the pure identity.
    a2 = build_system(named_matrix("A2"))
    tw = enumerate_twists(a2.matrix)[1]
    ctx2 = BraidContext(a2, tw)
    d = TwistedBraid(ctx2, 1, ())
    sq = d.power(tw.order)
    assert sq.normal_form() == GarsideNormalForm(ctx2, 0, ())


def test_normal_form_power_squares_from_the_base(monkeypatch):
    # self^k takes bit_length(k) - 1 squarings and popcount(k) - 1 products,
    # and equals k - 1 repeated products; k = 0 is the identity.
    a3 = build_system(named_matrix("A3"))
    tw = enumerate_twists(a3.matrix)[1]
    ctx = BraidContext(a3, tw)
    b = lift(TwistedElement(a3, tw, 1, a3.element_from_word([0, 1, 2])), ctx)
    repeated = [GarsideNormalForm(ctx, 0, ()), b]
    for _ in range(15):
        repeated.append(repeated[-1].mul(b))
    calls = []
    real = GarsideNormalForm.mul

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(GarsideNormalForm, "mul", counted)
    for k in range(17):
        del calls[:]
        assert b.power(k) == repeated[k]
        expected = k.bit_length() + bin(k).count("1") - 2 if k else 0
        assert len(calls) == expected, k


def test_twisted_letter_pushing():
    a2 = build_system(named_matrix("A2"))
    tw = enumerate_twists(a2.matrix)[1]
    ctx = BraidContext(a2, tw)
    d = TwistedBraid(ctx, 1, ())
    s0 = TwistedBraid(ctx, 0, (0,))
    s1 = TwistedBraid(ctx, 0, (1,))
    # d sigma_0 = sigma_1 d.
    assert (d * s0).normal_form() == (s1 * d).normal_form()


def test_lift_length_multiplicative():
    a3 = build_system(named_matrix("A3"))
    ctx = BraidContext(a3)
    rng = random.Random(9)
    tbl = a3.table()
    hits = 0
    for _ in range(60):
        w1 = tbl.element(rng.randrange(tbl.size))
        w2 = tbl.element(rng.randrange(tbl.size))
        prod = w1 * w2
        if prod.length() == w1.length() + w2.length():
            lhs = lift(w1, ctx).mul(lift(w2, ctx))
            rhs = lift(prod, ctx)
            assert lhs == rhs
            hits += 1
    assert hits > 5


def test_delta_squared_central():
    b2 = build_system(named_matrix("B2"))
    ctx = BraidContext(b2)
    rng = random.Random(13)
    d2 = delta_squared(ctx)
    for _ in range(20):
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 9)))
        nf = TwistedBraid(ctx, 0, word).normal_form()
        assert d2.mul(nf) == nf.mul(d2)


def test_divisibility_basics():
    a2 = build_system(named_matrix("A2"))
    ctx = BraidContext(a2)
    assert divisible_by_delta_squared(delta_squared(ctx))
    assert not divisible_by_delta_squared(TwistedBraid(ctx, 0, (0,)))


def test_certify_good_examples():
    # A2 Coxeter element: d = 3, exponent 2: (s1 s2)^3 = Delta^2.
    a2 = build_system(named_matrix("A2"))
    cox = untwisted(a2.element_from_word([0, 1]))
    eig = eigen_decomposition(cox, dft_check=False)
    filt = admissible_filtration(eig.owner, eig.angles, eig=eig)
    cert = certify_good(eig.owner, filt)
    assert cert.d == 3 and cert.exponents == (2,) and cert.subsets == ((0, 1),)
    assert not cert.very_good  # d odd: no half identity
    # B2 Coxeter: d = 4, exponent 2, very good with half exponent 1.
    b2 = build_system(named_matrix("B2"))
    coxb = untwisted(b2.element_from_word([0, 1]))
    eigb = eigen_decomposition(coxb, dft_check=False)
    filtb = admissible_filtration(eigb.owner, eigb.angles, eig=eigb)
    certb = certify_good(eigb.owner, filtb)
    assert certb.d == 4 and certb.exponents == (2,) and certb.very_good
    # Identity element: degenerate certificate with an empty product.
    ident = untwisted(a2.identity)
    eigi = eigen_decomposition(ident, dft_check=False)
    filti = admissible_filtration(ident, eigi.angles, eig=eigi)
    certi = certify_good(eigi.owner, filti)
    assert certi.d == 1 and certi.exponents == ()


@pytest.mark.parametrize("name", ["A2", "B2", "G2"])
def test_good_min_element_all_classes(name):
    system = build_system(named_matrix(name))
    for tw in enumerate_twists(system.matrix):
        for rec in enumerate_classes(system, tw):
            w_a, cert = good_min_element(rec)
            assert w_a.length() == rec.min_length
            assert all(e > 0 and e % 2 == 0 for e in cert.exponents)
            assert all(len(a) > len(b) and set(b) < set(a)
                       for a, b in zip(cert.subsets, cert.subsets[1:]))


def test_certificate_letter_conservation():
    g2 = build_system(named_matrix("G2"))
    from coxmin.coxeter import parabolic_max
    for rec in enumerate_classes(g2):
        w_a, cert = good_min_element(rec)
        total = sum(e * parabolic_max(g2, s).length()
                    for e, s in zip(cert.exponents, cert.subsets))
        assert total == cert.d * w_a.length()


def test_rotation_identity_examples():
    # theta = pi: w0 of B2 acts as -id, w1 = e, identity reduces to Delta^d.
    b2 = build_system(named_matrix("B2"))
    w0 = untwisted(b2.element_from_word([0, 1, 0, 1]))
    assert verify_rotation_identity(w0, Fraction(1))
    # B2 Coxeter element: K = V, theta = pi/2, d = 4: (s1s2)^4 = Delta^2.
    cox = untwisted(b2.element_from_word([0, 1]))
    assert verify_rotation_identity(cox, Fraction(1, 2))
    # G2 Coxeter element: d = 6, theta = pi/3, exponent d*theta/2pi = 1.
    g2 = build_system(named_matrix("G2"))
    coxg = untwisted(g2.element_from_word([0, 1]))
    assert verify_rotation_identity(coxg, Fraction(1, 3))
    assert coxg.length() == 2 and g2.npos == 6


def test_rotation_identity_hypothesis_gate():
    a2 = build_system(named_matrix("A2"))
    s1 = untwisted(a2.generator(0))
    with pytest.raises(HypothesisFailed):
        # d*q/2 not integral for q = 0 with d = 2? q=0 gives exp 0; use a
        # non-angle instead.
        verify_rotation_identity(s1, Fraction(1, 3))


def test_quasi_elliptic_divisibility_small():
    for name in ["A2", "B2", "G2", "A3"]:
        system = build_system(named_matrix(name))
        for tw in enumerate_twists(system.matrix):
            for rec in enumerate_classes(system, tw):
                if rec.quasi_elliptic:
                    assert verify_quasi_elliptic_divisibility(rec)


def test_certificate_argument_and_chain_errors(monkeypatch):
    import coxmin.braid as braid_mod
    a2 = build_system(named_matrix("A2"))
    ident = next(r for r in enumerate_classes(a2) if not r.quasi_elliptic)
    with pytest.raises(ValueError):
        verify_quasi_elliptic_divisibility(ident)
    # Element and filtration over different views of one system.
    cox = untwisted(a2.element_from_word([0, 1]))
    eig = eigen_decomposition(cox, dft_check=False)
    filt = admissible_filtration(eig.owner, eig.angles, eig=eig)
    with pytest.raises(ValueError):
        certify_good(cox.over(a2.with_field_level(5)), filt)
    # B3 class 8 has the chain S > {0}; a chain that does not strictly
    # decrease contradicts good position.
    b3 = build_system(named_matrix("B3"))
    w_a, cert = good_min_element(enumerate_classes(b3)[8])
    assert len(cert.subsets) == 2
    filt = admissible_filtration(w_a, eigen_decomposition(w_a).angles)
    real = braid_mod._parabolic_chain
    monkeypatch.setattr(braid_mod, "_parabolic_chain",
                        lambda f: [real(f)[0]] * len(real(f)))
    with pytest.raises(TheoremViolation):
        certify_good(w_a, filt)


def test_twisted_good_elements():
    a2 = build_system(named_matrix("A2"))
    tw = enumerate_twists(a2.matrix)[1]
    for rec in enumerate_classes(a2, tw):
        w_a, cert = good_min_element(rec)
        assert w_a.length() == rec.min_length
        assert cert.sigma_exponent == (w_a.k * cert.d) % tw.order


def test_certificate_json_export():
    import json
    b2 = build_system(named_matrix("B2"))
    rec = enumerate_classes(b2)[3]
    w_a, cert = good_min_element(rec)
    row = cert.to_json(type_label="B2", class_id=rec.class_id)
    text = json.dumps(row, sort_keys=True)
    back = json.loads(text)
    assert back["type"] == "B2" and back["class_id"] == rec.class_id
    assert back["subsets"] and back["exponents"]
    assert back["nf_digest_lhs"] == back["nf_digest_rhs"]


@pytest.mark.parametrize("name", ["B3", "H3", "F4"])
def test_memoized_good_elements_match_fresh_records(name):
    # A good element served from the class record equals one built on a
    # fresh system and record, for the full and the nonzero angles, at two
    # start indices (B3 class 5 and F4 classes 3, 8 and 9 have another good
    # element at start index 5 than at 0).
    matrix = named_matrix(name)
    memo, fresh = build_system(matrix), build_system(matrix)
    for twist in enumerate_twists(matrix):
        for rec, frec in zip(enumerate_classes(memo, twist),
                             enumerate_classes(fresh, twist)):
            eig = eigen_decomposition(rec.representative, dft_check=False)
            runs = [(None, 0), (None, 5)]
            if rec.quasi_elliptic:
                runs.append(([q for q in eig.angles if q != 0], 0))
            for angles, start in runs:
                first = good_min_element(rec, angles, start)
                again = good_min_element(rec, angles, start)
                assert again[0] is first[0] and again[1] is first[1]
                frec._good.clear()  # computed afresh, not served
                w_a, cert = good_min_element(frec, angles, start)
                assert first[0] == w_a
                assert first[1].to_json() == cert.to_json()


def test_length_check_runs_on_a_memo_hit():
    b3 = build_system(named_matrix("B3"))
    rec = enumerate_classes(b3)[8]
    good_min_element(rec)
    rec.min_length += 2
    with pytest.raises(TheoremViolation):
        good_min_element(rec)


def test_quasi_after_good_reuses_the_good_element(monkeypatch):
    # On an elliptic class the nonzero angles are all the angles, so the
    # quasi check, run after the good check, builds no chamber of its own;
    # and it reads the infimum off the good certificate, so it builds no
    # braid context either.
    import coxmin.braid as braid_mod
    from coxmin.cli import _check_class
    calls, contexts = [], []
    real = braid_mod.good_position_chamber
    real_context = braid_mod.BraidContext

    def counted(*args):
        calls.append(args)
        return real(*args)

    def counted_context(*args):
        contexts.append(args)
        return real_context(*args)

    monkeypatch.setattr(braid_mod, "good_position_chamber", counted)
    monkeypatch.setattr(braid_mod, "BraidContext", counted_context)
    f4 = build_system(named_matrix("F4"))
    elliptic = [rec for rec in enumerate_classes(f4) if rec.elliptic]
    assert elliptic
    for rec in elliptic:
        assert [r["status"] for r in _check_class(rec, ["good"], 0)] == ["pass"]
        before, built = len(calls), len(contexts)
        assert before > 0 and built > 0
        assert [r["status"] for r in _check_class(rec, ["quasi"], 0)] == ["pass"]
        assert len(calls) == before
        assert len(contexts) == built
