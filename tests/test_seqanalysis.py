from __future__ import annotations

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.ctx_mp import MPContext

import qslab
from qslab import seqanalysis
from qslab.cli import main
from qslab.qnum import FINF, FNAN, FNINF, LevelContext, alcove_line, mp_context, qdim_line
from qslab.qsolver import build_qgrid
from qslab.rootsys import type_data
from qslab.seqanalysis import (
    RealSequence,
    RootednessVerdict,
    _newton_violation,
    _sturm_verdict,
    branden_criterion,
    is_log_concave,
    l_operator,
    log_concavity_order,
    make_sequence,
)

from oracles import (mpf, mpf_branden_criterion, mpf_cell, mpf_entries, mpf_is_log_concave,
                     mpf_l_operator, mpf_log_concavity_order, mpf_make_sequence, mpf_tolerance,
                     palindromize, raw, sin_pi_over_l, triple)

TRIALS = 500


def entries(seq):
    return [float(e) for e in mpf_entries(seq)]


def random_ratio_sequence(rng, length, strict=True, above_one=False):
    """Positive sequence with (strictly) decreasing consecutive ratios.

    Values are accumulated at the sequences' working precision so that the
    non-strict case (repeated ratios) stays log-concave to within tolerance.
    """
    mp = mp_context(128)
    ratios = []
    r = mp.mpf(rng.uniform(2.0, 4.0))
    for _ in range(length - 1):
        ratios.append(r)
        shrink = rng.uniform(0.55, 0.95) if strict or rng.random() < 0.7 else 1.0
        r = 1 + (r - 1) * shrink if above_one else r * shrink
    vals = [mp.mpf(rng.uniform(0.5, 2.0))]
    for r in ratios:
        vals.append(vals[-1] * r)
    return make_sequence(vals)


def test_l_operator_examples():
    assert entries(l_operator(make_sequence([1, 1, 1]))) == [1, 0, 1]
    assert entries(l_operator(make_sequence([1, 2, 1]))) == [1, 3, 1]
    assert entries(l_operator(make_sequence([1, 3, 3, 1]))) == [1, 6, 6, 1]
    assert entries(l_operator(make_sequence([2]))) == [4]


def test_log_concavity_order_examples():
    seq = make_sequence([1, 2, 1])
    assert log_concavity_order(seq, 3) == 3
    it = l_operator(l_operator(l_operator(seq)))
    assert entries(it) == [1, 63, 1]
    assert log_concavity_order(make_sequence([1, 1, 2]), 1) == 0
    assert log_concavity_order(make_sequence([1, -1, 2]), 2) == -1
    geometric = make_sequence([1, 2, 4, 8])
    assert log_concavity_order(geometric, 1) >= 1
    assert pairwise_log_concave(geometric) and not is_log_concave(geometric)


def test_is_log_concave_examples():
    # log-concave, but not strictly: is_log_concave decides the strict form
    assert pairwise_log_concave(make_sequence([3, 3, 3]))
    assert not is_log_concave(make_sequence([3, 3, 3]))
    assert is_log_concave(make_sequence([1, 2, 1]))
    assert not is_log_concave(make_sequence([1, 1, 2]))


def pairwise_log_concave(seq, strict=False):
    """a_k a_m >= a_{k-1} a_{m+1} for all interior k <= m, within tolerance."""
    a, tol = mpf_entries(seq), mpf_tolerance(seq)
    n = len(a) - 1

    def holds(x, y):
        return x > y + tol if strict else x >= y - tol

    return all(holds(a[k] * a[m], a[k - 1] * a[m + 1])
               for k in range(1, n) for m in range(k, n))


def test_pairwise_form_agrees_with_is_log_concave():
    # on positive sequences the pairwise form is equivalent to the triple
    # form that is_log_concave evaluates
    rng = random.Random(505)
    verdicts = set()
    for _ in range(TRIALS):
        n = rng.randint(1, 12)
        seq = random_ratio_sequence(rng, n, strict=rng.random() < 0.5)
        kind = rng.random()
        if kind < 0.4:
            # one entry moved, which may break log-concavity
            vals = mpf_entries(seq)
            vals[rng.randrange(n)] *= rng.uniform(0.5, 1.5)
            seq = make_sequence(vals)
        elif kind < 0.6:
            seq = make_sequence([rng.uniform(0.1, 10.0) for _ in range(n)])
        verdict = is_log_concave(seq)
        assert pairwise_log_concave(seq, strict=True) == verdict, entries(seq)
        verdicts.add(verdict)
    assert verdicts == {False, True}


def test_palindromize_examples():
    assert entries(palindromize(make_sequence([1, 2]), "odd")) == [1, 2, 2, 1]
    assert entries(palindromize(make_sequence([1, 2]), "even")) == [1, 2, 1]
    out = palindromize(make_sequence([1, 3, 4]), "even")
    assert entries(out) == [1, 3, 4, 3, 1]
    assert is_log_concave(out)


def test_palindromize_preconditions():
    with pytest.raises(ValueError):
        palindromize(make_sequence([2, 1]), "even")  # decreasing tail
    with pytest.raises(ValueError):
        palindromize(make_sequence([1, 2, 4]), "even")  # not strictly log-concave
    with pytest.raises(ValueError):
        palindromize(make_sequence([1, 2]), "both")
    with pytest.raises(ValueError):
        palindromize(make_sequence([1]), "even")


def test_product_preserves_log_concavity():
    rng = random.Random(101)
    for _ in range(TRIALS):
        n = rng.randint(3, 12)
        a = random_ratio_sequence(rng, n, strict=False)
        b = random_ratio_sequence(rng, n, strict=True)
        assert pairwise_log_concave(a)
        assert is_log_concave(b)
        prod = make_sequence([x * y for x, y in zip(mpf_entries(a), mpf_entries(b))])
        assert is_log_concave(prod)


def test_palindromes_stay_strictly_log_concave():
    rng = random.Random(202)
    for _ in range(TRIALS):
        n = rng.randint(2, 12)
        seq = random_ratio_sequence(rng, n, strict=True, above_one=True)
        assert is_log_concave(seq)
        for parity in ("even", "odd"):
            assert is_log_concave(palindromize(seq, parity))


def test_prefix_sums_stay_strictly_log_concave():
    rng = random.Random(303)
    for _ in range(TRIALS):
        n = rng.randint(3, 12)
        seq = random_ratio_sequence(rng, n, strict=True)
        total = None
        prefix = []
        for e in mpf_entries(seq):
            total = e if total is None else total + e
            prefix.append(total)
        assert is_log_concave(make_sequence(prefix))


def test_branden_toy_cases():
    assert branden_criterion(make_sequence([1, 2, 1])).status == "real_negative"
    v = branden_criterion(make_sequence([1, 1, 1]))
    assert v.status == "not_real_negative"
    assert "non-real" in v.witness
    assert branden_criterion(make_sequence([5])).status == "real_negative"
    assert branden_criterion(make_sequence([1, 1])).status == "real_negative"
    assert branden_criterion(make_sequence([0, 1])).status == "not_real_negative"
    with pytest.raises(ValueError):
        branden_criterion(make_sequence([0, 0]))
    # positive real root
    v = branden_criterion(make_sequence([-2, 1, 1]))  # (x+2)(x-1)
    assert v.status == "not_real_negative"
    assert v.witness == "positive real root (exact count)"
    # (1+x)(1-x): a negative leading coefficient keeps the chain's signs
    v = branden_criterion(make_sequence([1, 0, -1]))
    assert v.witness == "positive real root (exact count)"


def test_branden_random_negative_rooted_products():
    rng = random.Random(404)
    for _ in range(40):
        degree = rng.randint(1, 8)
        coeffs = [1.0]
        for _ in range(degree):
            r = rng.uniform(0.05, 12.0)
            nxt = [0.0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):  # multiply by (x + r)
                nxt[i] += c * r
                nxt[i + 1] += c
            coeffs = nxt
        seq = make_sequence(coeffs)
        assert branden_criterion(seq).status == "real_negative"
        # sufficient condition: such sequences are infinitely log-concave
        assert log_concavity_order(seq, 4) == 4


def _from_roots(mp, roots):
    """Coefficients, lowest first, of prod (x - r), computed in context mp."""
    coeffs = [mp.mpf(1)]
    for r in roots:
        coeffs = [c - r * d for c, d in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def test_branden_repeated_roots_decided_exactly():
    # (x+1)^4: a quadruple root, counted once among the distinct roots
    assert branden_criterion(make_sequence([1, 4, 6, 4, 1])).status == "real_negative"
    # (x+2)^2 (x^2+1): repeated negative root and a complex pair
    assert branden_criterion(make_sequence([4, 4, 5, 4, 1])).status == "not_real_negative"
    mp = MPContext()
    mp.prec = 512
    for roots, status, witness in (
        ((-1, -1, -1, -2, -2), "real_negative", None),
        ((-1, -1, 3), "not_real_negative", "positive real root (exact count)"),
        # a double root at -2^-150 next to -2^40: the entries' binary digits
        # run from 2^-300 to 2^40, all shifted to one integer scale
        ((-mp.mpf(2) ** -150, -mp.mpf(2) ** -150, -mp.mpf(2) ** 40), "real_negative", None),
    ):
        verdict = branden_criterion(make_sequence(_from_roots(mp, roots)))
        assert (verdict.status, verdict.witness) == (status, witness), roots


def test_branden_reads_entries_exactly():
    # 1 + 2x + (1 + 2^-100) x^2 has discriminant -2^-98: a complex pair that
    # rounding the x^2 coefficient to fewer than 101 bits would turn into
    # (x+1)^2.  For a quadratic the k = 1 Newton inequality is the
    # discriminant, so the witness comes from it, and the Sturm chain on the
    # same exact coefficients agrees.
    mp = MPContext()
    mp.prec = 128
    seq = make_sequence([mp.mpf(1), mp.mpf(2), 1 + mp.mpf(2) ** -100])
    expected = RootednessVerdict(
        "not_real_negative", witness="non-real root (Newton inequality at k=1)")
    assert branden_criterion(seq) == expected
    with mpmath.workprec(20):
        assert branden_criterion(seq) == expected
    coeffs = [2 ** 100, 2 ** 101, 2 ** 100 + 1]
    assert _sturm_verdict(coeffs) == RootednessVerdict(
        "not_real_negative", witness="non-real root (exact count)")


def _exact_coeffs(seq):
    """The integers branden_criterion reads: each entry's exact binary value
    times 2^-e, e the least exponent of the sequence's nonzero entries."""
    values = mpf_entries(seq)
    low = min(v.exp for v in values if v)
    coeffs = [int(mpmath.ldexp(v, -low)) for v in values]
    while coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _e7_node7_line(e7, level, bits):
    return make_sequence(alcove_line(7, LevelContext(e7, level, precision_bits=bits)), bits)


def test_branden_newton_witness_on_e7_node7(e7):
    # the witness is a certificate: wherever it fires the Sturm chain on the
    # same exact coefficients also finds a non-real root, and the statuses
    # agree at every level
    newton_levels = {}
    for level, bits in [(level, 128) for level in range(1, 31)] + [(40, 256)]:
        seq = _e7_node7_line(e7, level, bits)
        verdict = branden_criterion(seq)
        assert verdict.status == _sturm_verdict(_exact_coeffs(seq)).status, level
        if verdict.witness and "Newton" in verdict.witness:
            newton_levels[level] = verdict.witness
    assert sorted(newton_levels) == [28, 29, 30, 40]
    assert newton_levels[28] == "non-real root (Newton inequality at k=13)"


def test_branden_newton_witness_skips_the_chain(e7, monkeypatch):
    def no_chain(coeffs):
        raise AssertionError("Sturm chain reached")

    monkeypatch.setattr("qslab.seqanalysis._sturm_verdict", no_chain)
    verdict = branden_criterion(_e7_node7_line(e7, 60, 384))
    assert verdict.status == "not_real_negative"
    assert verdict.witness.startswith("non-real root (Newton inequality at k=")


def test_newton_witness_never_fires_on_real_rooted_products():
    # products of (q x + p), repeated roots and roots of both signs included:
    # Newton's inequalities hold for every real-rooted polynomial
    rng = random.Random(606)
    for _ in range(TRIALS):
        coeffs = [1]
        for _ in range(rng.randint(1, 10)):
            p, q = rng.randint(-30, 30), rng.randint(1, 9)
            coeffs = [q * c + p * d for c, d in zip([0] + coeffs, coeffs + [0])]
        assert _newton_violation(coeffs) is None, coeffs
        if coeffs[0]:
            witness = branden_criterion(make_sequence(coeffs)).witness
            assert witness is None or "Newton" not in witness, coeffs


def test_newton_witness_fires_only_on_non_real_roots():
    rng = random.Random(707)
    fired = 0
    for _ in range(TRIALS):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(2, 9))]
        coeffs[0] = coeffs[0] or 1
        coeffs[-1] = coeffs[-1] or -1
        verdict = branden_criterion(make_sequence(coeffs))
        sturm = _sturm_verdict(coeffs)
        assert verdict.status == sturm.status, coeffs
        if "Newton" in (verdict.witness or ""):
            fired += 1
            assert sturm.witness == "non-real root (exact count)", coeffs
    assert fired > TRIALS // 4


def test_cli_branden_repeated_root_runs_the_chain(capsys, monkeypatch):
    # (x+1)^2 meets the k = 1 inequality with equality, and its double root
    # lands on a split point of the bisection, so the chain decides
    calls = []

    def spy(coeffs):
        calls.append(coeffs)
        return _sturm_verdict(coeffs)

    monkeypatch.setattr("qslab.seqanalysis._sturm_verdict", spy)
    assert main(["logconcave", "--seq", "1,2,1", "--branden"]) == 0
    assert capsys.readouterr().out.endswith("coefficient polynomial: real_negative\n")
    assert calls == [[1, 2, 1]]


def _times(p, q):
    """The product of two integer polynomials, lowest power first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@st.composite
def _factored_polynomials(draw):
    """(coeffs, repeated): an integer polynomial, lowest power first, made
    of linear factors (a root +-m 2^e / d, d odd, so mostly dyadic, and
    spread over 2^-30 .. 2^30), roots at the split points
    -1, -1/2 and -2 of the bisection, and quadratics with a non-real pair;
    in half the draws each factor taken once to three times, and in half
    every real root negative.  ``repeated`` tells whether a real root is
    repeated."""
    linear = st.one_of(
        st.sampled_from([(1, 1, 0), (1, 1, -1), (1, 1, 1)]),
        st.tuples(st.sampled_from([-31, -5, -3, -1, 1, 3, 7, 31]), st.sampled_from([1, 3, 5]),
                  st.integers(-30, 30)))
    quadratic = st.tuples(st.integers(-20, 20), st.integers(1, 60),
                          st.integers(-15, 15)).filter(lambda q: q[0] ** 2 < 4 * q[1])
    coeffs, roots, most = [1], [], draw(st.sampled_from([1, 3]))
    negative = draw(st.booleans())
    for _ in range(draw(st.integers(1, 9))):
        times = draw(st.integers(1, most))
        if draw(st.integers(0, 4)):  # the root -a 2^e / b
            a, b, e = draw(linear)
            a = abs(a) if negative else a
            poly = [a << e, b] if e >= 0 else [a, b << -e]
            roots += [Fraction(-poly[0], poly[1])] * times
        else:  # x^2 + a 2^e x + b 4^e
            a, b, e = draw(quadratic)
            poly = [b << 2 * e, a << e, 1] if e >= 0 else [b, a << -e, 1 << -2 * e]
        for _ in range(times):
            coeffs = _times(coeffs, poly)
    if draw(st.booleans()):
        coeffs = [-c for c in coeffs]
    return coeffs, len(set(roots)) < len(roots)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_factored_polynomials())
def test_bisection_verdicts_equal_the_chain(case):
    # the Descartes bisection gives the Sturm chain's (status, witness), or
    # the Newton witness where one fires, and it leaves exactly the repeated
    # real roots to the chain: square-free real roots settle within the depth
    # bound, spread over 2^-30 .. 2^30 or at a split point
    coeffs, repeated = case
    calls = []

    def spy(c):
        calls.append(c)
        return _sturm_verdict(c)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(seqanalysis, "_sturm_verdict", spy)
        verdict = branden_criterion(make_sequence(coeffs, 4096))
    chain = _sturm_verdict(coeffs)
    if _newton_violation(coeffs) is not None:
        assert verdict.witness.startswith("non-real root (Newton") and not calls
        assert chain.witness == "non-real root (exact count)", coeffs
    else:
        assert verdict == chain, coeffs
        assert bool(calls) == repeated, coeffs


def test_bisection_settles_spread_square_free_roots(monkeypatch):
    # 60 polynomials of 6 to 16 distinct real roots +-m 2^e / d, m < 2^20,
    # d in 1, 3, 5, 7, e in -30 .. 30, half of them all negative: no chain,
    # and the chain's verdict
    rng = random.Random(2024)
    cases = []
    for n in range(60):
        roots = set()
        while len(roots) < rng.randint(6, 16):
            m = rng.randint(1, 1 << 20) * (1 if n % 2 else rng.choice([-1, 1]))
            roots.add(Fraction(m, rng.choice([1, 3, 5, 7])) * Fraction(2) ** rng.randint(-30, 30))
        coeffs = [1]
        for r in roots:
            coeffs = _times(coeffs, [r.numerator, r.denominator])
        cases.append(coeffs)
    want = [_sturm_verdict(c) for c in cases]

    def no_chain(coeffs):
        raise AssertionError("Sturm chain reached")

    monkeypatch.setattr(seqanalysis, "_sturm_verdict", no_chain)
    got = [branden_criterion(make_sequence(c, 4096)) for c in cases]
    assert got == want
    assert {v.status for v in got} == {"real_negative", "not_real_negative"}


def test_bisection_decides_the_e7_node7_lines_without_the_chain(e7, monkeypatch):
    # L1-40 at 128 and 256 bits: none reaches the chain, and every verdict
    # is the chain's where no Newton inequality fails (L1-27), the Newton
    # witness from L28 on
    lines = {(level, bits): _e7_node7_line(e7, level, bits)
             for level in range(1, 41) for bits in (128, 256)}
    want = {key: _sturm_verdict(_exact_coeffs(seq)) for key, seq in lines.items()
            if key[0] < 28}

    def no_chain(coeffs):
        raise AssertionError("Sturm chain reached")

    monkeypatch.setattr(seqanalysis, "_sturm_verdict", no_chain)
    for (level, bits), seq in lines.items():
        verdict = branden_criterion(seq)
        if level < 28:
            assert verdict == want[level, bits], (level, bits)
        else:
            assert verdict.witness.startswith("non-real root (Newton"), (level, bits)
    assert {v.status for v in want.values()} == {"real_negative", "not_real_negative"}


def test_bisection_without_depth_leaves_every_split_to_the_chain(e7, monkeypatch):
    # with the depth bound at 0 no interval is halved: every polynomial with
    # two or more roots of one sign and no Newton witness reaches the chain,
    # and the verdicts stay the same
    cases = [_exact_coeffs(_e7_node7_line(e7, level, 128)) for level in range(2, 28)]
    cases += [[2, -3, 1], [1, 2, 1], [-2, 1, 1, 0, 0, 1], [6, 11, 6, 1], [1, 0, -5, 0, 4]]
    want = [branden_criterion(make_sequence(c, 4096)) for c in cases]
    calls = []

    def spy(c):
        calls.append(c)
        return _sturm_verdict(c)

    monkeypatch.setattr(seqanalysis, "_sturm_verdict", spy)
    monkeypatch.setattr(seqanalysis, "BISECTION_DEPTH", 0)
    for c, verdict in zip(cases, want):
        calls.clear()
        assert branden_criterion(make_sequence(c, 4096)) == verdict, c
        assert _newton_violation(c) is None and calls == [c], c


def test_sine_factor_identity(e6):
    # per-root strict log-concavity mechanism behind the fundamental lines:
    # a_k^2 - a_{k-1} a_{k+1} equals (1 - cos(2 pi p / l)) / 2 for pairing p
    ctx = LevelContext(e6, 4)
    mp = ctx.mp
    l = ctx.shifted_level
    i = 1
    for idx in range(len(e6.positive_roots)):
        p = e6.positive_roots[idx][i - 1]
        ht = e6.heights[idx]
        for k in range(1, 4):
            a = sin_pi_over_l(ctx, k * p + ht)
            lo = sin_pi_over_l(ctx, (k - 1) * p + ht)
            hi = sin_pi_over_l(ctx, (k + 1) * p + ht)
            lhs = a * a - lo * hi
            rhs = (1 - mp.cospi(mp.mpf(2 * p) / l)) / 2
            assert abs(lhs - rhs) < mp.mpf(10) ** -35
            assert lhs >= 0


def test_e7_node7_lines_strictly_log_concave(e7):
    for level in (4, 8):
        ctx = LevelContext(e7, level)
        seq = make_sequence([qdim_line(7, k, ctx).value for k in range(level + 1)])
        assert is_log_concave(seq)


def test_branden_e7_fixture_boundary(e7):
    # the paper's threshold is 11/12; the higher levels stay non-real-rooted
    for level, status in ((1, "real_negative"), (4, "real_negative"),
                          (11, "real_negative"), (12, "not_real_negative"),
                          (16, "not_real_negative"), (28, "not_real_negative")):
        assert branden_criterion(_e7_node7_line(e7, level, 128)).status == status


def test_sequence_validation():
    with pytest.raises(ValueError):
        RealSequence(entries=(), tolerance=1)
    with pytest.raises(ValueError):
        make_sequence([float("nan")])
    with pytest.raises(ValueError):
        log_concavity_order(make_sequence([1.0]), -1)


def test_non_finite_entries_are_refused():
    # as triples, as mpf numbers, as floats and as text
    mp = mp_context(128)
    for value in (FINF, FNINF, FNAN, mp.inf, -mp.inf, mp.nan, float("inf"), "inf", "-inf",
                  "nan", "Infinity"):
        with pytest.raises(ValueError, match="^entries must be finite$"):
            make_sequence([1, value, 1])


def test_ints_and_fractions_are_read_by_value():
    # an int or a Fraction is its numerator and denominator, never its str:
    # past the double range the refusal quotes the value in a few
    # characters, whatever its digit count (2**20000 has more digits than
    # Python converts to text), and in range it is the text's entry
    for value in (2 ** 20000, Fraction(1, 3 ** 9000), 10 ** 400, -(10 ** 400)):
        with pytest.raises(ValueError, match="is outside the double range") as exc:
            make_sequence([1, value, 1])
        assert len(str(exc.value)) < 200
    for value in (3, -7, Fraction(22, -7), Fraction(1, 3 ** 600), 2 ** 1000, True):
        text = f"{value.numerator}/{value.denominator}"
        assert make_sequence([value]) == make_sequence([text]), value
    with pytest.raises(ValueError, match=r"^1{37}\.\.\. is outside the double range"):
        make_sequence(["1" * 500])


def test_a_long_side_of_a_ratio_is_refused_before_int_reads_it():
    # each side of a/b has at most MAX_RATIO_SIDE characters: past it the
    # entry is refused in at most 80 characters, naming the bound, before
    # Python's 4 300-digit limit on int(); at the bound both sides parse
    assert seqanalysis.MAX_RATIO_SIDE == 1000
    long = "1" * 5000
    for text in ("1/" + long, long + "/1", long + "/" + long, "1" * 1001 + "/7"):
        with pytest.raises(ValueError) as exc:
            make_sequence([text])
        message = str(exc.value)
        assert message == f"{text[:37]}...: a side of a/b exceeds 1000 characters", text
        assert len(message) <= 80
    assert make_sequence(["1" * 1000 + "/" + "1" * 1000]) == make_sequence([1])
    assert make_sequence(["-" + "0" * 999 + "/" + "0" * 999 + "3"]) == make_sequence([0])


_EDGE_LITERALS = ["1/3", "22/-7", "1_000", " 1.5 ", "-0", ".5", "1e-320", "-0/5", "+7/1"]


@st.composite
def _decimal_literals(draw):
    """(text, p): a decimal literal with a decimal exponent in +-300, or a/b
    of two ints, at 64, 128 or 256 bits."""
    p = draw(st.sampled_from([64, 128, 256]))
    digits = st.text("0123456789", max_size=30)
    if draw(st.booleans()):
        den = draw(st.integers(-10 ** 40, 10 ** 40).filter(bool))
        return f"{draw(st.integers(-10 ** 40, 10 ** 40))}/{den}", p
    whole, frac = draw(digits), draw(digits)
    if not whole and not frac.strip("0"):  # mpmath cannot parse ".", ".0", ".00", ...
        whole = "0"
    sign = draw(st.sampled_from(["", "-", "+"]))
    point = f".{frac}" if frac or draw(st.booleans()) else ""
    exponent = f"e{draw(st.integers(-300, 300))}" if draw(st.booleans()) else ""
    return f"{sign}{whole}{point}{exponent}", p


@settings(max_examples=600, deadline=None)
@given(st.one_of(_decimal_literals(),
                 st.tuples(st.sampled_from(_EDGE_LITERALS), st.sampled_from([64, 128, 256]))))
def test_parsed_entries_are_mpmaths_bits(case):
    # the exact value rounded once to p bits is mpmath's parse, bit for bit;
    # a nonzero value outside the double range is refused
    text, p = case
    want = mp_context(p).mpf(text)._mpf_
    _, man, exp, bc = want
    if man and not -1073 <= exp + bc <= 1024:
        with pytest.raises(ValueError, match="outside the double range"):
            make_sequence([text], p)
    else:
        assert make_sequence([text], p).entries == (triple(want, p),)


def test_far_apart_entries_cost_no_more():
    # each L-iterate doubles the exponent spread, and order 60 spans about
    # 2^70 bits: a p-bit sum of operands more than p + 1 binades apart is
    # the larger one, without aligning them
    assert log_concavity_order(make_sequence(["1e-300", 1, "1e-300"]), 60) == 60


def test_wider_triples_are_rounded_to_the_sequence_precision(e7):
    # a RealSequence given 256-bit triples at p = 128 holds them rounded to
    # 128 bits, and decides as make_sequence does on the same triples
    wide = [make_sequence(alcove_line(7, LevelContext(e7, level, 256)), 256)
            for level in range(1, 15)]
    wide += [make_sequence(alcove_line(node, LevelContext(e7, 28, 256)), 256) for node in (4, 5)]
    wide += [make_sequence(values, 256) for values in ([1, 1, 2], [1, 3, 9.5, 27], ["1e-30", 1])]
    verdicts = set()
    for w in wide:
        seq, ref = RealSequence(w.entries, w.tolerance, 128), make_sequence(w.entries)
        assert seq.entries == ref.entries
        assert seq.tolerance[1].bit_length() == 128
        verdict = is_log_concave(seq), log_concavity_order(seq, 8), branden_criterion(seq)
        assert verdict == (is_log_concave(ref), log_concavity_order(ref, 8),
                           branden_criterion(ref))
        verdicts.add(verdict)
    assert len(verdicts) >= 4, verdicts


def _assert_port_matches_oracle(seq, oracle, max_order=6):
    """The triple sequence ``seq`` and the mpf oracle's ``oracle`` agree bit
    for bit on the entries and tolerances of every L-iterate up to
    ``max_order``, and verdict for verdict on is_log_concave,
    log_concavity_order and branden_criterion."""
    cur, ref = seq, oracle
    for _ in range(max_order + 1):
        assert [raw(e) for e in cur.entries] == [e._mpf_ for e in ref.entries]
        assert raw(cur.tolerance) == ref.tolerance._mpf_
        cur, ref = l_operator(cur), mpf_l_operator(ref)
    assert is_log_concave(seq) == mpf_is_log_concave(oracle)
    assert log_concavity_order(seq, max_order) == mpf_log_concavity_order(oracle, max_order)
    if any(man for _, man, _ in seq.entries):
        assert branden_criterion(seq) == mpf_branden_criterion(oracle)


@st.composite
def _mpf_sequences(draw):
    """Sequences of mpf numbers of one context at 64, 128 or 256 bits, zeros
    and both signs included, and that precision."""
    p = draw(st.sampled_from([64, 128, 256]))
    mp = mp_context(p)
    entry = st.one_of(
        st.just(0),
        st.builds(lambda s, m, e: mp.ldexp(-m if s else m, e), st.integers(0, 1),
                  st.integers(1, (1 << p) - 1), st.integers(-p - 80, 80 - p)))
    return [mp.mpf(v) for v in draw(st.lists(entry, min_size=1, max_size=10))], p


@settings(max_examples=150, deadline=None)
@given(_mpf_sequences())
def test_port_matches_the_mpf_oracle_on_mpf_entries(case):
    values, p = case
    _assert_port_matches_oracle(make_sequence(values, p), mpf_make_sequence(values))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.integers(-10 ** 40, 10 ** 40),
                          st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)),
                min_size=1, max_size=10))
def test_port_matches_the_mpf_oracle_on_parsed_entries(values):
    # ints and floats parse at 128 bits, as strings did in the oracle
    _assert_port_matches_oracle(make_sequence(values), mpf_make_sequence(values))


_BENCH_CONFIGS = [("E6", 2), ("E6", 4), ("E7", 2), ("E8", 2),  # verify-matrix
                  ("E6", 6), ("E6", 30), ("E7", 1), ("E7", 4), ("E7", 11), ("E7", 12),
                  ("E7", 28), ("E8", 4), ("E8", 16)]  # level-sweep


@pytest.mark.parametrize("bits", [64, 128, 256])
def test_port_matches_the_mpf_oracle_on_benchmark_lines(rs_map, bits):
    # every alcove line and adjoint row that verify reads
    for label, level in _BENCH_CONFIGS:
        rs = rs_map[label]
        ctx = LevelContext(rs, level, bits)
        for i in range(1, rs.rank + 1):
            top = level // rs.marks[i - 1]
            _assert_port_matches_oracle(
                make_sequence(alcove_line(i, ctx), bits),
                mpf_make_sequence([mpf(ctx.mp, qdim_line(i, k, ctx)._v) for k in range(top + 1)]))
        grid, node = build_qgrid(ctx), type_data(label).adjoint_node
        _assert_port_matches_oracle(
            make_sequence(grid.rows[node - 1][:level + 1], bits),
            mpf_make_sequence([mpf_cell(grid, node, k) for k in range(level + 1)]))
