from __future__ import annotations

import random

import pytest

import qslab
from qslab.affweyl import (
    AffineReduction,
    apply_word,
    enumerate_alcove,
    reduce_to_dominant,
)
from qslab.krchar import chari_decomposition
from qslab.qnum import LevelContext, qdim
from qslab.report import E8_SIGMA
from qslab.rootsys import fundamental_weight, type_data

from oracles import (MpfQReal, find_root, in_alcove, pairing, reflection_dot, s0_dot,
                     si_dot, sine_fold, translate_by_root, zero_tolerance)


def qdim_formal(weight, ctx):
    """Sine product over all positive roots, defined for any integer weight.

    Transforms with a sign under every dot reflection, so it extends qdim off
    the dominant cone; used as the oracle for the reduction's sign and wall
    verdicts.
    """
    rs = ctx.root_system
    shifted = tuple(c + 1 for c in weight)
    factors = [
        (pairing(rs, shifted, i), rs.heights[i])
        for i in range(len(rs.positive_roots))
    ]
    return MpfQReal(*sine_fold(ctx, factors))


def test_si_dot_involution_and_walls(e6):
    ctx = LevelContext(e6, 4)
    rng = random.Random(7)
    for _ in range(50):
        w = tuple(rng.randint(-4, 4) for _ in range(6))
        i = rng.randint(1, 6)
        assert apply_word((i,), apply_word((i,), w, ctx)[0], ctx)[0] == w
    fixed = (0, 2, -1, 3, 0, 1)  # (w+rho)_3 = 0
    assert apply_word((3,), fixed, ctx)[0] == fixed


def test_s0_dot_involution(rs_map):
    rng = random.Random(11)
    for rs in rs_map.values():
        ctx = LevelContext(rs, 5)
        for _ in range(50):
            w = tuple(rng.randint(-4, 4) for _ in range(rs.rank))
            assert apply_word((0,), apply_word((0,), w, ctx)[0], ctx)[0] == w


@pytest.mark.parametrize("level", [1, 2, 5, 8])
def test_s0_dot_e6_closed_form(e6, level):
    ctx = LevelContext(e6, level)
    for k in range(-3, level + 5):
        image = apply_word((0,), fundamental_weight(6, 2, k), ctx)[0]
        assert image == fundamental_weight(6, 2, level + 1 - k)


@pytest.mark.parametrize("level", [1, 3, 6])
def test_s0_dot_e8_closed_form(e8, level):
    ctx = LevelContext(e8, level)
    for s in range(-2, 5):
        for r in range(-2, 5):
            lam = tuple(s if j == 0 else r if j == 7 else 0 for j in range(8))
            expect = tuple(
                s if j == 0 else (level + 1 - 2 * s - r) if j == 7 else 0
                for j in range(8)
            )
            assert apply_word((0,), lam, ctx)[0] == expect


@pytest.mark.parametrize("level", [2, 5])
def test_e7_thirteen_letter_word(e7, level):
    ctx = LevelContext(e7, level)
    word = (0, 1, 3, 4, 5, 6, 7, 6, 5, 4, 3, 1, 0)
    for p in range(-2, 6):
        for q in range(-2, 6):
            lam = tuple(p if j == 1 else q if j == 6 else 0 for j in range(7))
            image, parity = apply_word(word, lam, ctx)
            expect = tuple(
                (level - p + 7) if j == 1
                else (2 * p + q - level - 7) if j == 6
                else 0
                for j in range(7)
            )
            assert image == expect
            assert parity == -1


@pytest.mark.parametrize("level", [1, 4])
def test_e8_reflection_translation_composite(e8, level):
    ctx = LevelContext(e8, level)
    beta97 = find_root(e8, (2, 2, 3, 4, 3, 2, 1, 0))
    for s in range(-2, 5):
        for r in range(-2, 5):
            lam = tuple(s if j == 0 else r if j == 7 else 0 for j in range(8))
            image = translate_by_root(
                e8, beta97, ctx.shifted_level, reflection_dot(e8, beta97, lam))
            expect = tuple(
                (level + 13 - s) if j == 0
                else (2 * s + r - level - 13) if j == 7
                else 0
                for j in range(8)
            )
            assert image == expect


def test_e8_sigma_word_matches_reflection_translation_oracle(e8):
    # sigma = t_{l beta} s_beta written as the generator word w s0 w^-1
    beta97 = find_root(e8, (2, 2, 3, 4, 3, 2, 1, 0))
    for level in range(1, 21):
        ctx = LevelContext(e8, level)
        for s in range(-2, 7):
            for r in range(-2, 7):
                lam = tuple(s if j == 0 else r if j == 7 else 0 for j in range(8))
                image, parity = apply_word(E8_SIGMA, lam, ctx)
                assert image == translate_by_root(
                    e8, beta97, ctx.shifted_level, reflection_dot(e8, beta97, lam))
                assert parity == -1


def test_reduce_already_dominant(e6):
    ctx = LevelContext(e6, 4)
    for lam in enumerate_alcove(e6, 4):
        red = reduce_to_dominant(lam, ctx)
        assert red.result_kind == "dominant"
        assert red.dominant_weight == lam
        assert red.sign == 1
        assert red.word_length == 0


@pytest.mark.parametrize("level", [1, 2, 3, 6])
def test_reduce_e6_shifted_adjoint_line(e6, level):
    # (level+1)*w2 reduces to 0 with sign -1: its quantum dimension is -1,
    # and the vanishing of the box-sum at level+1 comes from the telescoping
    # pairing k <-> level+1-k, not from this single weight.
    ctx = LevelContext(e6, level)
    lam = fundamental_weight(6, 2, level + 1)
    red = reduce_to_dominant(lam, ctx)
    assert red.result_kind == "dominant"
    assert red.dominant_weight == (0,) * 6
    assert red.sign == -1
    assert abs(qdim_formal(lam, ctx).value + 1) < ctx.mp.mpf(10) ** -30


@pytest.mark.parametrize("level", [3, 5, 7])
def test_reduce_e6_wall_at_half_point(e6, level):
    # for odd levels the midpoint of the w2 line sits on a reflection wall
    ctx = LevelContext(e6, level)
    lam = fundamental_weight(6, 2, (level + 1) // 2)
    red = reduce_to_dominant(lam, ctx)
    assert red.result_kind == "on_wall"
    assert qdim_formal(lam, ctx).value == 0


@pytest.mark.parametrize("level", [1, 3])
def test_reduce_e8_vanishing_family(e8, level):
    ctx = LevelContext(e8, level)
    for m in range(1, 17):
        for r in (0, 1, 5):
            lam = tuple(
                (level + 13 + m) if j == 0 else r if j == 7 else 0 for j in range(8)
            )
            red = reduce_to_dominant(lam, ctx)
            assert red.result_kind == "on_wall", (m, r)
            assert qdim_formal(lam, ctx).value == 0


def _reduce_reference(weight, ctx):
    """The greedy reduction of ``reduce_to_dominant``, stated on the
    one-letter dot actions of the oracles."""
    rs, l = ctx.root_system, ctx.shifted_level
    lam, sign, steps = tuple(weight), 1, 0
    while True:
        shifted = tuple(c + 1 for c in lam)
        if 0 in shifted:
            return AffineReduction("on_wall", None, sign, steps)
        node = next((i + 1 for i, c in enumerate(shifted) if c < 0), None)
        if node is not None:
            lam = si_dot(rs, node, lam)
        else:
            total = sum(a * c for a, c in zip(rs.marks, shifted))
            if total == l:
                return AffineReduction("on_wall", None, sign, steps)
            if total < l:
                return AffineReduction("dominant", lam, sign, steps)
            lam = s0_dot(lam, ctx)
        sign, steps = -sign, steps + 1


def test_reduce_matches_formal_sign(rs_map):
    rng = random.Random(20260809)
    for label, level, bound in (("E6", 3, 5), ("E7", 4, 5), ("E8", 2, 5),
                                ("E6", 12, 40), ("E7", 12, 40), ("E8", 12, 40)):
        rs = rs_map[label]
        ctx = LevelContext(rs, level)
        for _ in range(120):
            lam = tuple(rng.randint(-bound, bound) for _ in range(rs.rank))
            red = reduce_to_dominant(lam, ctx)
            # result kind, weight, sign and word length
            assert red == _reduce_reference(lam, ctx), (label, level, lam)
            formal = qdim_formal(lam, ctx)
            if red.result_kind == "on_wall":
                assert formal.value == 0
            else:
                assert in_alcove(rs, red.dominant_weight, level)
                target = qdim(red.dominant_weight, ctx)
                tol = zero_tolerance(ctx) * (formal.magnitude_scale
                                            + target.magnitude_scale)
                assert abs(formal.value - red.sign * target.value) <= tol
                # the reduction is idempotent on its output
                again = reduce_to_dominant(red.dominant_weight, ctx)
                assert again.result_kind == "dominant"
                assert again.dominant_weight == red.dominant_weight
                assert again.sign == 1 and again.word_length == 0


@pytest.mark.parametrize("label,level", [("E7", 40), ("E8", 40)])
def test_reduce_matches_reference_on_chari_weights(rs_map, label, level):
    # the weights a fold of the direct rows into the alcove reduces
    rs = rs_map[label]
    ctx = LevelContext(rs, level)
    weights = {w for node in type_data(label).direct_nodes
               for k in range(ctx.shifted_level + 4)
               for _, w in chari_decomposition(rs, node, k).terms}
    for lam in sorted(weights):
        # result kind, weight, sign and word length
        assert reduce_to_dominant(lam, ctx) == _reduce_reference(lam, ctx), lam


def _closed_form_length(rs, lam, l):
    """The number of walls (x | beta) = m l between lam + rho and the alcove."""
    return sum(abs((pairing(rs, lam, b) + sum(rs.positive_roots[b])) // l)
               for b in range(len(rs.positive_roots)))


@pytest.mark.parametrize("label,level", [("E7", 40), ("E8", 40)])
def test_reduce_length_is_the_closed_form(rs_map, label, level):
    # a walk that ends in the alcove crosses every wall between the weight
    # and the alcove once, on the Chari weights and on random weights
    rs = rs_map[label]
    ctx = LevelContext(rs, level)
    rng = random.Random(level)
    weights = {w for node in type_data(label).direct_nodes
               for k in range(ctx.shifted_level + 4)
               for _, w in chari_decomposition(rs, node, k).terms}
    weights |= {tuple(rng.randint(-80, 80) for _ in range(rs.rank)) for _ in range(300)}
    dominant = 0
    for lam in sorted(weights):
        red = _reduce_reference(lam, ctx)
        if red.result_kind == "dominant":
            dominant += 1
            assert red.word_length == _closed_form_length(rs, lam, ctx.shifted_level), lam
    assert dominant > 50


@pytest.mark.parametrize("label,level", [("E6", 12), ("E7", 20), ("E8", 40)])
def test_reduce_translates_far_weights_to_the_same_answer(rs_map, monkeypatch, label, level):
    # with the walk limit at 0, every weight off the alcove is translated by
    # a root-lattice element first: a dominant outcome keeps the walk's
    # weight, sign and length, an on_wall outcome stays on a wall, its sign
    # the parity of its count; and far weights, beyond the real limit, get
    # the walk's own verdict, and its answer when it ends in the alcove
    rs = rs_map[label]
    ctx = LevelContext(rs, level)
    rng = random.Random(level)
    weights = [tuple(rng.randint(-100, 100) for _ in range(rs.rank)) for _ in range(200)]
    kinds = set()
    with monkeypatch.context() as patched:
        patched.setattr(qslab.affweyl, "_WALK_LIMIT", 0)
        for lam in weights:
            got, want = reduce_to_dominant(lam, ctx), _reduce_reference(lam, ctx)
            kinds.add(want.result_kind)
            if want.result_kind == "dominant":
                assert got == want, lam
            else:
                assert got.result_kind == "on_wall" and got.sign == (-1) ** got.word_length, lam
    assert kinds == {"dominant", "on_wall"}
    kinds.clear()
    for _ in range(200):
        far = tuple(rng.randint(-10000, 10000) for _ in range(rs.rank))
        if _closed_form_length(rs, far, ctx.shifted_level) > qslab.affweyl._WALK_LIMIT:
            got, want = reduce_to_dominant(far, ctx), _reduce_reference(far, ctx)
            kinds.add(want.result_kind)
            assert got.result_kind == want.result_kind, far
            assert want.result_kind == "on_wall" or got == want, far
            if "dominant" in kinds:
                break
    assert "dominant" in kinds


def test_reduce_keeps_every_walk_within_the_limit(e6):
    # a walk that ends within the limit is reported as it is, however many
    # walls lie beyond the wall it meets: 46 reflections here, 32 000 walls
    ctx = LevelContext(e6, 3)
    lam = (-30000, 1, 2, 3, 4, 5)
    assert _closed_form_length(e6, lam, ctx.shifted_level) > qslab.affweyl._WALK_LIMIT
    assert reduce_to_dominant(lam, ctx) == _reduce_reference(lam, ctx) == AffineReduction(
        "on_wall", None, 1, 46)


def test_in_alcove(e6, e8):
    assert in_alcove(e6, (0,) * 6, 0)
    for level in (1, 4):
        for i in range(1, 7):
            k = level // e6.marks[i - 1]
            assert in_alcove(e6, fundamental_weight(6, i, k), level)
    for level in range(0, 5):
        assert not in_alcove(e6, fundamental_weight(6, 2, level + 1), level)
    assert in_alcove(e8, fundamental_weight(8, 8, 2), 4)


def test_enumerate_alcove(e6, e8, a1):
    assert enumerate_alcove(e6, 0) == [(0,) * 6]
    lvl1 = set(enumerate_alcove(e6, 1))
    assert lvl1 == {(0,) * 6, fundamental_weight(6, 1), fundamental_weight(6, 6)}
    lvl2_e8 = set(enumerate_alcove(e8, 2))
    assert lvl2_e8 == {(0,) * 8, fundamental_weight(8, 1), fundamental_weight(8, 8)}
    assert set(enumerate_alcove(a1, 2)) == {(0,), (1,), (2,)}
    with pytest.raises(ValueError):
        enumerate_alcove(e6, 13)


def test_apply_word_parity(e7):
    ctx = LevelContext(e7, 3)
    lam = (1, 0, 0, 2, 0, 0, 1)
    image, parity = apply_word((0, 3, 0), lam, ctx)
    assert parity == -1
    assert apply_word((), lam, ctx) == (lam, 1)


def _dot_word_reference(word, lam, ctx):
    """Right-to-left composition of the one-letter dot actions."""
    w = tuple(lam)
    for g in reversed(word):
        w = s0_dot(w, ctx) if g == 0 else si_dot(ctx.root_system, g, w)
    return w


@pytest.mark.parametrize("level", [1, 2, 5])
def test_apply_word_matches_reference_dot_action(rs_map, a1, level):
    # a1's theta is 2*w1, not a fundamental weight, so the s0 update is not
    # a single unit step there
    assert a1.theta_weight == (2,)
    rng = random.Random(level)
    for rs in (*rs_map.values(), a1):
        ctx = LevelContext(rs, level)
        for _ in range(200):
            word = [rng.randint(0, rs.rank) for _ in range(rng.randint(0, 15))]
            lam = [rng.randint(-3, 6) for _ in range(rs.rank)]
            before = list(lam)
            image, parity = apply_word(word, lam, ctx)
            assert lam == before  # the caller's weight is not updated in place
            assert image == _dot_word_reference(word, lam, ctx), (rs.type_label, word, lam)
            assert parity == (-1) ** len(word)


def test_apply_word_rejects_out_of_range_letters(rs_map, a1):
    for rs in (*rs_map.values(), a1):
        ctx = LevelContext(rs, 2)
        lam = (0,) * rs.rank
        for word in ([rs.rank + 1], [1, -1], [0, rs.rank + 7, 0]):
            with pytest.raises(ValueError, match="out of range"):
                apply_word(word, lam, ctx)


def test_alcove_downward_closure(rs_map):
    # stepping down by a simple root never leaves the alcove
    for label, level in (("E6", 4), ("E7", 3), ("E8", 4)):
        rs = rs_map[label]
        for lam in enumerate_alcove(rs, level):
            for j in range(1, rs.rank + 1):
                alpha = rs.cartan[j - 1]
                mu = tuple(c - a for c, a in zip(lam, alpha))
                if all(c >= 0 for c in mu):
                    assert in_alcove(rs, mu, level), (label, lam, j)


def test_e8_composite_reflection_sign_identity(e8):
    # the reflection-translation composite has odd parity: quantum dimensions
    # of a dominant weight and its dominant image differ exactly by a sign
    level = 4
    ctx = LevelContext(e8, level)
    beta97 = find_root(e8, (2, 2, 3, 4, 3, 2, 1, 0))
    checked = 0
    for s in range(0, level + 14):
        for r in range(0, 6):
            lam = tuple(s if j == 0 else r if j == 7 else 0 for j in range(8))
            image = translate_by_root(
                e8, beta97, ctx.shifted_level, reflection_dot(e8, beta97, lam))
            if not all(c >= 0 for c in image):
                continue
            a = qdim(lam, ctx)
            b = qdim(image, ctx)
            tol = zero_tolerance(ctx) * (a.magnitude_scale + b.magnitude_scale)
            assert abs(a.value + b.value) <= tol, (s, r)
            checked += 1
    assert checked > 10
