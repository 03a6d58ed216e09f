"""Acceptance gate: one test per numbered criterion.

Each test prints exactly one line, ``ACCEPTANCE <n> <what>: PASS`` or
``FAIL`` followed by its elapsed time against its budget (``in 0.2 s of 60
s``), bypassing capture so the verdicts always reach the console, and then
asserts.  Budgets are wall-clock seconds and are part of the verdict.
"""

import itertools
import random
import time
from fractions import Fraction

import gasp_oracles
from gasptables import (
    CostExponents,
    EquivalenceTransform,
    GaspParams,
    apply_transform,
    asymptotic_compare,
    build_ilp_fixed,
    build_instance,
    candidate_set,
    canonical,
    construct,
    count_distinct,
    decode,
    exhaustive,
    exhaustive_fixed_prefix,
    fixed_prefix_table,
    full_report,
    greedy,
    h_function,
    n_of_r,
    negate,
    normal,
    optimal_r,
    plain_product,
    reduction_statistic,
    score_closed_form,
    security_check,
    squeeze,
    sumset,
)
from gasptables.degree_table import DegreeTable
from ilp_oracles import naive_solve


def _finish(capsys, num, what, problems, started, budget):
    elapsed = time.monotonic() - started
    if elapsed >= budget:
        problems.append(f"took {elapsed:.1f}s, budget {budget}s")
    verdict = "FAIL" if problems else "PASS"
    with capsys.disabled():
        print(f"ACCEPTANCE {num} {what}: {verdict} in {elapsed:.1f} s of {budget} s")
    assert not problems, "; ".join(problems)


def _blocks(t):
    return (tuple(t.alpha_p), tuple(t.alpha_s), tuple(t.beta_p), tuple(t.beta_s))


def test_acceptance_01_scores_and_counts_on_the_four_cube(capsys):
    started = time.monotonic()
    problems = []
    expected = {1: (14, 41), 2: (19, 36), 3: (18, 37), 4: (16, 39)}
    for r, (s, n) in expected.items():
        p = GaspParams(4, 4, 4, r)
        got_s = score_closed_form(p).total
        got_n = n_of_r(p)
        got_brute = count_distinct(construct(p))
        if (got_s, got_n, got_brute) != (s, n, n):
            problems.append(f"r={r}: got S={got_s}, N={got_n}, brute={got_brute}, want ({s}, {n})")
    _finish(capsys, 1, "closed-form scores and counts at K=L=T=4", problems, started, 1)


def test_acceptance_02_constructed_vectors_on_the_four_cube(capsys):
    started = time.monotonic()
    problems = []
    want_alpha = {
        1: (0, 1, 2, 3, 16, 20, 24, 28),
        2: (0, 1, 2, 3, 16, 17, 20, 21),
        3: (0, 1, 2, 3, 16, 17, 18, 20),
        4: (0, 1, 2, 3, 16, 17, 18, 19),
    }
    want_beta = (0, 4, 8, 12, 16, 17, 18, 19)
    for r, alpha in want_alpha.items():
        t = construct(GaspParams(4, 4, 4, r))
        if t.alpha != alpha:
            problems.append(f"r={r}: alpha {t.alpha} != {alpha}")
        if t.beta != want_beta:
            problems.append(f"r={r}: beta {t.beta} != {want_beta}")
    _finish(capsys, 2, "degree vectors at K=L=T=4", problems, started, 1)


def test_acceptance_03_optimal_chain_length_on_squares(capsys):
    started = time.monotonic()
    problems = []
    for n in range(1, 7):
        k = n * n
        want_n = 3 if n == 1 else n ** 4 + 2 * n ** 3 + 2 * n ** 2 - n - 2
        r_star, best, _ = optimal_r(k, k, k)
        if (r_star, best) != (n, want_n):
            problems.append(f"n={n}: reduced gave (r*={r_star}, N={best}), want ({n}, {want_n})")
        if n <= 3:
            r_full, best_full = gasp_oracles.optimal_r_full_scan(k, k, k)
            if (r_full, best_full) != (n, want_n):
                problems.append(f"n={n}: full scan gave ({r_full}, {best_full})")
            brute = count_distinct(construct(GaspParams(k, k, k, r_star)))
            if brute != want_n:
                problems.append(f"n={n}: brute count {brute} != {want_n}")
    _finish(capsys, 3, "optimal chain length on squares n=1..6", problems, started, 10)


def test_acceptance_04_h_values_and_candidate_set(capsys):
    started = time.monotonic()
    problems = []
    want_h = (76, 44, 32, 34, 32, 35, 38, 41, 45)
    got_h = tuple(h_function(9, 6, 9, r) for r in range(1, 10))
    if got_h != want_h:
        problems.append(f"h values {got_h} != {want_h}")
    tr = candidate_set(9, 6, 9)
    if tuple(tr.W) != (1, 2, 4, 8):
        problems.append(f"W {tr.W}")
    if tuple(tr.Q_dprime) != (1, 2, 3, 5, 9):
        problems.append(f"Q'' {tr.Q_dprime}")
    best = min(got_h)
    minimizers = {r for r, v in zip(range(1, 10), got_h) if v == best}
    if minimizers != {3, 5}:
        problems.append(f"minimizers {minimizers} != {{3, 5}}")
    _finish(capsys, 4, "h-function values and candidate set at (9,6,9)", problems, started, 1)


def test_acceptance_05_exhaustive_census(capsys):
    started = time.monotonic()
    problems = []
    res = exhaustive(2, 2, 5)
    if res.valid_tables != 2716:
        problems.append(f"valid {res.valid_tables} != 2716")
    if res.best_n != 17:
        problems.append(f"best {res.best_n} != 17")
    if res.entry_bound != (10, 10):
        problems.append(f"entry bound {res.entry_bound} != (10, 10)")
    want_optima = {
        ((6, 8), (0, 1, 2, 3, 4), (7, 8), (0, 1, 2, 3, 4)),
        ((7, 8), (0, 1, 2, 3, 4), (6, 8), (0, 1, 2, 3, 4)),
        ((0, 1), (4, 5, 6, 7, 8), (0, 2), (4, 5, 6, 7, 8)),
        ((0, 2), (4, 5, 6, 7, 8), (0, 1), (4, 5, 6, 7, 8)),
    }
    got_optima = {_blocks(t) for t in res.optima}
    if got_optima != want_optima:
        problems.append(f"optima {sorted(got_optima)}")
    _finish(capsys, 5, "exhaustive census at (2,2,5)", problems, started, 600)


def test_acceptance_06_lower_bounds_and_t1_tightness(capsys):
    started = time.monotonic()
    problems = []
    rep = full_report(2, 2, 5)
    if (rep.ineq1, rep.ineq2, rep.ineq3, rep.best) != (15, 16, 7, 16):
        problems.append(f"(2,2,5) bounds ({rep.ineq1}, {rep.ineq2}, {rep.ineq3}, {rep.best})")
    if full_report(4, 4, 4).best != 28:
        problems.append(f"(4,4,4) best {full_report(4, 4, 4).best} != 28")
    for K in range(1, 9):
        for L in range(1, K + 1):
            want = K * L + K + L
            got = full_report(K, L, 1).best
            achieved = n_of_r(GaspParams(K, L, 1, 1))
            if got != want or achieved != want:
                problems.append(f"T=1 K={K} L={L}: bound {got}, achieved {achieved}, want {want}")
    _finish(capsys, 6, "lower bounds and T=1 tightness", problems, started, 1)


def test_acceptance_07_greedy_on_the_fifteen_cube(capsys):
    started = time.monotonic()
    problems = []
    _, n_star, _ = optimal_r(15, 15, 15)
    g = greedy(15, 15, 15)
    if g.n != 368 or n_star != 368:
        problems.append(f"greedy N={g.n}, chain-optimal N={n_star}, want 368")
    published = (225, 226, 227, 229, 240, 241, 242, 244, 255, 256, 257, 259, 270, 271, 272)
    n_published = count_distinct(fixed_prefix_table(15, 15, 15, published))
    if n_published != 368:
        problems.append(f"published suffix counts {n_published} != 368")
    _finish(capsys, 7, "greedy search at (15,15,15)", problems, started, 60)


def test_acceptance_08_reduction_statistic(capsys):
    started = time.monotonic()
    problems = []
    mean = reduction_statistic(300, 300)
    if not isinstance(mean, Fraction):
        problems.append(f"statistic is {type(mean).__name__}, not Fraction")
    if abs(float(mean) - 0.325) > 0.005:
        problems.append(f"statistic {float(mean):.6f} outside 0.325 +/- 0.005")
    _finish(capsys, 8, "candidate-reduction statistic on the 300x300 grid", problems, started, 600)


def test_acceptance_09_integer_program_sizes_and_tiny_solves(capsys):
    started = time.monotonic()
    problems = []
    for K in range(1, 6):
        for L in range(1, K + 1):
            for T in range(1, 6):
                model = build_ilp_fixed(K, L, T)
                want_vars = T * T * K * L + T ** 3 + T * T + T * K + 2 * T + K
                # Rows by family: def_N, K+T-1 fix_U, one link per suffix row
                # and value, one and val per suffix row, sort and gap per
                # adjacent pair.  The reference formula
                # T^2KL+T^3-TKL-TK+5T+K-3 undercounts this by 2TK+1 at every
                # size: at T=1 it gives 3 rows for all K and L, yet each of the
                # K+1 link rows is needed (dropping any one lets the optimum
                # fall below the census, see tests/test_ilp.py), so with the
                # one-hot row a sound model has more than 3 rows once K >= 2.
                n_values = T * K * L + T * T + K - K * L
                by_family = 1 + (K + T - 1) + T * n_values + T + T + (T - 1) + (T - 1)
                want_cons = T * T * K * L + T ** 3 - T * K * L + T * K + 5 * T + K - 2
                if by_family != want_cons:
                    problems.append(
                        f"(K,L,T)=({K},{L},{T}): rows by family {by_family}, closed form {want_cons}"
                    )
                if len(model.variables) != want_vars:
                    problems.append(
                        f"(K,L,T)=({K},{L},{T}): {len(model.variables)} variables, formula {want_vars}"
                    )
                if len(model.constraints) != want_cons and len(problems) < 4:
                    problems.append(
                        f"(K,L,T)=({K},{L},{T}): {len(model.constraints)} constraints, formula {want_cons}"
                    )
    for k, l, t in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2)):
        out = naive_solve(build_ilp_fixed(k, l, t))
        want = exhaustive_fixed_prefix(k, l, t).best_n
        if out.status != "optimal" or out.objective != want:
            problems.append(f"solve ({k},{l},{t}): {out.status} {out.objective}, census {want}")
    _finish(capsys, 9, "integer-program size formulas and tiny solves", problems, started, 60)


def _random_table(rng):
    def block(n, top):
        return tuple(rng.randrange(top) for _ in range(n))

    k, l, t = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
    return DegreeTable(
        K=k, L=l, T=t,
        alpha_p=block(k, 13), alpha_s=block(t, 13),
        beta_p=block(l, 13), beta_s=block(t, 13),
    )


def _n_of(t):
    return len(sumset(t.alpha, t.beta))


def test_acceptance_10_property_suites(capsys):
    started = time.monotonic()
    problems = []

    for K in range(1, 9):
        for L in range(1, K + 1):
            for T in range(1, 9):
                best = None
                for r in range(1, min(K, T) + 1):
                    p = GaspParams(K, L, T, r)
                    n = n_of_r(p)
                    if n != count_distinct(construct(p)):
                        problems.append(f"closed form off at ({K},{L},{T},{r})")
                    best = n if best is None else min(best, n)
                tr = candidate_set(K, L, T)
                if not any(n_of_r(GaspParams(K, L, T, r)) == best for r in tr.Q_dprime):
                    problems.append(f"candidates miss the optimum at ({K},{L},{T})")

    rng = random.Random(2024)
    for _ in range(300):
        t = _random_table(rng)
        n = _n_of(t)
        for op in (lambda x: squeeze(x)[0], normal, negate, canonical):
            if _n_of(op(t)) != n:
                problems.append(f"{op} changed the count on {t}")
    for _ in range(1000):
        t = _random_table(rng)
        tf = EquivalenceTransform(
            scale=rng.randint(1, 3),
            shift_alpha=rng.randint(0, 6),
            shift_beta=rng.randint(0, 6),
        )
        if _n_of(apply_transform(t, tf)) != _n_of(t):
            problems.append(f"transform {tf} changed the count on {t}")

    for K in range(1, 7):
        for L in range(1, K + 1):
            for T in range(1, 7):
                for r in range(1, min(K, T) + 1):
                    t = construct(GaspParams(K, L, T, r))
                    ap, bp = set(t.alpha_p), set(t.beta_p)
                    for ai in t.alpha:
                        left = {ai + b for b in bp}
                        for bj in t.beta:
                            if len(left & {a + bj for a in ap}) > 1:
                                problems.append(f"intersection > 1 at ({K},{L},{T},{r})")

    sets = [
        frozenset(c)
        for size in (1, 2, 3, 4)
        for c in itertools.combinations(range(13), size)
    ]

    def ap_diff(s):
        xs = sorted(s)
        if len(xs) < 2:
            return None
        d = xs[1] - xs[0]
        return d if all(xs[i + 1] - xs[i] == d for i in range(len(xs) - 1)) else None

    tagged = [(s, ap_diff(s)) for s in sets]
    for a, da in tagged:
        for b, db in tagged:
            n = len({x + y for x in a for y in b})
            if n < len(a) + len(b) - 1:
                problems.append(f"sumset bound broken for {sorted(a)}, {sorted(b)}")
            elif len(a) >= 2 and len(b) >= 2:
                tight = n == len(a) + len(b) - 1
                same_step = da is not None and db is not None and da == db
                if tight != same_step:
                    problems.append(f"equality mismatch for {sorted(a)}, {sorted(b)}")

    _finish(capsys, 10, "property suites for counts, candidates, equivalence, sumsets",
            problems[:5], started, 300)


def test_acceptance_11_protocol_roundtrip_and_security(capsys):
    started = time.monotonic()
    problems = []
    table = construct(GaspParams(4, 4, 4, 2))
    rng = random.Random(0)
    for seed in range(100):
        a = tuple(tuple(rng.randrange(1 << 16) for _ in range(4)) for _ in range(8))
        b = tuple(tuple(rng.randrange(1 << 16) for _ in range(8)) for _ in range(4))
        inst = build_instance(a, b, table, base_q=2, seed=seed)
        if decode(inst).product != plain_product(inst):
            problems.append(f"roundtrip mismatch at seed {seed}")
    clean = build_instance(
        tuple(tuple(rng.randrange(1 << 16) for _ in range(4)) for _ in range(8)),
        tuple(tuple(rng.randrange(1 << 16) for _ in range(8)) for _ in range(4)),
        table, base_q=1_000_003, seed=0,
    )
    rep = security_check(clean, mode="all")
    if not (rep.exhaustive and rep.ok and rep.checked == 58905):
        problems.append(f"exhaustive audit: ok={rep.ok}, checked={rep.checked} of {rep.total_subsets}")
    _finish(capsys, 11, "protocol roundtrip and exhaustive security audit", problems, started, 120)


def test_acceptance_12_cost_exponents(capsys):
    started = time.monotonic()
    problems = []
    for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        e = CostExponents(1, 1, 1, eps / 2, eps / 2, eps)
        outer, inner, wins = asymptotic_compare(e)
        if (outer, inner, wins) != (2 + eps / 2, 2 + eps, True):
            problems.append(f"eps={eps}: ({outer}, {inner}, {wins})")
    rng = random.Random(99)
    for _ in range(1000):
        e_k = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        e_l = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        e_a = e_k + Fraction(rng.randint(0, 8), rng.randint(1, 4))
        e_c = e_l + Fraction(rng.randint(0, 8), rng.randint(1, 4))
        e_b = e_k + e_l + Fraction(rng.randint(0, 10), rng.randint(1, 4))
        outer, inner, wins = asymptotic_compare(
            CostExponents(e_a, e_b, e_c, e_k, e_l, e_k + e_l)
        )
        if (outer <= inner) != wins:
            problems.append(f"predicate mismatch at {(e_a, e_b, e_c, e_k, e_l)}")
    _finish(capsys, 12, "communication-cost exponents", problems, started, 1)


def test_acceptance_13_ratio_ceiling_on_squares(capsys):
    started = time.monotonic()
    problems = []
    ratios = {
        n: Fraction(n_of_r(GaspParams(n * n, n * n, n * n, n)), n ** 4 + 3 * n * n)
        for n in range(2, 31)
    }
    worst = max(ratios.values())
    if worst >= Fraction(138, 100):
        problems.append(f"worst ratio {worst} not below 1.38")
    argmax = max(ratios, key=ratios.get)
    if argmax != 3:
        problems.append(f"worst ratio at n={argmax}, expected 3")
    _finish(capsys, 13, "server-count ratio ceiling on squares", problems, started, 1)
