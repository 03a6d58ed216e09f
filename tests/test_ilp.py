"""Model construction, LP text serialization, and the toy solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gasptables.ilp as ilp
import ilp_oracles as oracle
from gasptables import (
    DomainError,
    build_blp,
    build_ilp_fixed,
    emit_lp_text,
    exhaustive_fixed_prefix,
    naive_solve,
    parse_lp_text,
)
from gasptables.ilp import IlpModel, LinearConstraint, Variable


def var_count_formula(K, L, T):
    return T * T * K * L + T ** 3 + T * T + T * K + 2 * T + K


class TestModelValidation:
    def test_variable_kind(self):
        with pytest.raises(DomainError, match="unknown variable kind"):
            Variable("x", "float")

    def test_variable_name(self):
        with pytest.raises(DomainError, match="bad variable name"):
            Variable("2x", "binary")

    def test_constraint_sense(self):
        with pytest.raises(DomainError, match="bad sense"):
            LinearConstraint("c", (("x", 1),), "<", 0)

    def test_constraint_coeffs_cleaned(self):
        c = LinearConstraint("c", (("b", 1), ("a", 2), ("z", 0)), "<=", 3)
        assert c.coeffs == (("a", 2), ("b", 1))

    def test_repeated_variables_are_summed(self):
        c = LinearConstraint("c", (("x", 1), ("y", 4), ("x", 2), ("z", 1), ("z", -1)), "<=", 2)
        assert c.coeffs == (("x", 3), ("y", 4))
        m = IlpModel("m", (("x", -1), ("x", -1), ("y", 2), ("y", -2)),
                     (Variable("x", "binary"), Variable("y", "binary")), ())
        assert m.objective == (("x", -2),)

    def test_duplicate_variable(self):
        with pytest.raises(DomainError, match="duplicate variable"):
            IlpModel("m", (), (Variable("x", "binary"), Variable("x", "binary")), ())

    def test_unknown_variable_in_constraint(self):
        with pytest.raises(DomainError, match="unknown variable"):
            IlpModel("m", (), (Variable("x", "binary"),),
                     (LinearConstraint("c", (("y", 1),), "<=", 0),))

    def test_constraint_name_collision(self):
        with pytest.raises(DomainError, match="collides"):
            IlpModel("m", (), (Variable("x", "binary"),),
                     (LinearConstraint("x", (("x", 1),), "<=", 1),))

    def test_variable_accessor(self):
        m = build_ilp_fixed(1, 1, 1)
        assert m.variable("N").kind == "integer"
        with pytest.raises(KeyError):
            m.variable("nope")


class TestFixedModel:
    def test_counts_2_2_2(self):
        m = build_ilp_fixed(2, 2, 2)
        assert len(m.variables) == 38
        assert len(m.constraints) == 30

    def test_variable_count_formula(self):
        for K in range(1, 6):
            for L in range(1, K + 1):
                for T in range(1, 6):
                    m = build_ilp_fixed(K, L, T)
                    assert len(m.variables) == var_count_formula(K, L, T), (K, L, T)

    def test_constraint_count_decomposition(self):
        # rows: 1 definition + (K+T-1) pinned prefix values + one link per
        # (suffix row, value) + 2T selection rows + 2(T-1) ordering rows
        for K in range(1, 6):
            for L in range(1, K + 1):
                for T in range(1, 6):
                    m = build_ilp_fixed(K, L, T)
                    kl = K * L
                    nvals = T * (kl + T) + K - kl
                    want = 1 + (K + T - 1) + T * nvals + 2 * T + 2 * (T - 1)
                    assert len(m.constraints) == want, (K, L, T)

    def test_tight_link_variant(self):
        base = build_ilp_fixed(2, 2, 2)
        tight = build_ilp_fixed(2, 2, 2, tight_link=True)
        assert len(tight.variables) == len(base.variables)
        # each aggregated link row explodes into L + T per-column rows
        assert len(tight.constraints) == 30 - 20 + 20 * 4
        row = next(c for c in tight.constraints if c.name == "link_3_4_1")
        assert row.coeffs == (("S_3_4", 1), ("U_4", -1))
        assert row.sense == "<=" and row.rhs == 0
        for K, L, T in ((1, 1, 1), (2, 1, 3), (3, 2, 2), (4, 4, 1)):
            n_values = T * K * L + T * T + K - K * L
            base = len(build_ilp_fixed(K, L, T).constraints)
            tight = len(build_ilp_fixed(K, L, T, tight_link=True).constraints)
            assert tight - base == (L + T - 1) * T * n_values, (K, L, T)

    def test_rejects_l_above_k(self):
        with pytest.raises(DomainError, match="need L <= K"):
            build_ilp_fixed(1, 2, 1)


class TestBlpModel:
    def test_shape(self):
        m = build_blp(1, 1, 2, (2, 2))
        assert m.name == "census_1_1_2"
        assert len(m.variables) == 80
        assert len(m.constraints) == 88
        names = {v.name for v in m.variables}
        assert {"U_0", "U_4", "R_1_0", "C_3_4", "M_3_3_4"} <= names
        fams = {c.name.split("_")[0] for c in m.constraints}
        assert fams == {"ub", "uniq", "drow", "dcol", "cell", "rone", "cone",
                        "sum", "ord", "zero"}

    def test_entry_values_span_bound_sum(self):
        m = build_blp(1, 1, 1, (2, 3))
        u_vars = [v for v in m.variables if v.name.startswith("U_")]
        assert len(u_vars) == 6  # values 0..5

    def test_int_bound_shorthand(self):
        assert build_blp(1, 1, 1, 2) == build_blp(1, 1, 1, (2, 2))

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            build_blp(0, 1, 1, 2)
        with pytest.raises(DomainError):
            build_blp(1, 1, 1, -1)


class TestNaiveSolve:
    def test_fixed_1_1_1(self):
        out = naive_solve(build_ilp_fixed(1, 1, 1))
        assert out.status == "optimal"
        assert out.objective == 3
        # the suffix row picked value 1, i.e. alpha = (0, 1)
        assert out.assignment["R_2"] == 1
        assert out.assignment["S_2_1"] == 1

    def test_fixed_matches_search(self):
        for K, L, T in ((1, 1, 1), (1, 1, 2)):
            out = naive_solve(build_ilp_fixed(K, L, T))
            assert out.status == "optimal"
            assert out.objective == exhaustive_fixed_prefix(K, L, T).best_n

    def test_each_link_row_is_needed_at_t1(self):
        # At T=1 the reference constraint count is 3 for every K and L, but
        # the model has K+1 link rows and none of them can go: without any
        # one, the optimum falls below the fixed-prefix census.
        for K, L in ((2, 2), (3, 1)):
            m = build_ilp_fixed(K, L, 1)
            want = exhaustive_fixed_prefix(K, L, 1).best_n
            links = [c for c in m.constraints if c.name.startswith("link_")]
            assert len(links) == K + 1
            for link in links:
                rest = tuple(c for c in m.constraints if c is not link)
                out = naive_solve(IlpModel(m.name, m.objective, m.variables, rest))
                assert out.status == "optimal"
                assert out.objective < want, (K, L, link.name)

    def test_blp_1_1_1(self):
        out = naive_solve(build_blp(1, 1, 1, (1, 1)))
        assert out.status == "optimal"
        assert out.objective == 3

    def test_budget(self):
        out = naive_solve(build_ilp_fixed(1, 1, 2), budget=3)
        assert out.status == "budget_exceeded"
        assert out.objective is None
        assert out.assignment is None
        assert out.nodes == 4

    def test_infeasible(self):
        m = IlpModel(
            "m", (("x", 1),), (Variable("x", "binary"),),
            (LinearConstraint("c", (("x", 1),), ">=", 2),))
        assert naive_solve(m).status == "infeasible"

    def test_tiny_optimal(self):
        m = IlpModel(
            "m", (("x", 1), ("y", 1)),
            (Variable("x", "binary"), Variable("y", "binary")),
            (LinearConstraint("c", (("x", 1), ("y", 1)), ">=", 1),))
        out = naive_solve(m)
        assert out.status == "optimal" and out.objective == 1

    def test_repeated_variable_counts_in_full(self):
        # min -x subject to x + 2x <= 2: x = 1 would give 3 > 2
        m = parse_lp_text("Minimize\n obj: - x\nSubject To\n c: x + 2 x <= 2\n"
                          "Binary\n x\nEnd\n")
        assert m.constraints[0].coeffs == (("x", 3),)
        out = naive_solve(m)
        assert out.status == "optimal"
        assert out.assignment == {"x": 0} and out.objective == 0

    def test_requires_finite_bounds(self):
        m = IlpModel("m", (("x", 1),), (Variable("x", "integer", 0, None),), ())
        with pytest.raises(DomainError, match="finite bounds"):
            naive_solve(m)


class TestLpText:
    def test_roundtrip_fixed(self):
        m = build_ilp_fixed(2, 2, 2)
        assert parse_lp_text(emit_lp_text(m)) == m

    def test_roundtrip_tight(self):
        m = build_ilp_fixed(2, 1, 2, tight_link=True)
        assert parse_lp_text(emit_lp_text(m)) == m

    def test_roundtrip_blp(self):
        m = build_blp(1, 1, 2, (2, 2))
        assert parse_lp_text(emit_lp_text(m)) == m

    def test_sections_present(self):
        text = emit_lp_text(build_ilp_fixed(1, 1, 1))
        for marker in ("\\ suffix_1_1_1", "Minimize", "Subject To", "Bounds",
                       "Binary", "General", "End"):
            assert marker in text

    def test_long_rows_wrap(self):
        names = tuple(f"z_{i:02d}" for i in range(60))
        m = IlpModel(
            "wide",
            tuple((n, 1) for n in names),
            tuple(Variable(n, "binary", 0, 1) for n in names),
            (LinearConstraint("all", tuple((n, 1) for n in names), ">=", 30),))
        text = emit_lp_text(m)
        assert all(len(line) <= 255 for line in text.splitlines())
        # the single constraint spans several physical lines
        assert sum(1 for l in text.splitlines() if l.lstrip().startswith(("z_", "+ z_"))) > 1
        assert parse_lp_text(text) == m

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError, match="no objective"):
            parse_lp_text("End\n")
        bad = "Minimize\n obj: x\nSubject To\n c: x <= 1\nBounds\n nonsense\nEnd\n"
        with pytest.raises(DomainError, match="bound line"):
            parse_lp_text(bad)
        for row, message in ((" x <= 1", "constraint row missing name"),
                             (" c: x + y", "missing sense/rhs"),
                             (" c: x + * y <= 1", "cannot parse expression near")):
            with pytest.raises(DomainError, match=message):
                parse_lp_text(f"Minimize\n obj: x\nSubject To\n{row}\nEnd\n")


def builder_models():
    """The acceptance sizes, plain and tight, the T=1 models with one link
    row dropped, and the smallest census models."""
    models = []
    for K, L, T in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2)):
        models += [build_ilp_fixed(K, L, T), build_ilp_fixed(K, L, T, tight_link=True)]
    for K, L in ((2, 2), (3, 1)):
        m = build_ilp_fixed(K, L, 1)
        models += [IlpModel(m.name, m.objective, m.variables,
                            tuple(c for c in m.constraints if c is not link))
                   for link in m.constraints if link.name.startswith("link_")]
    return models + [build_blp(1, 1, 1, (1, 1)), build_blp(1, 1, 1, (1, 2))]


def oracle_text(model):
    """emit_lp_text with the reference term writer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ilp, "_format_terms", oracle._format_terms)
        return emit_lp_text(model)


NAMES = ("a", "b", "c", "d", "e")


@st.composite
def small_models(draw):
    """At most five variables, binary or small-range integer; rows and the
    objective may name a variable twice, and some rows are one-hot."""
    n = draw(st.integers(1, 5))
    variables = []
    for name in NAMES[:n]:
        if draw(st.booleans()):
            variables.append(Variable(name, "binary", 0, 1))
        else:
            lo = draw(st.integers(-2, 2))
            variables.append(Variable(name, "integer", lo, lo + draw(st.integers(-1, 3))))
    name = st.sampled_from(NAMES[:n])
    terms = st.lists(st.tuples(name, st.integers(-3, 3)), max_size=4).map(tuple)
    constraints = []
    for j in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            members = draw(st.lists(name, min_size=1, unique=True))
            constraints.append(LinearConstraint(f"r{j}", tuple((m, 1) for m in members), "=", 1))
        else:
            constraints.append(LinearConstraint(
                f"r{j}", draw(terms), draw(st.sampled_from(("<=", ">=", "="))),
                draw(st.integers(-3, 4))))
    return IlpModel("drawn", draw(terms), tuple(variables), tuple(constraints))


class TestAgainstOracle:
    @pytest.mark.parametrize("model", builder_models(), ids=lambda m: m.name)
    def test_builder_models(self, model):
        out = naive_solve(model)
        assert out.status == "optimal"
        assert out == oracle.naive_solve(model)
        for budget in (0, 1, 2, 5, out.nodes // 2, out.nodes - 1, out.nodes):
            assert naive_solve(model, budget) == oracle.naive_solve(model, budget), budget
        text = emit_lp_text(model)
        assert text == oracle_text(model)
        assert parse_lp_text(text) == oracle.parse_lp_text(text) == model

    def test_node_counts_pinned(self):
        # ACCEPTANCE 9's six tiny solves
        nodes = [naive_solve(build_ilp_fixed(K, L, T)).nodes
                 for K, L, T in ((1, 1, 1), (1, 1, 2), (2, 1, 1), (2, 2, 1), (3, 1, 1), (2, 2, 2))]
        assert nodes == [10, 151, 19, 43, 31, 1738]

    @settings(max_examples=400, deadline=None)
    @given(small_models(), st.one_of(st.none(), st.integers(0, 12)))
    def test_drawn_models(self, model, budget):
        assert naive_solve(model, budget) == oracle.naive_solve(model, budget)

    @settings(max_examples=200, deadline=None)
    @given(small_models(), st.integers(0, 40))
    def test_lp_text(self, model, width):
        # a wide row is wrapped over several lines
        names = tuple(f"w_{i:02d}" for i in range(width))
        model = IlpModel(
            model.name, model.objective + tuple((n, 3) for n in names),
            model.variables + tuple(Variable(n, "integer", -1, None) for n in names),
            model.constraints + (LinearConstraint("wide", tuple((n, -2) for n in names), ">=", 1),))
        text = emit_lp_text(model)
        assert text == oracle_text(model)
        assert parse_lp_text(text) == oracle.parse_lp_text(text) == model

    @given(st.lists(st.tuples(st.sampled_from(NAMES), st.integers(-12, 12)), max_size=6))
    def test_term_writer(self, coeffs):
        # raw terms, zero and repeated coefficients included
        assert ilp._format_terms(tuple(coeffs)) == oracle._format_terms(tuple(coeffs))
