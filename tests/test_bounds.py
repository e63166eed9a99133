"""Tests for upper/lower bounds, averages and the weight rules."""

from fractions import Fraction

import pytest

from composite_codec.core import DomainError, all_sequences
from composite_codec.bounds import (
    AVERAGE,
    BOUNDS,
    TABLE_KINDS,
    ValidityRangeError,
    aspv,
    asymptotic_upper,
    average_ball,
    ceil_log,
    emit_bound_table,
    format_rational,
    gspb_upper,
    gspb_weight_rule,
    is_prime_power,
    lower_bound,
    sphere_packing_upper,
)
from composite_codec.error_model import (
    PerChannel,
    Total,
    count_runs_weight,
    count_v,
    enumerate_ball,
    enumerate_del_ball,
    enumerate_sub_ball,
    parse_spec,
    runs,
    vertex_set_size,
)
from composite_codec.oracle import check_fractional_transversal, optimal_code_size


def test_format_rational():
    assert format_rational(Fraction(121, 5)) == "121/5"
    assert format_rational(Fraction(10)) == "10"
    assert format_rational(Fraction(-3, 2)) == "-3/2"


def test_ceil_log():
    assert ceil_log(3, 1) == 0
    assert ceil_log(3, 3) == 1
    assert ceil_log(3, 4) == 2
    assert ceil_log(2, 9) == 4
    with pytest.raises(DomainError):
        ceil_log(1, 5)
    with pytest.raises(DomainError):
        ceil_log(2, 0)


def test_is_prime_power():
    hits = [x for x in range(2, 20) if is_prime_power(x)]
    assert hits == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19]
    assert not is_prime_power(1)
    assert not is_prime_power(12)


def test_gspb_first_channel_closed_form():
    spec = parse_spec("(1,0)")
    assert gspb_upper(3, 2, spec).value == Fraction(10)
    assert gspb_upper(4, 2, spec).value == Fraction(121, 5)
    # ((k+1)^{n+1} - (k-1)^{n+1}) / (2(n+1)) for general k
    spec3 = parse_spec("(1,0,0)")
    for n in (2, 3, 5):
        expect = Fraction(4 ** (n + 1) - 2 ** (n + 1), 2 * (n + 1))
        assert gspb_upper(n, 3, spec3).value == expect


def test_gspb_total_one_closed_form():
    spec = parse_spec("t:1")
    assert gspb_upper(4, 2, spec).value == Fraction(243, 13)
    for n, k in ((4, 2), (5, 3), (6, 4)):
        expect = Fraction((k + 1) ** n) / (Fraction(2 * k * n, k + 1) - 1)
        assert gspb_upper(n, k, parse_spec("t:1")).value == expect


def test_gspb_one_one_closed_form_and_validity():
    spec = parse_spec("(1,1)")
    assert gspb_upper(4, 2, spec).value == Fraction(486)
    assert gspb_upper(5, 2, spec).value == Fraction(3 ** 5 * 6, 4)
    with pytest.raises(ValidityRangeError):
        gspb_upper(3, 2, spec)


def test_gspb_total_two_validity():
    with pytest.raises(ValidityRangeError):
        gspb_upper(20, 2, parse_spec("t:2"))
    result = gspb_upper(48, 2, parse_spec("t:2"))
    assert result.kind == "valid_upper"
    assert result.value > 0


def test_gspb_deletion_value():
    assert gspb_upper(4, 2, parse_spec("d:(1,0)")).value == Fraction(143, 3)


def _gspb_del_double_sum(n, k):
    """The deletion GSPB as one Fraction term per (w, rho)."""
    total = Fraction(0)
    for w in range(n):
        v = count_v(n, w, k)
        for rho in range(1, n):
            cnt = count_runs_weight(n - 1, rho, w)
            if cnt:
                total += Fraction(cnt * v, rho)
    return total


@pytest.mark.parametrize("text", ["d:(1,0)", "d:1"])
def test_gspb_deletion_matches_double_sum(text):
    spec = parse_spec(text)
    for n in list(range(2, 81)) + [150, 240]:
        assert gspb_upper(n, 2, spec).value == _gspb_del_double_sum(n, 2), n
    for k in (1, 3, 4):
        spec = parse_spec(text) if text == "d:1" else _first_row(k)
        for n in range(2, 41):
            assert gspb_upper(n, k, spec).value == _gspb_del_double_sum(n, k), (k, n)


def test_gspb_deletion_matches_output_enumeration():
    # one term 1/runs(y0) per channel output (y0, rows 1..k-1) of the
    # first-row deletion, at any k
    for k, top in ((1, 7), (2, 6), (3, 4), (4, 3)):
        first = _first_row(k)
        for n in range(2, top + 1):
            outputs = set()
            for s in all_sequences(n, k):
                outputs |= enumerate_del_ball(s, k, first)
            brute = sum((Fraction(1, runs(y[0])) for y in outputs), Fraction(0))
            for spec in (first, "d:1"):
                assert gspb_upper(n, k, spec).value == brute, (k, n, spec)


def test_gspb_kind_and_floor():
    r = gspb_upper(4, 2, parse_spec("(1,0)"))
    assert r.kind == "valid_upper"
    assert r.value_floor == 24
    assert str(r) == "121/5"


def test_sphere_packing_closed_form():
    from math import comb

    # 3^n / C(n, min(e0, e1)) per channel, 3^n / C(n, e) for a total budget.
    for n in (2, 4, 6):
        assert sphere_packing_upper(n, 2, parse_spec("(1,0)")).value == Fraction(3 ** n)
        assert sphere_packing_upper(n, 2, parse_spec("(1,1)")).value == Fraction(3 ** n, n)
        assert sphere_packing_upper(n, 2, parse_spec("t:2")).value == Fraction(
            3 ** n, comb(n, 2))
    with pytest.raises(DomainError):
        sphere_packing_upper(1, 2, parse_spec("t:2"))
    with pytest.raises(DomainError, match=r"^budget vector \(1,1,1\) has 3 entries, expected k=2$"):
        sphere_packing_upper(4, 2, parse_spec("(1,1,1)"))


def test_sphere_packing_golden():
    assert sphere_packing_upper(4, 2, parse_spec("(1,1)")).value == Fraction(81, 4)


# (k, largest n, specs) for the brute-force means
AVERAGE_GRID = (
    (2, 5, ("(0,0)", "(1,0)", "(0,1)", "(1,1)", "(2,1)", "(2,2)",
            "t:0", "t:1", "t:2", "t:3", "d:(1,0)", "d:1")),
    (3, 3, ("(0,0,0)", "(1,0,0)", "(1,1,0)", "t:0", "t:2", "t:3")),
    (4, 3, ("(0,0,0,0)", "(1,0,0,0)", "(0,0,1,1)", "t:1", "t:3")),
)


def test_average_ball_matches_direct_average():
    for k, max_n, texts in AVERAGE_GRID:
        for text in texts:
            spec = parse_spec(text)
            for n in range(1, max_n + 1):
                sizes = [len(enumerate_ball(s, k, spec)) for s in all_sequences(n, k)]
                expect = Fraction(sum(sizes), (k + 1) ** n)
                assert average_ball(n, k, spec).value == expect, (k, n, text)
                assert aspv(n, k, spec).value == (k + 1) ** n / expect


def _average_closed_form(n, k, spec):
    """The four substitution averages known in closed form."""
    if spec == PerChannel((1,) + (0,) * (k - 1)):
        return Fraction(2 * n, k + 1) + 1
    if spec == Total(1):
        return Fraction(2 * k * n, k + 1) + 1
    if (k, spec) == (2, PerChannel((1, 1))):
        return Fraction(4 * n * n, 9) + Fraction(14 * n, 9) + 1
    if (k, spec) == (2, Total(2)):
        return Fraction(8 * n * n, 9) + Fraction(10 * n, 9) + 1
    raise AssertionError(f"no closed form for k={k}, spec={spec}")


@pytest.mark.parametrize("k, texts", [
    (2, ("(1,0)", "t:1", "(1,1)", "t:2")),
    (3, ("(1,0,0)", "t:1")),
    (4, ("(1,0,0,0)", "t:1")),
])
def test_average_ball_matches_the_closed_forms(k, texts):
    for text in texts:
        spec = parse_spec(text)
        for n in range(241):
            result = average_ball(n, k, spec)
            assert result.value == _average_closed_form(n, k, spec), (n, text)
            assert (result.kind, result.validity_range) == (AVERAGE, "n >= 0")


def test_average_ball_checks_the_budget_length():
    for k, text in ((3, "(1,0)"), (3, "(1,1)"), (2, "(1,0,0)")):
        with pytest.raises(DomainError, match="budget vector"):
            average_ball(5, k, parse_spec(text))


def test_average_deletion_closed_forms():
    for n in (2, 5, 9):
        assert average_ball(n, 2, parse_spec("d:(1,0)")).value == 1 + Fraction(4 * (n - 1), 9)
        assert average_ball(n, 2, parse_spec("d:1")).value == 2 + Fraction(8 * (n - 1), 9)


def test_aspv_is_space_over_average():
    spec = parse_spec("d:1")
    got = aspv(4, 2, spec)
    assert got.value == Fraction(243, 14)
    assert got.kind == "average_value"


def test_asymptotic_estimates_are_labelled():
    r = asymptotic_upper(20, 2, parse_spec("(1,1)"))
    assert r.kind == "asymptotic_estimate"
    assert r.value > 0
    t = asymptotic_upper(60, 2, parse_spec("t:2"), tighter=True)
    assert t.kind == "asymptotic_estimate"
    with pytest.raises(DomainError):
        asymptotic_upper(20, 2, parse_spec("(1,0)"))
    with pytest.raises(DomainError, match=r"^budget vector \(1,1,0\) has 3 entries, expected k=2$"):
        asymptotic_upper(20, 2, parse_spec("(1,1,0)"))


def test_lower_bound_goldens():
    assert lower_bound(4, 2, parse_spec("(1,0)"), "coset").value == Fraction(81, 8)
    assert lower_bound(3, 2, parse_spec("(1,0)"), "fiber").value == Fraction(9)
    assert lower_bound(4, 4, parse_spec("t:1"), "lee").value == Fraction(25)
    assert lower_bound(4, 2, parse_spec("t:1"), "bch").value == Fraction(3)
    assert lower_bound(4, 2, parse_spec("d:(1,0)"), "vt_del").value == Fraction(81, 5)
    assert lower_bound(4, 2, parse_spec("d:1"), "vt1_del").value == Fraction(9)
    assert lower_bound(7, 2, parse_spec("d:(1,0)"), "tenengolts_del").value == Fraction(9)
    assert lower_bound(9, 2, parse_spec("d:1"), "tenengolts1_del").value == Fraction(3)


def test_lower_bound_kinds_and_errors():
    r = lower_bound(4, 2, parse_spec("(1,0)"), "coset")
    assert r.kind == "valid_lower"
    with pytest.raises(DomainError):
        lower_bound(4, 2, parse_spec("(1,0)"), "bch")
    with pytest.raises(DomainError):
        lower_bound(4, 3, parse_spec("t:1"), "lee")
    with pytest.raises(DomainError):
        lower_bound(4, 2, parse_spec("t:1"), "nonsense")


def test_coset_bound_states_the_entry_count_rule_in_its_one_text():
    with pytest.raises(DomainError) as exc:
        lower_bound(4, 3, PerChannel((1, 0)), "coset")
    assert str(exc.value) == "budget vector (1,0) has 2 entries, expected k=3"


def test_deletion_lower_bounds_honour_their_spec():
    d10, d1 = parse_spec("d:(1,0)"), parse_spec("d:1")
    for method in ("vt_del", "tenengolts_del"):
        assert lower_bound(9, 2, d10, method).kind == "valid_lower"
        for spec in (d1, parse_spec("(1,0)"), parse_spec("(1,1)"), parse_spec("t:1")):
            with pytest.raises(DomainError):
                lower_bound(9, 2, spec, method)
    for method in ("vt1_del", "tenengolts1_del"):
        # a d:1 code corrects d:(1,0) as well
        for spec in (d10, d1):
            assert lower_bound(9, 2, spec, method).kind == "valid_lower"
        for spec in (parse_spec("(1,0)"), parse_spec("t:2")):
            with pytest.raises(DomainError):
                lower_bound(9, 2, spec, method)


def test_lower_bounds_stay_below_gspb():
    spec = parse_spec("(1,0)")
    for n in (3, 4, 5, 6):
        assert lower_bound(n, 2, spec, "fiber").value <= gspb_upper(n, 2, spec).value
        assert lower_bound(n, 2, spec, "coset").value <= gspb_upper(n, 2, spec).value


def test_weight_rule_first_channel_feasible_and_tight():
    # Total weight of the rule equals the closed-form GSPB value exactly.
    spec = parse_spec("(1,0)")
    for n in (2, 3, 4):
        weight = gspb_weight_rule(n, 2, spec)
        report = check_fractional_transversal(
            list(all_sequences(n, 2)),
            lambda s: enumerate_sub_ball(s, 2, spec),
            weight,
        )
        assert report.feasible
        assert report.total_weight == gspb_upper(n, 2, spec).value


def test_weight_rule_deletion_feasible_and_tight():
    for k, lengths in ((2, (3, 4, 5)), (1, (2, 5)), (3, (2, 3)), (4, (2, 3))):
        spec = _first_row(k)
        for n in lengths:
            weight = gspb_weight_rule(n, k, spec)
            outputs = set()
            for s in all_sequences(n, k):
                outputs |= enumerate_del_ball(s, k, spec)
            assert len(outputs) == vertex_set_size(n, k)
            report = check_fractional_transversal(
                list(all_sequences(n, k)),
                lambda s: enumerate_del_ball(s, k, spec),
                weight,
            )
            assert report.feasible
            assert report.total_weight == gspb_upper(n, k, spec).value


def test_weight_rule_total_one_feasible():
    spec = parse_spec("t:1")
    for k in (2, 3):
        weight = gspb_weight_rule(3, k, spec)
        report = check_fractional_transversal(
            list(all_sequences(3, k)),
            lambda s, _k=k: enumerate_sub_ball(s, _k, spec),
            weight,
        )
        assert report.feasible


@pytest.mark.parametrize("k, texts, max_n", [
    (1, ("(1)", "t:2"), 5), (2, ("(1,1)", "(2,1)", "t:2", "t:3"), 4),
    (3, ("(1,1,0)", "(0,1,1)", "t:2"), 3), (4, ("(0,1,1,0)", "t:2"), 2),
])
def test_generic_weight_rule_is_one_over_the_smallest_inbound_ball(k, texts, max_n):
    # the definition, centre by centre: the centres whose balls hold y
    for text in texts:
        spec = parse_spec(text)
        for n in range(max_n + 1):
            space = list(all_sequences(n, k))
            balls = {x: enumerate_sub_ball(x, k, spec) for x in space}
            weight = gspb_weight_rule(n, k, spec)
            for y in space:
                inbound = [x for x in space if y in balls[x]]
                assert weight(y) == Fraction(1, min(len(balls[x]) for x in inbound))
                assert weight(list(y)) == weight(y)


def test_weight_rule_rejects_either_channel_deletion():
    with pytest.raises(DomainError):
        gspb_weight_rule(4, 2, parse_spec("d:1"))


def test_emit_bound_table_table4():
    rows = list(emit_bound_table("table4", range(2, 5)))
    assert rows[0] == ["n", "gspb_del", "aspv_d(1,0)", "aspv_d(1)"]
    assert rows[1] == ["2", "7", "6", "3"]
    assert rows[2] == ["3", "18", "14", "7"]
    assert rows[3] == ["4", "47", "34", "17"]


def test_emit_bound_table_kinds():
    assert TABLE_KINDS == (
        "table1", "table2", "table3", "table4", "summary6", "summary7", "summary8",
    )
    for kind in TABLE_KINDS:
        rows = list(emit_bound_table(kind, range(4, 6)))
        assert len(rows) == 3
        assert rows[0][0] == "n"
    with pytest.raises(DomainError):
        list(emit_bound_table("table9", range(2, 4)))


def test_first_channel_bounds_check_the_budget_length():
    spec = PerChannel((1, 0))
    for call in (lambda: gspb_upper(4, 3, spec),
                 lambda: gspb_weight_rule(4, 3, spec),
                 lambda: lower_bound(4, 3, spec, "fiber")):
        with pytest.raises(DomainError, match="has 2 entries, expected k=3"):
            call()
    assert gspb_upper(4, 3, PerChannel((1, 0, 0))).value == Fraction(496, 5)
    assert lower_bound(4, 3, PerChannel((1, 0, 0)), "fiber").value == 90


@pytest.mark.parametrize("k", [-2, -1, 0])
def test_bounds_reject_a_resolution_below_one(k):
    message = f"^resolution k must be >= 1, got {k}$"
    for call in (lambda: gspb_upper(3, k, Total(1)),
                 lambda: average_ball(3, k, Total(1)),
                 lambda: aspv(3, k, Total(1)),
                 lambda: lower_bound(3, k, Total(1), "bch"),
                 lambda: gspb_weight_rule(3, k, Total(1)),
                 lambda: next(emit_bound_table("table2", range(2, 4), k=k))):
        with pytest.raises(DomainError, match=message):
            call()


def test_bound_registry_lists_every_bound_in_order():
    assert tuple(BOUNDS) == (
        "sphere", "asymptotic", "tighter", "gspb", "average", "aspv",
        "lower:bch", "lower:coset", "lower:fiber", "lower:lee", "lower:vt",
        "lower:vt1", "lower:tenengolts", "lower:tenengolts1")
    for name, what in (("sphere", "sphere packing bound"),
                       ("asymptotic", "asymptotic bound"), ("tighter", "asymptotic bound")):
        with pytest.raises(DomainError, match=f"^{what} is stated for k = 2, got k=3$"):
            BOUNDS[name](8, 3, Total(2))
    assert BOUNDS["tighter"](8, 2, PerChannel((1, 1))) == \
        asymptotic_upper(8, 2, PerChannel((1, 1)), tighter=True)
    assert BOUNDS["lower:vt1"](8, 2, parse_spec("d:(1,0)")) == \
        lower_bound(8, 2, parse_spec("d:(1,0)"), "vt1_del")



def _first_row(k):
    return parse_spec("d:(" + ",".join(["1"] + ["0"] * (k - 1)) + ")")


@pytest.mark.parametrize("k, top", [(1, 8), (2, 6), (3, 5), (4, 4)])
def test_deletion_average_is_the_mean_ball_size(k, top):
    for spec in (_first_row(k), parse_spec("d:1")):
        for n in range(1, top + 1):
            total = sum(len(enumerate_ball(s, k, spec)) for s in all_sequences(n, k))
            got = average_ball(n, k, spec)
            assert got.value == Fraction(total, (k + 1) ** n), (k, n, spec)
            assert (got.kind, got.validity_range) == (AVERAGE, "n >= 1")
            assert aspv(n, k, spec).value == (k + 1) ** n / got.value


#: the deletion GSPB off k = 2 by (k, n), the sum of 1/runs(y0) over the
#: enumerated first-row outputs
DELETION_GSPB = {(1, 4): Fraction(14, 3), (1, 6): Fraction(62, 5), (1, 7): 21,
                 (3, 2): 14, (3, 3): 49, (3, 4): 178, (4, 2): 23, (4, 3): 102}

#: exact optima of the deletion specs off k = 2 (the oracle, under 1 s each)
DELETION_OPTIMA = [
    (1, "d:1", 4, 4), (1, "d:(1)", 6, 10), (1, "d:1", 7, 16),
    (3, "d:(1,0,0)", 3, 34), (3, "d:(1,0,0)", 4, 120), (3, "d:1", 2, 8),
    (3, "d:1", 3, 21), (4, "d:1", 2, 13), (4, "d:1", 3, 46),
    (4, "d:(1,0,0,0)", 3, 74)]


@pytest.mark.parametrize("k, text, n, size", DELETION_OPTIMA)
def test_deletion_bounds_sandwich_the_optimum_at_any_k(k, text, n, size):
    spec = parse_spec(text)
    assert optimal_code_size(n, k, spec).size == size
    first = text != "d:1" or k == 1
    listed = {}
    for name, bound in BOUNDS.items():
        try:
            listed[name] = bound(n, k, spec)
        except DomainError:
            pass
    assert set(listed) == {"gspb", "average", "aspv", "lower:vt1"} | (
        {"lower:vt"} if first else set())
    assert listed["lower:vt1"].value == Fraction((k + 1) ** n, k * n + 1) <= size
    if first:
        assert listed["lower:vt"].value == Fraction((k + 1) ** n, n + 1) <= size
    assert listed["gspb"].value == DELETION_GSPB[k, n] >= size
    for method in ("tenengolts1_del",) + (("tenengolts_del",) if first else ()):
        with pytest.raises(DomainError, match=f"^{method} bound is stated for k = 2, got k={k}$"):
            lower_bound(n, k, spec, method)


@pytest.mark.parametrize("k", [1, 3, 4])
def test_the_k_two_formulas_share_one_rule(k):
    for what, call in (
            ("sphere packing bound", lambda: sphere_packing_upper(8, k, Total(2))),
            ("asymptotic bound", lambda: asymptotic_upper(8, k, Total(2))),
            ("(1,1) GSPB", lambda: gspb_upper(8, k, PerChannel((1, 1)))),
            ("total-2 GSPB", lambda: gspb_upper(60, k, Total(2))),
            ("tenengolts_del bound",
             lambda: lower_bound(8, k, _first_row(k), "tenengolts_del")),
            ("tenengolts1_del bound",
             lambda: lower_bound(8, k, parse_spec("d:1"), "tenengolts1_del"))):
        with pytest.raises(DomainError) as got:
            call()
        assert str(got.value) == f"{what} is stated for k = 2, got k={k}"


@pytest.mark.parametrize("k, n", [(1, 5), (2, 1), (3, 1), (3, 3), (4, 2)])
def test_first_row_weight_rule_at_any_k(k, n):
    spec = _first_row(k)
    report = check_fractional_transversal(
        list(all_sequences(n, k)), lambda s: enumerate_del_ball(s, k, spec),
        gspb_weight_rule(n, k, spec))
    assert report.feasible and report.min_cover >= 1
