"""The plain-Python scorecard checker against the published JSON Schema.

``report.validate_scorecard`` must accept and reject exactly the cards
that a JSON Schema validator accepts and rejects under
``schema/scorecard.schema.json``. Valid cards of all four commands are
drawn, mutated (keys dropped, added or misspelled; values replaced by
wrong types, bools, non-finite floats, misspelled "n/a", nested
containers) and judged by both.
"""

from __future__ import annotations

import copy
import json

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wxverify.cli import main
from wxverify.errors import WxVerifyError
from wxverify.report import new_scorecard, scorecard_schema, validate_scorecard

SCHEMA_VALIDATOR = jsonschema.Draft7Validator(scorecard_schema())


def schema_accepts(card) -> bool:
    return SCHEMA_VALIDATOR.is_valid(card)


def checker_accepts(card) -> bool:
    try:
        validate_scorecard(card)
    except WxVerifyError:
        return False
    return True


# --- valid cards -----------------------------------------------------------

names = st.text(alphabet="abmxz_019", min_size=1, max_size=5)
counts = st.one_of(st.integers(0, 10**6), st.integers(0, 99).map(float),
                   st.just(10**40))
scores = st.one_of(st.floats(), st.integers(-10**6, 10**6), st.just("n/a"))
digests = st.text(alphabet="0123456789abcdef", min_size=0, max_size=8)


def rows(**fields):
    return st.lists(st.fixed_dictionaries(fields), max_size=4)


GRID_METRICS = rows(model=names, variable=names, lead_hours=counts,
                    metric=st.sampled_from(["wrmse", "acc", "bias",
                                            "activity"]),
                    value=scores, n_samples=counts)
SPECTRA = rows(model=names, variable=names, lead_hours=counts, csv=names)
EVENT_SCORES = rows(model=names,
                    kind=st.sampled_from(["heatwave", "coldsurge"]),
                    lead_days=st.one_of(st.integers(1, 10), st.just(3.0)),
                    region=names, pod=scores, far=scores, csi=scores,
                    tp=counts, fp=counts, fn=counts)
CYCLONE_SCORES = rows(model=names, lead_hours=counts, n_storms=counts,
                      dpe_km=scores, mslp_mae_hpa=scores,
                      mslp_bias_hpa=scores, wind_mae_ms=scores,
                      wind_bias_ms=scores)
STATION_SCORES = rows(model=names, variable=names, lead_hours=counts,
                      rmse=scores, bias=scores, acc=scores, n_pairs=counts)
QC_REPORT = st.dictionaries(names, st.fixed_dictionaries(dict(
    raw=counts, replaced=counts, absent=counts,
    nonpositive_reference=counts)), max_size=3)


@st.composite
def valid_cards(draw):
    command = draw(st.sampled_from(["evaluate", "extremes", "cyclones",
                                    "stations"]))
    sha = draw(digests)
    if command == "evaluate":
        card = new_scorecard(command, sha)
        card["grid_metrics"] = draw(GRID_METRICS)
        if draw(st.booleans()):
            card["spectra"] = draw(SPECTRA)
    elif command == "extremes":
        card = new_scorecard(command, sha,
                             thresholds_sha256=draw(st.none() | digests),
                             gamma=draw(st.floats(0.01, 1.0)))
        card["event_scores"] = draw(EVENT_SCORES)
    elif command == "cyclones":
        card = new_scorecard(command, sha, besttrack_sha256=draw(digests))
        card["cyclone_scores"] = draw(CYCLONE_SCORES)
    else:
        card = new_scorecard(command, sha)
        card["station_scores"] = draw(STATION_SCORES)
        card["qc_report"] = draw(QC_REPORT)
    return card


# --- mutations -------------------------------------------------------------

KEYS = sorted({"schema", "command", "provenance", "engine_version",
               "manifest_sha256", "thresholds_sha256", "besttrack_sha256",
               "gamma", "grid_metrics", "spectra", "event_scores",
               "cyclone_scores", "station_scores", "qc_report", "model",
               "variable", "lead_hours", "lead_days", "metric", "value",
               "n_samples", "csv", "kind", "region", "pod", "far", "csi",
               "tp", "fp", "fn", "n_storms", "dpe_km", "rmse", "bias", "acc",
               "n_pairs", "raw", "replaced", "absent",
               "nonpositive_reference"})
MISSPELT = ["lead_hour", "Model", "value ", "n_sample", "n/a", "", "extra",
            "qc-report", "grid_metric"]
TRICKY = [True, False, None, 0, 1, -1, 1.0, -0.0, 0.5, 2.5, -2.5, 10**40,
          -10**40, float("nan"), float("inf"), float("-inf"), "n/a", "N/A",
          "na", "", "x", "heatwave", "wrmse", "evaluate",
          "wxverify-scorecard/v1", [], {}, [1], {"raw": 1}]
values = st.one_of(st.sampled_from(TRICKY), st.floats(),
                   st.integers(-3, 3), st.text(max_size=3),
                   st.lists(st.integers(), max_size=2),
                   st.dictionaries(st.sampled_from(KEYS), st.integers(0, 2),
                                   max_size=2))


def containers(node):
    """Every dict and list of a card, the card included."""
    yield node
    children = node.values() if isinstance(node, dict) else node
    for child in children:
        if isinstance(child, (dict, list)):
            yield from containers(child)


def leaves(node):
    """Every (container, key) of a card that holds a scalar."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if isinstance(child, (dict, list)):
            yield from leaves(child)
        else:
            yield node, key


def mutate(draw, card):
    scalars = list(leaves(card))
    if scalars and draw(st.booleans()):
        # one scalar anywhere becomes a value at a type or enum boundary
        node, key = draw(st.sampled_from(scalars))
        node[key] = copy.deepcopy(draw(st.sampled_from(TRICKY)))
        return
    node = draw(st.sampled_from(list(containers(card))))
    if isinstance(node, dict):
        op = draw(st.sampled_from(["set", "drop", "add", "rename"]
                                  if node else ["add"]))
        if op == "add":
            node[draw(st.sampled_from(KEYS + MISSPELT))] = \
                copy.deepcopy(draw(values))
            return
        key = draw(st.sampled_from(sorted(node)))
        if op == "set":
            node[key] = copy.deepcopy(draw(values))
        elif op == "drop":
            del node[key]
        else:
            node[draw(st.sampled_from(KEYS + MISSPELT))] = node.pop(key)
    else:
        op = draw(st.sampled_from(["set", "drop", "append"]
                                  if node else ["append"]))
        if op == "append":
            node.append(copy.deepcopy(draw(values | st.sampled_from(
                [row for row in node if isinstance(row, dict)] or [{}]))))
            return
        index = draw(st.integers(0, len(node) - 1))
        if op == "set":
            node[index] = copy.deepcopy(draw(values))
        else:
            del node[index]


@st.composite
def mutated_cards(draw):
    card = draw(valid_cards())
    for _ in range(draw(st.integers(0, 3))):
        mutate(draw, card)
    return card


def one_row_cards():
    """A valid card of each command with one row in every section."""
    evaluate = new_scorecard("evaluate", "ab")
    evaluate["grid_metrics"] = [{"model": "m", "variable": "t2m",
                                 "lead_hours": 6, "metric": "acc",
                                 "value": 0.5, "n_samples": 2}]
    evaluate["spectra"] = [{"model": "m", "variable": "t2m", "lead_hours": 6,
                            "csv": "spectra/m.csv"}]
    extremes = new_scorecard("extremes", "ab", thresholds_sha256="cd",
                             gamma=0.5)
    extremes["event_scores"] = [{"model": "m", "kind": "heatwave",
                                 "lead_days": 1, "region": "global",
                                 "pod": 1.0, "far": "n/a", "csi": 0.25,
                                 "tp": 1, "fp": 0, "fn": 3}]
    cyclones = new_scorecard("cyclones", "ab", besttrack_sha256="cd")
    cyclones["cyclone_scores"] = [{"model": "m", "lead_hours": 24,
                                   "n_storms": 1, "dpe_km": 30.5,
                                   "mslp_mae_hpa": 1.0, "mslp_bias_hpa": -1.0,
                                   "wind_mae_ms": "n/a", "wind_bias_ms": 2}]
    stations = new_scorecard("stations", "ab")
    stations["station_scores"] = [{"model": "m", "variable": "t2m",
                                   "lead_hours": 0, "rmse": 1.5, "bias": 0.0,
                                   "acc": "n/a", "n_pairs": 7}]
    stations["qc_report"] = {"t2m": {"raw": 9, "replaced": 1, "absent": 0,
                                     "nonpositive_reference": 0}}
    return [evaluate, extremes, cyclones, stations]


class TestDifferential:
    def test_every_scalar_at_every_boundary_value(self):
        judged = 0
        for card in one_row_cards():
            assert schema_accepts(card) and checker_accepts(card)
            for index in range(len(list(leaves(card)))):
                for value in TRICKY:
                    mutant = copy.deepcopy(card)
                    node, key = list(leaves(mutant))[index]
                    node[key] = copy.deepcopy(value)
                    assert checker_accepts(mutant) == schema_accepts(mutant), \
                        (key, value, mutant)
                    judged += 1
        assert judged > 1000

    def test_every_key_dropped_and_every_key_added(self):
        for card in one_row_cards():
            for index, node in enumerate(containers(card)):
                if not isinstance(node, dict):
                    continue
                edits = [(key, None) for key in node]
                edits += [(None, key) for key in KEYS + MISSPELT]
                for dropped, added in edits:
                    mutant = copy.deepcopy(card)
                    target = list(containers(mutant))[index]
                    if dropped is not None:
                        del target[dropped]
                    else:
                        target[added] = copy.deepcopy(target.get(added, 1))
                    assert checker_accepts(mutant) == schema_accepts(mutant), \
                        (dropped, added, mutant)

    @settings(max_examples=500, deadline=None)
    @given(card=mutated_cards())
    def test_checker_agrees_with_json_schema(self, card):
        assert checker_accepts(card) == schema_accepts(card)

    @settings(max_examples=100, deadline=None)
    @given(card=valid_cards())
    def test_valid_cards_are_accepted(self, card):
        assert schema_accepts(card)
        validate_scorecard(card)


def grid_card(**overrides):
    row = {"model": "m", "variable": "t2m", "lead_hours": 6,
           "metric": "wrmse", "value": 1.25, "n_samples": 3}
    row.update(overrides)
    card = new_scorecard("evaluate", "0" * 64)
    card["grid_metrics"] = [row]
    return card


def with_provenance(**fields):
    card = grid_card()
    card["provenance"].update(fields)
    return card


def without(key):
    card = grid_card()
    del card["grid_metrics"][0][key]
    return card


def renamed(old, new):
    card = grid_card()
    row = card["grid_metrics"][0]
    row[new] = row.pop(old)
    return card


REJECTED = {
    "bool-number": grid_card(value=True),
    "bool-integer": grid_card(n_samples=False),
    "N/A": grid_card(value="N/A"),
    "fractional-lead": grid_card(lead_hours=2.5),
    "negative-lead": grid_card(lead_hours=-6),
    "gamma-true": with_provenance(gamma=True),
    "unknown-key": grid_card(surprise=1),
    "missing-key": without("n_samples"),
    "misspelled-key": renamed("lead_hours", "lead_hour"),
    "unknown-metric": grid_card(metric="mae"),
    "unknown-provenance": with_provenance(host="x"),
}
ACCEPTED = {
    "integral-float": grid_card(n_samples=1.0),
    "negative-zero": grid_card(lead_hours=-0.0),
    "huge-integer": grid_card(n_samples=10**40),
    "nan": grid_card(value=float("nan")),
    "inf": grid_card(value=float("inf")),
    "-inf": grid_card(value=float("-inf")),
    "gamma-null": with_provenance(gamma=None),
}


class TestProbedCases:
    @pytest.mark.parametrize("card", REJECTED.values(), ids=REJECTED)
    def test_rejected(self, card):
        assert not schema_accepts(card)
        with pytest.raises(WxVerifyError, match="scorecard violates schema"):
            validate_scorecard(card)

    @pytest.mark.parametrize("card", ACCEPTED.values(), ids=ACCEPTED)
    def test_accepted(self, card):
        assert schema_accepts(card)
        validate_scorecard(card)

    def test_message_names_the_offending_value(self):
        with pytest.raises(WxVerifyError) as raised:
            validate_scorecard(grid_card(value="N/A"))
        assert str(raised.value) == ("scorecard violates schema: "
                                     "grid_metrics[0].value: 'N/A' is not "
                                     'a number or "n/a"')

    def test_report_on_malformed_scorecard_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "scorecard.json"
        path.write_text(json.dumps(grid_card(value="N/A")))
        assert main(["report", "--scorecard", str(path),
                     "--out", str(tmp_path / "csv")]) == 2
        assert "scorecard violates schema" in capsys.readouterr().err
        assert not (tmp_path / "csv").exists()
