import json

import pytest

from dao.corpus import EventDefinition, load_ontology
from dao.errors import FormatError


def test_load_ontology_fixture_record_count(ontology_path, ontology):
    # Line-count oracle: every non-empty line becomes one definition.
    with open(ontology_path, encoding="utf-8") as fh:
        expected = sum(1 for line in fh if line.strip())
    assert expected == 33
    assert len(ontology) == expected


def test_lookup_life_die_roles(ontology):
    definition = ontology["Life:Die"]
    assert definition.roles == ("Agent", "Victim", "Instrument", "Place")


def test_lookup_divorce_definition_text(ontology):
    definition = ontology["Life:Divorce"]
    assert "officially divorced under the legal definition" in definition.definition_text


def test_empty_file_gives_empty_ontology(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    ontology = load_ontology(path)
    assert len(ontology) == 0
    assert "Life:Die" not in ontology


def test_duplicate_type_rejected(tmp_path):
    record = {"type": "Life:Die", "definition": "x", "roles": ["Victim"]}
    path = tmp_path / "dup.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as raised:
        load_ontology(path)
    assert raised.value.line_no == 2
    assert str(raised.value) == f"{path}: line 2: duplicate event type 'Life:Die'"


def test_malformed_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "A:B", "definition": "x"}\nnot json\n', encoding="utf-8")
    with pytest.raises(FormatError) as excinfo:
        load_ontology(path)
    assert excinfo.value.line_no == 2


def test_missing_definition_is_format_error(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"type": "A:B"}\n', encoding="utf-8")
    with pytest.raises(FormatError):
        load_ontology(path)


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        load_ontology(tmp_path / "nope.jsonl")


def test_types_in_file_order(ontology_path, ontology):
    with open(ontology_path, encoding="utf-8") as fh:
        types = [json.loads(line)["type"] for line in fh if line.strip()]
    assert list(ontology) == types


@pytest.mark.parametrize(
    "change, message",
    [
        ({"type": 5}, "type must be a string, got 5"),
        ({"definition": ["x"]}, "definition must be a string, got ['x']"),
        ({"roles": "Place"}, "roles must be an array of strings, got 'Place'"),
        ({"roles": ["Place", 1]}, "roles must be an array of strings, got ['Place', 1]"),
        ({"typical_triggers": "die"}, "typical_triggers must be an array of strings, got 'die'"),
        ({"typical_triggers": [None]}, "typical_triggers must be an array of strings, got [None]"),
        ({"type": ""}, "event type id must be non-empty"),
        ({"definition": ""}, "Life:Die: definition text must be non-empty"),
    ],
)
def test_row_of_the_wrong_type_is_format_error(tmp_path, change, message):
    record = {"type": "Life:Die", "definition": "x", "typical_triggers": ["die"], "roles": ["Victim"]}
    path = tmp_path / "typed.jsonl"
    rows = [{"type": "A:B", "definition": "y"}, {**record, **change}]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    with pytest.raises(FormatError) as raised:
        load_ontology(path)
    assert str(raised.value) == f"{path}: line 2: {message}"


def test_round_trip_preserves_every_field(ontology_path, ontology):
    with open(ontology_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            definition = ontology[record["type"]]
            assert definition == EventDefinition(
                type_id=record["type"],
                definition_text=record["definition"],
                typical_triggers=tuple(record.get("typical_triggers", ())),
                roles=tuple(record.get("roles", ())),
            )


def test_repeated_lookup_identical(ontology):
    assert ontology["Conflict:Attack"] == ontology["Conflict:Attack"]


def test_duplicate_roles_rejected():
    with pytest.raises(ValueError):
        EventDefinition(type_id="A:B", definition_text="x", roles=("R", "R"))
