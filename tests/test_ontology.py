import json

import pytest

from dao.errors import DuplicateType, FormatError, UnknownEventType
from dao.ontology import EventDefinition, load_ontology


def test_load_ontology_fixture_record_count(ontology_path, ontology):
    # Line-count oracle: every non-empty line becomes one definition.
    with open(ontology_path, encoding="utf-8") as fh:
        expected = sum(1 for line in fh if line.strip())
    assert expected == 33
    assert len(ontology) == expected


def test_lookup_life_die_roles(ontology):
    definition = ontology.lookup("Life:Die")
    assert definition.roles == ("Agent", "Victim", "Instrument", "Place")


def test_lookup_divorce_definition_text(ontology):
    definition = ontology.lookup("Life:Divorce")
    assert "officially divorced under the legal definition" in definition.definition_text


def test_empty_file_gives_empty_ontology(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    ontology = load_ontology(path)
    assert len(ontology) == 0
    with pytest.raises(UnknownEventType):
        ontology.lookup("Life:Die")


def test_duplicate_type_rejected(tmp_path):
    record = {"type": "Life:Die", "definition": "x", "roles": ["Victim"]}
    path = tmp_path / "dup.jsonl"
    path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(DuplicateType):
        load_ontology(path)


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


def test_unknown_lookup_raises(ontology):
    with pytest.raises(UnknownEventType):
        ontology.lookup("Nonsense:Type")


def test_round_trip_preserves_every_field(ontology_path, ontology):
    with open(ontology_path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            definition = ontology.lookup(record["type"])
            assert definition == EventDefinition(
                type_id=record["type"],
                definition_text=record["definition"],
                typical_triggers=tuple(record.get("typical_triggers", ())),
                roles=tuple(record.get("roles", ())),
            )


def test_repeated_lookup_identical(ontology):
    assert ontology.lookup("Conflict:Attack") == ontology.lookup("Conflict:Attack")


def test_duplicate_roles_rejected():
    with pytest.raises(ValueError):
        EventDefinition(type_id="A:B", definition_text="x", roles=("R", "R"))
