import hashlib
from pathlib import Path

import gen

SCHEMAS = Path(__file__).resolve().parents[2] / "data" / "schemas"


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(writer, tmp_path, name, seed):
    path = tmp_path / f"{name}-{seed}.csv"
    writer(path, seed, n=800)
    return path


def test_schema_shaped_generators_are_byte_identical_per_seed(tmp_path):
    for writer in (gen.write_adult, gen.write_taiwan):
        first = _write(writer, tmp_path, "a", 3)
        second = _write(writer, tmp_path, "b", 3)
        other = _write(writer, tmp_path, "c", 4)
        assert first.read_bytes() == second.read_bytes()
        assert _digest(first) != _digest(other)


def test_validation_suite_is_byte_identical_per_seed(tmp_path):
    digests = {}
    for label, seed in (("a", 5), ("b", 5), ("c", 6)):
        directory = tmp_path / label
        directory.mkdir()
        gen.write_validation_suite(directory, seed)
        digests[label] = _digest(directory / "synth.csv")
    assert digests["a"] == digests["b"]
    assert digests["a"] != digests["c"]


def test_adult_file_loads_under_the_shipped_schema(tmp_path):
    from fairdep import Schema, load_dataset

    path = tmp_path / "adult.csv"
    truth = gen.write_adult(path, 1, n=2000)
    schema = Schema.from_json(SCHEMAS / "adult.json")
    dataset = load_dataset(path, schema)
    assert dataset.dropped_rows == truth["missing_rows"] > 0
    assert dataset.n + dataset.dropped_rows == 2000
    occupation = schema.names.index("occupation")
    assert set(dataset.features[occupation]) <= set(schema.columns[occupation].categories)


def test_taiwan_file_loads_under_the_shipped_schema(tmp_path):
    from fairdep import Schema, load_dataset

    path = tmp_path / "taiwan.csv"
    gen.write_taiwan(path, 1, n=2000)
    dataset = load_dataset(path, Schema.from_json(SCHEMAS / "taiwan_credit.json"))
    assert dataset.n == 2000 and dataset.dropped_rows == 0

