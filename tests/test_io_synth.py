import json

import pytest

import dtwmean.synth as synth
from dtwmean import (
    CapacityError,
    Dataset,
    DomainError,
    PointSequence,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from dtwmean.cli import main

from conftest import seq


class TestJson:
    def test_round_trip(self, tmp_path):
        T = Dataset([PointSequence([[0.0, 1.0], [2.0, 3.0]]), PointSequence([[4.0, 5.0]])])
        path = tmp_path / "d.json"
        save_dataset(T, path)
        back = load_dataset(path)
        assert back.n == 2 and back.m == 2 and back.dimension == 2
        assert all(a == b for a, b in zip(T.sequences, back.sequences))

    def test_dimension_field_checked(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"dimension": 2, "sequences": [[[0.0]]]}))
        with pytest.raises(DomainError, match="expected 2 coordinates"):
            load_dataset(path)

    @pytest.mark.parametrize("dim", ["2", 0, True, 2.0, None])
    def test_dimension_must_be_a_positive_int(self, capsys, tmp_path, dim):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"dimension": dim, "sequences": [[[0.0, 1.0]], [[1.0, 2.0]]]}))
        assert main(["dtw", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: dataset field 'dimension' must be an int >= 1, got {dim!r}\n"
        )

    def test_a_valid_dimension_loads(self, capsys, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"dimension": 2, "sequences": [[[0.0, 1.0]], [[1.0, 2.0]]]}))
        assert load_dataset(path).dimension == 2
        assert main(["dtw", "--input", str(path)]) == 0
        assert capsys.readouterr().err == ""

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("")
        with pytest.raises(DomainError, match="empty"):
            load_dataset(path)

    def test_empty_sequence(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"dimension": 1, "sequences": [[]]}))
        with pytest.raises(DomainError, match="sequence 0"):
            load_dataset(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{nope")
        with pytest.raises(DomainError, match="invalid JSON"):
            load_dataset(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"sequences": [[[0.0], [1.0, 2.0]]]}))
        with pytest.raises(DomainError):
            load_dataset(path)

    def test_no_sequences(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"sequences": []}))
        with pytest.raises(DomainError, match="at least one sequence"):
            load_dataset(path)

    def test_vertex_must_be_a_list(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"sequences": [[1.0]]}))
        with pytest.raises(DomainError, match="sequence 0, vertex 0: expected a coordinate list"):
            load_dataset(path)

    def test_run_list_is_not_a_dataset(self, capsys, tmp_path):
        path = tmp_path / "runs.json"
        path.write_text(json.dumps({"runs": [{"algo": "sample"}]}))
        with pytest.raises(DomainError, match="holds a run list, not a dataset"):
            load_dataset(path)
        assert main(["dtw", "--input", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"validation error: {path}: holds a run list, not a dataset\n"
        )


class TestCsv:
    def test_round_trip(self, tmp_path):
        T = Dataset([seq(0, 1, 2), seq(5.5, 6.25)])
        path = tmp_path / "d.csv"
        save_dataset(T, path)
        back = load_dataset(path)
        assert all(a == b for a, b in zip(T.sequences, back.sequences))

    def test_wrong_arity_row_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("seq_id,t,x1\n0,0,1.0\n0,1\n")
        with pytest.raises(DomainError, match="row 3"):
            load_dataset(path)

    def test_rows_sorted_by_t_within_sequence(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("seq_id,t,x1\na,1,2.0\na,0,1.0\n")
        back = load_dataset(path)
        assert back.sequences[0].vertices.ravel().tolist() == [1.0, 2.0]

    def test_missing_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("0,0,1.0\n")
        with pytest.raises(DomainError, match="header"):
            load_dataset(path)

    def test_format_inference_failure(self, tmp_path):
        path = tmp_path / "d.dat"
        path.write_text("x")
        with pytest.raises(DomainError, match="format"):
            load_dataset(path)

    def test_explicit_format_overrides_the_suffix(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("seq_id,t,x1\n0,0,1.5\n0,1,2.5\n")
        back = load_dataset(path, "csv")
        assert back.sequences[0].vertices.ravel().tolist() == [1.5, 2.5]

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"sequences": [[[0.0]]]}))
        with pytest.raises(DomainError, match="unknown dataset format 'xml'"):
            load_dataset(path, "xml")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DomainError, match="d.csv: empty file"):
            load_dataset(path)

    def test_blank_row_is_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("seq_id,t,x1\n0,0,1.0\n\n0,1,2.0\n")
        back = load_dataset(path)
        assert back.n == 1 and back.sequences[0].vertices.ravel().tolist() == [1.0, 2.0]

    def test_non_numeric_cell_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("seq_id,t,x1\n0,0,1.0\n0,1,oops\n")
        with pytest.raises(DomainError, match="row 3: could not convert string to float: 'oops'"):
            load_dataset(path)

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_t_names_row(self, tmp_path, t):
        path = tmp_path / "d.csv"
        path.write_text(f"seq_id,t,x1\n0,{t},1\n0,0,2\n0,1,3\n")
        with pytest.raises(DomainError, match=f"row 2: t must be finite, got '{t}'"):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("seq_id,t,x1\n")
        with pytest.raises(DomainError, match="d.csv: no vertex rows"):
            load_dataset(path)


class TestSynthetic:
    def test_zero_noise_native_length_copies(self):
        base = seq(0, 1, 2)
        T = generate_synthetic(base, 5, 0.0, (3, 3), seed=0)
        assert all(s == base for s in T.sequences)

    def test_seed_reproducible(self):
        base = seq(0, 1, 2)
        a = generate_synthetic(base, 6, 0.2, (2, 4), seed=9)
        b = generate_synthetic(base, 6, 0.2, (2, 4), seed=9)
        assert all(x == y for x, y in zip(a.sequences, b.sequences))

    def test_lengths_within_range(self):
        base = seq(0, 1, 2, 3)
        T = generate_synthetic(base, 30, 0.1, (2, 4), seed=4)
        assert all(2 <= s.complexity <= 4 for s in T.sequences)

    def test_resampling_is_monotone(self):
        base = seq(0, 10, 20, 30)
        T = generate_synthetic(base, 20, 0.0, (2, 6), seed=5)
        for s in T.sequences:
            vals = s.vertices.ravel()
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_negative_seed_is_a_domain_error(self):
        with pytest.raises(DomainError, match="seed must be >= 0, got -1"):
            generate_synthetic(seq(0, 1), 3, 0.1, (2, 2), seed=-1)

    def test_invalid_range(self):
        with pytest.raises(DomainError):
            generate_synthetic(seq(0, 1), 3, 0.1, (0, 2), seed=0)
        with pytest.raises(DomainError):
            generate_synthetic(seq(0, 1), 3, 0.1, (3, 2), seed=0)

    @pytest.mark.parametrize("n,lengths", [(200_000_000, (3, 3)), (1000, (1_000_000, 1_000_000))])
    def test_an_oversized_dataset_is_refused_before_drawing(self, monkeypatch, n, lengths):
        monkeypatch.setattr(synth, "seeded_rng", lambda seed: pytest.fail("drew a sample"))
        want = f"{n} x {lengths[1]} x 1 generated coordinates exceed the guard of 16000000 elements"
        with pytest.raises(CapacityError, match=want):
            generate_synthetic(seq(0, 1, 2), n, 0.1, lengths, seed=0)

    def test_the_guard_counts_sequences_longest_length_and_dimension(self, monkeypatch):
        monkeypatch.setattr(synth, "DISTANCE_GUARD", 24)
        base = seq((0, 0), (1, 1), (2, 2))
        assert generate_synthetic(base, 4, 0.1, (2, 3), seed=0).n == 4  # 4 x 3 x 2 = 24
        with pytest.raises(CapacityError, match="5 x 3 x 2 generated coordinates"):
            generate_synthetic(base, 5, 0.1, (2, 3), seed=0)
