import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp

from oracles import jacobi_eigh, minmax_inverse
from test_cli import write_csv
from qsarq.cli import main as cli_main
from qsarq.preprocess import (
    apply_lipinski_filter,
    feature_matrix,
    label_from_activity,
    minmax_fit,
    minmax_transform,
    pca_fit,
    pca_transform,
    pec50,
    read_descriptor_csv,
    resolve_labels,
    write_feature_csv,
)


def make_row(**overrides):
    base = dict(n_donors=2, n_acceptors=5, mol_weight=300.0, logp=3.0)
    base.update(overrides)
    return base


def make_table(*rows):
    """The descriptor table read from a CSV of `rows`, dicts of column values;
    a row without a compound_id gets c1, c2, ... by its position."""
    rows = [{"compound_id": f"c{i}", **row} for i, row in enumerate(rows, 1)]
    names = list(dict.fromkeys(name for row in rows for name in row))
    lines = [",".join(names)]
    lines += [",".join(str(row.get(name, "")) for name in names) for row in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return read_descriptor_csv(path)


def lipinski_pass(row) -> bool:
    return len(apply_lipinski_filter(make_table(row))) == 1


class TestPec50:
    def test_one_nanomolar(self):
        assert pec50(1.0) == 9.0

    def test_thousand_nanomolar(self):
        assert pec50(1000.0) == 6.0

    def test_fifty_nanomolar_against_high_precision_log(self):
        mp.dps = 50
        oracle = float(9 - mp.log10(50))
        assert abs(pec50(50.0) - oracle) <= 1e-9
        assert abs(pec50(50.0) - 7.3010299957) <= 1e-9

    def test_rejects_nonpositive_and_nonfinite(self):
        for bad in (0.0, -2.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                pec50(bad)

    @given(st.floats(min_value=1e-6, max_value=1e9),
           st.floats(min_value=1.000001, max_value=10.0))
    def test_strictly_decreasing(self, ec50, factor):
        assert pec50(ec50 * factor) < pec50(ec50)


class TestLipinski:
    def test_all_four_criteria(self):
        assert lipinski_pass(make_row()) is True

    def test_three_of_four_still_passes(self):
        assert lipinski_pass(make_row(mol_weight=600.0)) is True

    def test_two_of_four_fails(self):
        assert lipinski_pass(make_row(mol_weight=600.0, n_donors=7)) is False

    def test_missing_field_is_an_error(self):
        with pytest.raises(ValueError):
            lipinski_pass(dict(compound_id="x", n_donors=1))

    @given(st.floats(100, 900), st.integers(0, 12), st.integers(0, 20),
           st.floats(-2, 9))
    def test_fixing_one_criterion_never_hurts(self, w, nd, na, logp):
        row = make_row(mol_weight=w, n_donors=nd, n_acceptors=na, logp=logp)
        before = lipinski_pass(row)
        for fix in (
            make_row(mol_weight=min(w, 500.0), n_donors=nd, n_acceptors=na, logp=logp),
            make_row(mol_weight=w, n_donors=min(nd, 5), n_acceptors=na, logp=logp),
            make_row(mol_weight=w, n_donors=nd, n_acceptors=min(na, 10), logp=logp),
            make_row(mol_weight=w, n_donors=nd, n_acceptors=na, logp=min(logp, 5.0)),
        ):
            if before:
                assert lipinski_pass(fix)


class TestMinMax:
    def test_simple_column(self):
        X = np.array([[1.0], [2.0], [3.0]])
        scaled = minmax_transform(minmax_fit(X), X)
        assert np.array_equal(scaled.ravel(), [0.0, 0.5, 1.0])

    def test_constant_column_warns_and_maps_to_zero(self):
        with pytest.warns(UserWarning):
            X = np.array([[4.0], [4.0], [4.0]])
            scaled = minmax_transform(minmax_fit(X), X)
        assert np.array_equal(scaled.ravel(), [0.0, 0.0, 0.0])

    def test_unseen_data_is_clamped(self):
        model = minmax_fit(np.array([[1.0], [3.0]]))
        assert minmax_transform(model, np.array([[5.0]]))[0, 0] == 1.0
        assert minmax_transform(model, np.array([[-2.0]]))[0, 0] == 0.0

    def test_fitted_extremes_map_to_unit_interval_exactly(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 4)) * 10
        scaled = minmax_transform(minmax_fit(X), X)
        assert np.all(scaled.min(axis=0) == 0.0)
        assert np.all(scaled.max(axis=0) == 1.0)

    def test_round_trip_inverse(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(-50, 50, size=(30, 3))
        model = minmax_fit(X)
        scaled = minmax_transform(model, X)
        back = minmax_inverse(model, scaled)
        assert np.max(np.abs(back - X)) <= 1e-12


class TestPca:
    def test_rank_one_data(self):
        t = np.linspace(-2, 2, 9)
        X = np.column_stack([t, t])  # points on the line y = x
        variances = np.var(pca_transform(pca_fit(X, 2), X), axis=0, ddof=1)
        total = np.var(X[:, 0], ddof=1) + np.var(X[:, 1], ddof=1)
        assert abs(variances[0] - total) <= 1e-10
        assert abs(variances[1]) <= 1e-10

    def test_full_dimension_preserves_distances(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((12, 4))
        reduced = pca_transform(pca_fit(X, 4), X)
        for i in range(6):
            for j in range(6):
                d0 = np.linalg.norm(X[i] - X[j])
                d1 = np.linalg.norm(reduced[i] - reduced[j])
                assert abs(d0 - d1) <= 1e-8

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(27)
        X = rng.standard_normal((10, 4))
        model = pca_fit(X, 2)
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (X.shape[0] - 1)
        eigvals, eigvecs = jacobi_eigh(cov)
        variances = np.var(pca_transform(model, X), axis=0, ddof=1)
        for row in range(2):
            vec = eigvecs[:, row]
            if vec[np.argmax(np.abs(vec))] < 0:
                vec = -vec
            assert np.max(np.abs(model.components[row] - vec)) <= 1e-8
            assert abs(variances[row] - eigvals[row]) <= 1e-8
        oracle_proj = centered @ np.column_stack(
            [eigvecs[:, r] * (1 if eigvecs[:, r][np.argmax(np.abs(eigvecs[:, r]))] > 0 else -1)
             for r in range(2)]
        )
        assert np.max(np.abs(pca_transform(model, X) - oracle_proj)) <= 1e-8

    def test_jacobi_oracle_resolves_a_badly_scaled_covariance(self, tmp_path):
        # the raw descriptors of the cli tests: eigenvalues from about 1 to 1.45e4
        X, _ = feature_matrix(read_descriptor_csv(write_csv(tmp_path / "data.csv")))
        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (X.shape[0] - 1)
        eigvals, eigvecs = jacobi_eigh(cov)
        assert 1.4e4 < eigvals[0] < 1.5e4
        residuals = np.linalg.norm(cov @ eigvecs - eigvecs * eigvals, axis=0)
        assert np.max(residuals) <= 1e-12 * eigvals[0]

    def test_rank_k_reconstruction(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal((2, 5))
        X = rng.standard_normal((15, 2)) @ base  # exact rank 2
        model = pca_fit(X, 2)
        reduced = pca_transform(model, X)
        rebuilt = reduced @ model.components + model.mean
        assert np.max(np.abs(rebuilt - X)) <= 1e-8

    def test_components_are_orthonormal_and_sorted(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((20, 5))
        model = pca_fit(X, 4)
        gram = model.components @ model.components.T
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-8
        assert np.all(np.diff(np.var(pca_transform(model, X), axis=0, ddof=1)) <= 1e-12)

    def test_k_out_of_range(self):
        X = np.random.default_rng(0).standard_normal((5, 3))
        for bad in (0, 4):
            with pytest.raises(ValueError):
                pca_fit(X, bad)


def test_label_from_activity_rules():
    assert label_from_activity(9.0, 6.0) == 1
    assert label_from_activity(5.0, 6.0) == -1
    assert label_from_activity(6.0, 6.0) == 1  # cutoff itself counts active


class TestCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "rows.csv"
        path.write_text(text, encoding="utf-8")
        return path

    def test_read_with_extras_and_mixed_case_headers(self, tmp_path):
        path = self.write(tmp_path, (
            "compound_id,EC50_nM,N_Donors,n_acceptors,rotatable_bonds,"
            "mol_weight,logP,ringcount\n"
            "m1,10,1,4,3,250,2.1,2\n"
            "m2,,2,6,5,410,4.0,1\n"
        ))
        table = read_descriptor_csv(path)
        assert table.activity[0] == pec50(10.0)
        assert np.isnan(table.activity[1])
        assert table.descriptors["ringcount"][0] == 2.0
        X, names = feature_matrix(table)
        assert names == ["n_donors", "n_acceptors", "rotatable_bonds",
                         "mol_weight", "logp", "ringcount"]
        assert X.shape == (2, 6)

    def test_missing_compound_id_column(self, tmp_path):
        path = self.write(tmp_path, "id,mol_weight\nm1,300\n")
        with pytest.raises(ValueError):
            read_descriptor_csv(path)

    def test_non_numeric_extra_rejected(self, tmp_path):
        path = self.write(tmp_path, "compound_id,mol_weight,smiles\nm1,300,CCO\n")
        with pytest.raises(ValueError):
            read_descriptor_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = self.write(tmp_path, "compound_id,mol_weight\n")
        with pytest.raises(ValueError):
            read_descriptor_csv(path)

    def test_label_column_round_trip(self, tmp_path):
        path = self.write(tmp_path, "compound_id,mol_weight,label\nm1,300,1\nm2,400,-1\n")
        table = read_descriptor_csv(path)
        assert table.label.tolist() == [1, -1]
        out = tmp_path / "echo.csv"
        X, names = feature_matrix(table)
        write_feature_csv(out, table.ids, X, names, resolve_labels(table))
        again = read_descriptor_csv(out)
        assert again.label.tolist() == [1, -1]
        X2, _ = feature_matrix(again)
        assert np.array_equal(X, X2)

    def test_row_with_extra_fields_rejected(self, tmp_path):
        path = self.write(tmp_path, "compound_id,logp,mol_weight\nA,1,300\nB,2,310,99\n")
        with pytest.raises(ValueError, match="line 3 has 4 fields"):
            read_descriptor_csv(path)
        assert cli_main(["preprocess", str(path), "--out", str(tmp_path), "--quiet"]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        path = self.write(tmp_path, f"compound_id,mol_weight,logp,label\n"
                                    f"A,300,1.5,1\nB,310,{value},-1\n")
        with pytest.raises(ValueError, match="line 3: column 'logp' has non-finite"):
            read_descriptor_csv(path)
        assert cli_main(["preprocess", str(path), "--out", str(tmp_path), "--quiet"]) == 2

    @pytest.mark.parametrize("label", ["1.7", "0", "2", "-0.5", "nan", "yes"])
    def test_label_other_than_plus_or_minus_one_rejected(self, tmp_path, label):
        path = self.write(tmp_path, f"compound_id,mol_weight,label\nm1,300,{label}\n")
        with pytest.raises(ValueError):
            read_descriptor_csv(path)

    def test_labels_written_as_floats_accepted(self, tmp_path):
        path = self.write(tmp_path, "compound_id,mol_weight,label\nm1,300,1.0\nm2,400,-1e0\n")
        assert read_descriptor_csv(path).label.tolist() == [1, -1]

    def test_inconsistent_extras_rejected(self, tmp_path):
        path = self.write(tmp_path, "compound_id,mol_weight,fp1\nm1,300,1\nm2,400,\n")
        table = read_descriptor_csv(path)
        with pytest.raises(ValueError):
            feature_matrix(table)

    @pytest.mark.parametrize("ec50", ["0", "-5"])
    def test_nonpositive_ec50_rejected(self, tmp_path, ec50):
        path = self.write(tmp_path, f"compound_id,mol_weight,ec50_nM\nm1,300,10\n"
                                    f"bad,310,{ec50}\n")
        with pytest.raises(ValueError, match=r"line 3: bad: ec50_nM must be positive"):
            read_descriptor_csv(path)
        assert cli_main(["preprocess", str(path), "--out", str(tmp_path), "--quiet"]) == 2

    def test_oversized_field_exits_2_naming_path_and_line(self, tmp_path, capsys):
        path = self.write(tmp_path, "compound_id,mol_weight\nm1,300\n"
                                    f"m2,{'9' * 200_000}\n")
        with pytest.raises(ValueError, match=r"rows\.csv: line 3: field larger"):
            read_descriptor_csv(path)
        assert cli_main(["preprocess", str(path), "--out", str(tmp_path), "--quiet"]) == 2
        assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize("header", ["logp,LogP", "logp,logp", "fp1, fp1 "])
    def test_duplicate_columns_exit_2_naming_both(self, tmp_path, capsys, header):
        path = self.write(tmp_path, f"compound_id,mol_weight,{header}\nm1,300,1,2\n")
        first, second = header.split(",")
        with pytest.raises(ValueError, match="both read as") as info:
            read_descriptor_csv(path)
        assert repr(first) in str(info.value) and repr(second) in str(info.value)
        assert cli_main(["preprocess", str(path), "--out", str(tmp_path), "--quiet",
                         "--no-scale"]) == 2
        assert str(path) in capsys.readouterr().err

    def test_cells_are_checked_before_ids_and_ec50(self, tmp_path):
        path = self.write(tmp_path, "compound_id,ec50_nM,logp\n,-1,1\nb,10,x\n")
        with pytest.raises(ValueError, match="line 3: column 'logp' has non-numeric"):
            read_descriptor_csv(path)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfcompound_id,logp\nA,1\nB,2\n")
        table = read_descriptor_csv(path)
        assert table.ids.tolist() == ["A", "B"]
        assert table.descriptors["logp"].tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("text, message", [
        ("compound_id,logp\n\nA,1\n\nB,x\n", "line 5: column 'logp' has non-numeric"),
        ('compound_id,logp\n"A\nA",1\nB,x\n', "line 4: column 'logp' has non-numeric"),
        ("compound_id,logp\n\nA,1,2\n", "line 3 has 3 fields"),
        ("compound_id,logp\n\nA,1\n\n,2\n", "line 5 is missing compound_id"),
        ("compound_id,logp\nA,1\n\nB,2\nA,1\n", "line 5 repeats compound_id 'A' of line 2"),
        ('compound_id,ec50_nM\n"A\nA",1\n\nB,-1\n', "line 5: B: ec50_nM must be positive"),
        ("compound_id,label\nA,1\n\nB,3\n", "line 4 has label '3'"),
        ("\ncompound_id,logp\nA,1\nB,x\n", "line 4: column 'logp' has non-numeric"),
    ], ids=["blank-cell", "multiline-cell", "blank-fields", "blank-id", "repeated-id",
            "multiline-ec50", "blank-label", "leading-blank"])
    def test_messages_name_the_physical_line(self, tmp_path, capsys, text, message):
        # blank lines and a quoted field's continuation lines are counted
        path = self.write(tmp_path, text)
        with pytest.raises(ValueError, match=message):
            read_descriptor_csv(path)
        assert cli_main(["preprocess", str(path), "--out", str(tmp_path / "out"), "--quiet"]) == 2
        assert f"{path}: {message}" in capsys.readouterr().err


class TestResolveLabels:
    def test_prefers_stored_label(self):
        table = make_table(make_row(label=-1, ec50_nM=1.0))
        assert resolve_labels(table, cutoff=6.0).tolist() == [-1]

    def test_derives_from_ec50(self):
        table = make_table(make_row(ec50_nM=1.0), make_row(ec50_nM=1e5))
        assert resolve_labels(table, cutoff=6.0).tolist() == [1, -1]

    def test_derives_from_pec50(self):
        table = make_table(make_row(pec50=7.5))
        assert resolve_labels(table, cutoff=6.0).tolist() == [1]

    def test_requires_cutoff_for_activity(self):
        with pytest.raises(ValueError):
            resolve_labels(make_table(make_row(ec50_nM=1.0)), cutoff=None)

    def test_requires_some_supervision(self):
        with pytest.raises(ValueError):
            resolve_labels(make_table(make_row()), cutoff=6.0)


# header names a descriptor CSV may use, in any case, plus free text
HEADERS = st.sampled_from(["compound_id", "Compound_ID", "ec50_nM", "pec50", "label",
                           "n_donors", "n_acceptors", "rotatable_bonds", "mol_weight",
                           "logp", " LogP ", "fp1", ""]) | st.text(max_size=6)
CELLS = (st.sampled_from(["", " ", "1", "-1", "1.0", "0", "-5", "2", "300", "nan", "NaN",
                          "inf", "-Infinity", "1e400", "-1e400", "1e308", "1_0"])
         | st.integers(-10**30, 10**30).map(str) | st.floats().map(repr)
         | st.text(max_size=6))


@settings(max_examples=300, deadline=None)
@given(st.lists(HEADERS, min_size=1, max_size=7),
       st.lists(st.lists(CELLS, max_size=8), max_size=6),
       st.sampled_from(["\n", "\r\n"]))
def test_csv_ingestion_raises_only_value_errors(tmp_path_factory, header, rows, newline):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    path.write_text(newline.join(",".join(cells) for cells in [header, *rows]),
                    encoding="utf-8")
    try:
        table = read_descriptor_csv(path)
    except ValueError:
        return
    for step in (apply_lipinski_filter, feature_matrix, lambda t: resolve_labels(t, 6.0)):
        try:
            step(table)
        except ValueError:
            pass
