"""Each correctness gate passes a real tiny pass and catches a tampered one."""

from __future__ import annotations

import dataclasses

import pytest

from perfbench import gates
from perfbench.workloads import WORKLOADS


def tiny_pass(name: str, seed: int = 7):
    workload = WORKLOADS[name]
    inputs = workload.setup(seed, "tiny")
    output = workload.run_pass(inputs)
    ref = workload.reference(inputs)
    return workload, inputs, output, ref


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gate_accepts_seed_output(name):
    workload, inputs, output, ref = tiny_pass(name)
    assert workload.check(inputs, output, ref) == []


def test_census_gate_catches_wrong_total():
    workload, inputs, output, ref = tiny_pass("census")
    rho, rc, table, plot = output.data[2]
    lines = table.splitlines()
    # row 200 of rho=3: bump the exact count and both cumulative sums consistently
    iota, exact, cum, ke, ke_cum = map(int, lines[200].split())
    lines[200] = f"{iota} {exact + 1} {cum + 1} {ke} {ke_cum}"
    tampered = dataclasses.replace(output, data=output.data[:2] + [(rho, rc, "\n".join(lines), plot)])
    errors = workload.check(inputs, tampered, ref)
    assert any("totals at iota <= 200" in e for e in errors)


def test_census_gate_catches_brute_force_mismatch_and_plot_drift():
    workload, inputs, output, ref = tiny_pass("census")
    rho, rc, table, plot = output.data[0]
    wrong_ref = dict(ref)
    wrong_ref[1] = {**ref[1], 4: ref[1][4] + 1}
    plot_lines = plot.splitlines()
    plot_lines[5] = "6 999"
    tampered = dataclasses.replace(output, data=[(rho, rc, table, "\n".join(plot_lines))] + output.data[1:])
    errors = workload.check(inputs, tampered, wrong_ref)
    assert any("brute force" in e for e in errors)
    assert any("plot line" in e for e in errors)


def test_census_gate_pins_iota_1000_totals():
    rows = "".join(f"{i} 0 0 0 0\n" for i in range(1, 1001))
    plot = "".join(f"{i} 0\n" for i in range(1, 1001))
    errors = gates.check_census(2, 1000, 0, rows, plot, {})
    assert any("iota <= 1000" in e for e in errors)


def test_export_gate_catches_flipped_byte():
    workload, inputs, output, ref = tiny_pass("export")
    config, rc, digest, records, err = output.data[0]
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    tampered = dataclasses.replace(output, data=[(config, rc, flipped, records, err)] + output.data[1:])
    errors = workload.check(inputs, tampered, ref)
    assert errors and "sha256" in errors[0]


def test_export_gate_catches_record_count():
    config = (3, 5, "jsonl")
    errors = gates.check_export(config, 0, gates.EXPORT_DIGESTS[config], 182, "183 records\n", 183)
    assert errors == [f"export {config}: 182 records written, closed-form count is 183"]


def test_ingest_gate_catches_wrong_normal_form():
    workload, inputs, output, ref = tiny_pass("ingest")
    rows, decoded_json, decoded_csv = output.data
    i = next(i for i, want in enumerate(inputs.expected) if want is not None)
    j = next(j for j, want in enumerate(inputs.expected) if want is not None and want[0] != inputs.expected[i][0])
    rows = list(rows)
    rows[i] = rows[j]
    tampered = dataclasses.replace(output, data=(rows, decoded_json, decoded_csv))
    errors = workload.check(inputs, tampered, ref)
    assert len(errors) == 1 and f"row {i}:" in errors[0]


def test_ingest_gate_catches_accepted_corruption_and_bad_decode():
    workload, inputs, output, ref = tiny_pass("ingest")
    rows, decoded_json, decoded_csv = output.data
    bad = next(i for i, want in enumerate(inputs.expected) if want is None)
    good = next(i for i, want in enumerate(inputs.expected) if want is not None)
    rows = list(rows)
    rows[bad] = rows[good]
    decoded_csv = list(decoded_csv)
    decoded_csv[0] = dataclasses.replace(decoded_csv[0], picard_index=decoded_csv[0].picard_index + 1)
    errors = workload.check(inputs, dataclasses.replace(output, data=(rows, decoded_json, decoded_csv)), ref)
    assert any(f"row {bad}: corrupted row not rejected" in e for e in errors)
    assert any(e.startswith("ingest csv 0:") for e in errors)


def test_ingest_gate_rejects_unexpected_exception_type():
    workload, inputs, output, ref = tiny_pass("ingest")
    rows, decoded_json, decoded_csv = output.data
    bad = next(i for i, want in enumerate(inputs.expected) if want is None)
    rows = list(rows)
    rows[bad] = KeyError("x")
    errors = workload.check(inputs, dataclasses.replace(output, data=(rows, decoded_json, decoded_csv)), ref)
    assert len(errors) == 1 and "not rejected" in errors[0]


def test_ingest_inputs_depend_on_seed_only():
    a = WORKLOADS["ingest"].setup(3, "tiny")
    b = WORKLOADS["ingest"].setup(3, "tiny")
    c = WORKLOADS["ingest"].setup(4, "tiny")
    assert a.raws == b.raws and a.json_lines == b.json_lines and a.csv_lines == b.csv_lines
    assert a.raws != c.raws
    assert a.corrupt_share == 0.05


def test_verify_gate_catches_failed_claim():
    workload, inputs, output, ref = tiny_pass("verify")
    rc, report = output.data
    tampered_report = report.replace(
        "PASS class group formula = smith oracle (iota <= 3): expected 0, got 0",
        "FAIL class group formula = smith oracle (iota <= 3): expected 0, got 1",
    ).replace("overall: PASS", "overall: FAIL")
    assert tampered_report != report
    errors = workload.check(inputs, dataclasses.replace(output, data=(2, tampered_report)), ref)
    assert any("claim failed" in e for e in errors)
    assert any("exit code 2" in e for e in errors)


def test_verify_gate_catches_missing_claim():
    workload, inputs, output, ref = tiny_pass("verify")
    rc, report = output.data
    report = "\n".join(line for line in report.splitlines() if "smith oracle" not in line)
    errors = workload.check(inputs, dataclasses.replace(output, data=(rc, report)), ref)
    assert len(errors) == 1 and "claims missing" in errors[0]
