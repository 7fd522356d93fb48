"""The forked worker pool behind `cpwloss sweep`: the same results, warnings
and errors as the in-process run."""

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from cpwloss import cli
from cpwloss.errors import DataQualityWarning
from cpwloss.pipeline import parallel
from cpwloss.pipeline.config import config_from_dict
from cpwloss.pipeline.forward import calibrate_sweep_config, synth_sweep
from cpwloss.pipeline.io import write_s21_csv
from cpwloss.resfit import S21Trace

IN_PROCESS = 1 << 62  # a MIN_BYTES_PER_WORKER no input reaches


@pytest.fixture(scope="module")
def sweep_dir(tmp_path_factory):
    """Eight fittable traces and two resonance-free ones, with a config."""
    root = tmp_path_factory.mktemp("pool_sweep")
    doc = calibrate_sweep_config(
        temperatures=[round(v, 4) for v in np.linspace(0.12, 2.9, 8)],
        noise_sigma=5e-4,
        npoints=301,
        seed=3,
    )
    (root / "config.json").write_text(json.dumps(doc, indent=2))
    traces = root / "traces"
    traces.mkdir()
    for tr in synth_sweep(config_from_dict(doc)):
        write_s21_csv(traces / f"s21_T{tr.temperature_k:.4f}K.csv", tr)
    rng = np.random.default_rng(7)
    f = np.linspace(5.9e9, 6.0e9, 301)
    for t in (0.5, 1.5):
        noise = rng.standard_normal(301) + 1j * rng.standard_normal(301)
        flat = S21Trace(f, 0.9 + 1e-4 * noise, temperature_k=t)
        write_s21_csv(traces / f"s21_T{t:.4f}K.csv", flat)
    return root


@pytest.fixture
def pooled(monkeypatch):
    """Every map of two or more items and bytes runs on at least two
    workers, also on a one-CPU host; returns the worker counts used."""
    monkeypatch.setattr(parallel, "MIN_BYTES_PER_WORKER", 1)
    if len(os.sched_getaffinity(0)) < 2:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    counts = []
    real = parallel.worker_count

    def spy(n_items, work_bytes):
        counts.append(real(n_items, work_bytes))
        return counts[-1]

    monkeypatch.setattr(parallel, "worker_count", spy)
    return counts


def sweep(capsys, root, out, inputs=None):
    argv = ["sweep", *(inputs or [str(root / "traces")]),
            "--config", str(root / "config.json"), "--out", str(out)]
    rc = cli.main(argv)
    return rc, capsys.readouterr().err


def test_pool_writes_the_in_process_report(capsys, monkeypatch, tmp_path, sweep_dir, pooled):
    with monkeypatch.context() as m:
        m.setattr(parallel, "MIN_BYTES_PER_WORKER", IN_PROCESS)
        assert sweep(capsys, sweep_dir, tmp_path / "serial") == (0, "")
    assert sweep(capsys, sweep_dir, tmp_path / "pool") == (0, "")
    assert [n >= 2 for n in pooled] == [False, False, True, True]  # ingest, fits
    names = sorted(p.name for p in (tmp_path / "serial").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "pool").iterdir())
    assert "report.json" in names and len(names) > 1
    for name in names:
        serial = (tmp_path / "serial" / name).read_bytes()
        assert serial == (tmp_path / "pool" / name).read_bytes(), name
    report = json.loads((tmp_path / "pool" / "report.json").read_bytes())
    assert len(report["failures"]) == 2 and len(report["per_temperature"]) == 8


def test_worker_warning_reaches_the_caller(capsys, tmp_path, sweep_dir, pooled):
    traces = sorted((sweep_dir / "traces").iterdir())
    lines = traces[3].read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if line.startswith("freq_hz"))
    # swap two data rows: the trace is usable after sorting
    lines[header + 5], lines[header + 6] = lines[header + 6], lines[header + 5]
    shuffled = tmp_path / traces[3].name
    shuffled.write_text("\n".join(lines) + "\n")
    inputs = [str(p) for p in traces[:3]] + [str(shuffled)] + [str(p) for p in traces[4:]]
    with pytest.warns(DataQualityWarning, match="not monotone") as record:
        rc, err = sweep(capsys, sweep_dir, tmp_path / "out", inputs)
    assert rc == 0, err
    assert max(pooled) >= 2
    assert [str(shuffled) in str(w.message) for w in record] == [True]


def test_malformed_file_fails_as_in_process(capsys, monkeypatch, tmp_path, sweep_dir, pooled):
    bad = tmp_path / "traces"
    bad.mkdir()
    for k, p in enumerate(sorted((sweep_dir / "traces").iterdir())):
        text = p.read_text()
        if k in (4, 7):  # the first bad file in input order names the error
            text = text.replace(",", ";", 3 + k)
        (bad / p.name).write_text(text)
    with monkeypatch.context() as m:
        m.setattr(parallel, "MIN_BYTES_PER_WORKER", IN_PROCESS)
        serial = sweep(capsys, sweep_dir, tmp_path / "o1", [str(bad)])
    pool = sweep(capsys, sweep_dir, tmp_path / "o2", [str(bad)])
    assert max(pooled) >= 2
    assert serial == pool
    rc, err = pool
    assert rc == 1 and err.startswith("error: ") and sorted(bad.iterdir())[4].name in err


def _getpid(_):
    return os.getpid()


def test_worker_count_stays_within_the_affinity_mask(pooled):
    cpus = len(os.sched_getaffinity(0))
    assert parallel.worker_count(10**6, 10**15) == cpus
    assert parallel.worker_count(1, 10**15) == 1
    pids = set(parallel.ordered_map(_getpid, range(64), 10**15))
    assert os.getpid() not in pids and len(pids) <= cpus


def test_size_rule_keeps_small_work_in_process():
    assert parallel.MIN_BYTES_PER_WORKER > 0
    small = 2 * parallel.MIN_BYTES_PER_WORKER - 1
    assert parallel.worker_count(10**6, small) == 1
    assert set(parallel.ordered_map(_getpid, range(8), small)) == {os.getpid()}


def _square_or_fail(x):
    if x in (3, 5):
        raise ValueError(f"item {x}")
    warnings.warn(f"item {x}", DataQualityWarning)
    return x * x


@pytest.mark.parametrize("work_bytes", [0, 10**15])
def test_results_warnings_and_first_error_in_item_order(pooled, work_bytes):
    # no work bytes: in process; otherwise on the pool, which leaves no
    # thread behind to make the next fork unsafe
    threads = threading.active_count()
    with pytest.warns(DataQualityWarning) as record:
        assert parallel.ordered_map(_square_or_fail, [2, 1, 0], work_bytes) == [4, 1, 0]
    assert [str(w.message) for w in record] == ["item 2", "item 1", "item 0"]
    with pytest.warns(DataQualityWarning) as record:
        with pytest.raises(ValueError, match="^item 3$"):
            parallel.ordered_map(_square_or_fail, [0, 1, 2, 3, 4, 5], work_bytes)
    assert [str(w.message) for w in record] == ["item 0", "item 1", "item 2"]
    assert [n >= 2 for n in pooled] == [work_bytes > 0] * 2
    assert threading.active_count() == threads
    assert parallel.ordered_map(lambda x: -x, [1, 2], work_bytes) == [-1, -2]


def test_dead_worker_fails_the_map():
    # a worker that dies without a result must not leave the caller waiting
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import os\n"
        "from cpwloss.pipeline import parallel\n"
        "parallel.MIN_BYTES_PER_WORKER = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "parallel.ordered_map(os._exit, [3, 3], 10**15)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.returncode == 1 and "BrokenProcessPool" in out.stderr


def test_cli_import_loads_no_multiprocessing():
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import sys, cpwloss.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.stdout.strip() == "[]"
