"""The forked workers behind `cpwloss sweep` and the `cpwloss mb` table: the
same results, warnings and errors as the in-process run."""

import errno
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cpwloss import cli
from cpwloss.errors import DataQualityWarning
from cpwloss.pipeline import parallel
from cpwloss.pipeline import sweep as analysis
from cpwloss.pipeline.config import config_from_dict
from cpwloss.pipeline.forward import calibrate_sweep_config, synth_sweep
from cpwloss.pipeline.io import write_s21_csv
from cpwloss.resfit import S21Trace
from conftest import two_cpus

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
    synth_sweep(config_from_dict(doc), traces)
    rng = np.random.default_rng(7)
    f = np.linspace(5.9e9, 6.0e9, 301)
    for t in (0.5, 1.5):
        noise = rng.standard_normal(301) + 1j * rng.standard_normal(301)
        flat = S21Trace(f, 0.9 + 1e-4 * noise, temperature_k=t)
        write_s21_csv(traces / f"flat_T{t}K.csv", flat)
    return root


@pytest.fixture
def pooled(monkeypatch):
    """Every map of two or more items and bytes runs on at least two
    processes, also on a one-CPU host; returns the process counts used."""
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
    assert [n >= 2 for n in pooled] == [False, True]  # one map per run
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


@pytest.mark.parametrize("on_pool", [False, True])
def test_set_aside_traces_never_reach_the_fit(
    capsys, monkeypatch, tmp_path, sweep_dir, pooled, on_pool
):
    tc = json.loads((sweep_dir / "config.json").read_text())["material"]["tc_kelvin"]
    mixed = tmp_path / "traces"
    mixed.mkdir()
    fittable = sorted((sweep_dir / "traces").iterdir())
    for p in fittable:
        (mixed / p.name).write_bytes(p.read_bytes())
    body = fittable[0].read_text().split("\n", 1)[1]  # the tag line dropped
    aside = {"t_zero.csv": 0.0, "t_negative.csv": -1.0, "t_tc.csv": tc, "t_hot.csv": 11.5}
    for name, t in aside.items():
        (mixed / name).write_text(f"# temperature_K={t!r}\n{body}")
    (mixed / "untagged.csv").write_text(body)
    log = tmp_path / "fitted.txt"
    real = analysis.fit_notch

    def spy(trace):
        with open(log, "a") as fh:  # a worker's own list would be lost
            fh.write(f"{Path(trace.source).name}\n")
        return real(trace)

    monkeypatch.setattr(analysis, "fit_notch", spy)
    if not on_pool:
        monkeypatch.setattr(parallel, "MIN_BYTES_PER_WORKER", IN_PROCESS)
    assert sweep(capsys, sweep_dir, tmp_path / "out", [str(mixed)]) == (0, "")
    assert [n >= 2 for n in pooled] == [on_pool]
    assert sorted(log.read_text().split()) == [p.name for p in fittable]
    report = json.loads((tmp_path / "out" / "report.json").read_bytes())
    failed = {Path(f["source"]).name for f in report["failures"]}
    assert failed >= {*aside, "untagged.csv"}


def _getpid(_):
    return os.getpid()


def test_worker_count_stays_within_the_affinity_mask(pooled):
    # the caller is one of the processes, and each runs at least one item
    cpus = len(os.sched_getaffinity(0))
    assert parallel.worker_count(10**6, 10**15) == cpus
    assert parallel.worker_count(1, 10**15) == 1
    pids = set(parallel.ordered_map(_getpid, range(64), [10**15] * 64))
    assert os.getpid() in pids and len(pids) == cpus


def _pid_and_mask(_):
    return os.getpid(), frozenset(os.sched_getaffinity(0))


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_each_process_runs_on_a_cpu_of_its_own(pooled):
    mask = os.sched_getaffinity(0)
    masks = dict(parallel.ordered_map(_pid_and_mask, range(64), [10**15] * 64))
    assert sorted(map(len, masks.values())) == [1] * len(mask)
    assert set().union(*masks.values()) == mask
    assert os.sched_getaffinity(0) == mask  # the caller's own mask again


def test_interrupt_in_the_callers_share_reaps_every_worker(pooled):
    # the workers take no more items once the caller's share has failed;
    # on two CPUs the one worker would otherwise run 199 items of 10 ms
    caller, mask = os.getpid(), os.sched_getaffinity(0)

    def fn(x):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(0.01)
        return x

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parallel.ordered_map(fn, range(200), [10**15] * 200)
    assert time.monotonic() - start < 0.5
    assert max(pooled) >= 2 and os.sched_getaffinity(0) == mask
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_more_items_than_one_pipe_buffer_holds():
    # 20,000 four-byte item numbers would be 80 kB, more than a 64 KiB pipe
    # takes before it is read
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import os\n"
        "from cpwloss.pipeline import parallel\n"
        "parallel.MIN_BYTES_PER_WORKER = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "n = 20000\n"
        "sizes = [i % 7 for i in range(n)]\n"
        "out = parallel.ordered_map(lambda x: (x, os.getpid()), range(n), sizes)\n"
        "print([x for x, _ in out] == list(range(n)), len({pid for _, pid in out}))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["True 2"]


def test_size_rule_keeps_small_work_in_process():
    assert parallel.MIN_BYTES_PER_WORKER > 0
    small = 2 * parallel.MIN_BYTES_PER_WORKER - 1
    assert parallel.worker_count(10**6, small) == 1
    assert set(parallel.ordered_map(_getpid, range(8), [small] + [0] * 7)) == {os.getpid()}


def _square_or_fail(x):
    if x in (3, 5):
        raise ValueError(f"item {x}")
    warnings.warn(f"item {x}", DataQualityWarning)
    return x * x


def _ascending(work_bytes, n):
    # sizes that grow with the item index, so the pool takes the items last
    # first
    return [work_bytes * (i + 1) for i in range(n)]


@pytest.mark.parametrize("work_bytes", [0, 10**15])
def test_results_warnings_and_first_error_in_item_order(pooled, work_bytes):
    # no work bytes: in process; otherwise on the pool, which leaves no
    # thread behind to make the next fork unsafe
    threads = threading.active_count()
    with pytest.warns(DataQualityWarning) as record:
        out = parallel.ordered_map(_square_or_fail, [2, 1, 0], _ascending(work_bytes, 3))
    assert out == [4, 1, 0]
    assert [str(w.message) for w in record] == ["item 2", "item 1", "item 0"]
    with pytest.warns(DataQualityWarning) as record:
        with pytest.raises(ValueError, match="^item 3$"):
            parallel.ordered_map(_square_or_fail, [0, 1, 2, 3, 4, 5], _ascending(work_bytes, 6))
    assert [str(w.message) for w in record] == ["item 0", "item 1", "item 2"]
    assert [n >= 2 for n in pooled] == [work_bytes > 0] * 2
    assert threading.active_count() == threads
    assert parallel.ordered_map(lambda x: -x, [1, 2], [work_bytes] * 2) == [-1, -2]


def _start_then_sleep(seconds):
    start = time.monotonic()
    time.sleep(seconds)
    return start


def test_pool_takes_the_largest_items_first(monkeypatch, pooled):
    # two processes (10 bytes, 5 per process); the two largest items are
    # given last and each holds a process for 0.3 s, so the two small ones
    # can start only after both have started
    monkeypatch.setattr(parallel, "MIN_BYTES_PER_WORKER", 5)
    starts = parallel.ordered_map(_start_then_sleep, [0.3] * 4, [1, 2, 3, 4])
    assert pooled == [2]
    assert max(starts[2:]) <= min(starts[:2])


def test_dead_worker_fails_the_map():
    # a worker that dies without a result must not leave the caller waiting;
    # the caller's own item returns
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import os\n"
        "from cpwloss.pipeline import parallel\n"
        "parallel.MIN_BYTES_PER_WORKER = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "caller = os.getpid()\n"
        "fn = lambda x: x if os.getpid() == caller else os._exit(x)\n"
        "parallel.ordered_map(fn, [3, 3], [10**15] * 2)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.returncode == 1
    assert "ChildProcessError: a worker process died before returning its results" in out.stderr


def test_worker_never_returns_into_the_caller_and_is_reaped():
    # a line left unflushed before the fork would be printed again by any
    # process that ran on in the caller's code and exited normally
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import os\n"
        "from cpwloss.pipeline import parallel\n"
        "parallel.MIN_BYTES_PER_WORKER = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "print('before the map')\n"
        "try:\n"
        "    parallel.ordered_map(lambda x: lambda: x, [1, 2], [10**15] * 2)\n"
        "except Exception as exc:\n"
        "    print('map failed:', type(exc).__name__, exc)\n"
        "print('after the map')\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('no child left')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "before the map",
        "map failed: ChildProcessError a worker process died before returning its results",
        "after the map",
        "no child left",
    ]


def test_failed_fork_reaps_the_workers_forked_before(monkeypatch, pooled):
    # three processes: the caller and two forks, of which the second fails
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    real, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(BlockingIOError):
        parallel.ordered_map(_getpid, range(4), [10**15] * 4)
    assert pooled == [3] and len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_dead_worker_fails_the_cli_with_exit_1(tmp_path, sweep_dir):
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import os, sys\n"
        "from cpwloss import cli\n"
        "from cpwloss.pipeline import parallel, sweep\n"
        "parallel.MIN_BYTES_PER_WORKER = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "caller, fit = os.getpid(), sweep.fit_notch\n"
        "sweep.fit_notch = lambda trace: fit(trace) if os.getpid() == caller else os._exit(9)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["sweep", str(sweep_dir / "traces"), "--config", str(sweep_dir / "config.json"),
            "--out", str(tmp_path / "out")]
    out = subprocess.run(
        [sys.executable, "-c", probe, *argv], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.returncode == 1
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr
    assert not (tmp_path / "out").exists()


def test_cli_import_loads_no_multiprocessing(sweep_dir):
    # nor does a sweep on two forked workers load it, or concurrent.futures
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import json, os, sys, cpwloss.cli\n"
        "from cpwloss.pipeline import parallel\n"
        "from cpwloss.pipeline.config import load_config\n"
        "from cpwloss.pipeline.sweep import sweep_analyze\n"
        "parallel.MIN_BYTES_PER_WORKER = 1\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "root = sys.argv[1]\n"
        "paths = sorted(os.path.join(root, 'traces', n) for n in os.listdir(root + '/traces'))\n"
        "report = sweep_analyze(paths, load_config(root + '/config.json'))\n"
        "sizes = [os.path.getsize(p) for p in paths]\n"
        "print(parallel.worker_count(len(paths), sum(sizes)), len(report.fits))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('multiprocessing', 'concurrent'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe, str(sweep_dir)], capture_output=True, text=True,
        check=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert out.stdout.splitlines() == ["2 8", "[]"]


@pytest.fixture
def forks():
    """Two usable CPUs and the size rule as it is; the pids forked."""
    with two_cpus() as pids:
        yield pids


def test_small_tables_never_fork(capsys, tmp_path, sweep_dir, forks):
    config = str(sweep_dir / "config.json")
    assert sweep(capsys, sweep_dir, tmp_path / "out") == (0, "")
    assert len(list((tmp_path / "out").glob("*.csv"))) == 4
    trace = sorted((sweep_dir / "traces").glob("s21_*.csv"))[0]
    assert cli.main(["fit", "--format", "csv", str(trace)]) == 0
    for fmt in ("json", "csv"):
        assert cli.main(["mb", "--config", config, "--format", fmt]) == 0
    f = np.linspace(5.9e9, 6.0e9, 1001)
    write_s21_csv(tmp_path / "t.csv", S21Trace(f, np.exp(1j * f / 1e9)))
    assert forks == []


def test_sweep_of_30_traces_of_1001_points_forks_one_worker(capsys, tmp_path, forks):
    # 1.7 MB of files: the caller and one worker; sweep_dir's 10 traces of
    # 301 points stay in this process (test_small_tables_never_fork)
    doc = calibrate_sweep_config()
    (tmp_path / "config.json").write_text(json.dumps(doc))
    synth_sweep(config_from_dict(doc), tmp_path / "traces")
    assert len(list((tmp_path / "traces").iterdir())) == 30
    assert sweep(capsys, tmp_path, tmp_path / "out") == (0, "")
    assert len(forks) == 1


@pytest.mark.parametrize("fmt, forked", [("json", 1), ("csv", 0)])
def test_mb_table_is_weighed_in_text_bytes(capsys, sweep_dir, forks, fmt, forked):
    # 4,000 rows are 1.3 MB of JSON at most, two processes' worth, and 0.7 MB
    # of CSV, which stays in this process
    argv = ["mb", "--config", str(sweep_dir / "config.json"), "--points", "4000"]
    assert cli.main([*argv, "--format", fmt]) == 0
    assert len(forks) == forked


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_mb_table_on_two_workers_prints_the_in_process_table(
    capsys, monkeypatch, sweep_dir, pooled, fmt
):
    argv = ["mb", "--config", str(sweep_dir / "config.json"), "--points", "20000",
            "--format", fmt]
    with monkeypatch.context() as m:
        m.setattr(parallel, "MIN_BYTES_PER_WORKER", IN_PROCESS)
        assert cli.main(argv) == 0
        serial = capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr() == serial
    assert [n >= 2 for n in pooled] == [False, True, True]  # table_text's, then the map's
    assert serial.out.count("\n") == {"json": 20000 * 9 + 2, "csv": 20001}[fmt]
