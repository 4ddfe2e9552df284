"""Start-up guard: every command imports only what it runs.

Each probe runs in a fresh interpreter (bounded by a timeout) and
reports which modules it loaded, so an import that drags numpy, the
scenario generator or the analysis pipeline onto a command that does
not use them fails here and names the module.  The CI step running this
file also prints ``python -X importtime -c "import repro.cli"``.
"""

import json
import subprocess
import sys

import pytest

from repro.cli import EXIT_OK, main
from tests.cli_helpers import cli_env

#: seconds one probe interpreter may take before the test fails
PROBE_TIMEOUT = 120.0

#: packages whose public names resolve on first attribute access
LAZY_PACKAGES = ("repro", "repro.bgp", "repro.core", "repro.corpus",
                 "repro.dataplane", "repro.doctor", "repro.faults",
                 "repro.ixp", "repro.obs", "repro.parallel",
                 "repro.runtime", "repro.streaming")


def probe(body: str) -> dict:
    """Run ``body`` in a fresh interpreter; it must leave a JSON-able
    ``result``, which is returned with the loaded module names added."""
    script = ("import json, sys\n" + body + "\n"
              "result['modules'] = sorted(sys.modules)\n"
              "sys.stdout = sys.__stdout__\n"
              "print(json.dumps(result))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=cli_env(),
                          timeout=PROBE_TIMEOUT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded(result: dict, *names: str) -> list:
    """The ``names`` (packages include their submodules) ``result``
    loaded."""
    return [module for module in result["modules"]
            if any(module == name or module.startswith(name + ".")
                   for name in names)]


def run_command(args) -> str:
    """A probe body running one CLI command in process, its output
    discarded and its exit code kept in ``result``."""
    return ("import io\n"
            "from repro.cli import main\n"
            "sys.stdout = io.StringIO()\n"
            f"result = {{'rc': main({[str(a) for a in args]!r})}}\n")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A kept-segments corpus with every artifact the scrub walks: a
    result cache, a stream checkpoint and obs state."""
    out = tmp_path_factory.mktemp("startup") / "corpus"
    assert main(["generate", "--scale", "0.005", "--days", "3", "--seed",
                 "3", "--keep-segments", "--out", str(out), "-q"]) == EXIT_OK
    assert main(["analyze", str(out), "--jobs", "2", "--host-min-days",
                 "1", "--json"]) in (EXIT_OK, 4)
    assert main(["watch", str(out), "--once", "--host-min-days", "1",
                 "-q", "--json"]) in (EXIT_OK, 4)
    return out


def test_import_cli_loads_no_numpy_scenario_or_pipeline():
    result = probe("import repro.cli\nresult = {}")
    assert loaded(result, "numpy", "repro.scenario",
                  "repro.core.pipeline") == []


def test_doctor_path_loads_no_numpy_or_scenario(corpus):
    result = probe(run_command(["doctor", corpus]))
    assert result["rc"] == EXIT_OK
    assert "repro.doctor.scrub" in result["modules"]
    assert "repro.streaming.state" in result["modules"]  # checkpoint scrubbed
    assert loaded(result, "numpy", "repro.scenario") == []


def test_analyze_path_loads_no_generator_taps_faults_or_obs(corpus):
    result = probe(run_command(["analyze", corpus, "--host-min-days", "1",
                                "--json"]))
    assert result["rc"] in (EXIT_OK, 4)
    assert "repro.core.pipeline" in result["modules"]
    assert loaded(result, "repro.scenario", "repro.faults", "repro.taps",
                  "repro.obs", "repro.streaming") == []


def test_forked_analysis_workers_import_nothing(corpus, tmp_path):
    """The pre-fork path loads every module a worker runs, so no pool
    worker compiles a module of its own."""
    log = tmp_path / "child-imports.jsonl"
    result = probe(
        "import repro.runtime.supervisor as supervisor\n"
        "original = supervisor._child_main\n"
        "def child_main(conn, name, *args, **kwargs):\n"
        "    before = set(sys.modules)\n"
        "    try:\n"
        "        original(conn, name, *args, **kwargs)\n"
        "    finally:\n"
        "        with open(" + repr(str(log)) + ", 'a') as fh:\n"
        "            fh.write(json.dumps([name, sorted(\n"
        "                set(sys.modules) - before)]) + '\\n')\n"
        "supervisor._child_main = child_main\n"
        + run_command(["analyze", corpus, "--jobs", "2", "--host-min-days",
                       "1", "--cache-dir", tmp_path / "cache", "--json"]))
    assert result["rc"] in (EXIT_OK, 4)
    children = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(children) == 16
    assert [entry for entry in children if entry[1]] == []


def test_watch_once_loads_no_http_and_starts_no_thread(corpus):
    """The operations plane reports only through ``.obs/`` files."""
    result = probe(run_command(["watch", corpus, "--once",
                                "--host-min-days", "1", "-q"])
                   + "import threading\n"
                   "result['threads'] = threading.active_count()\n")
    assert result["rc"] in (EXIT_OK, 4)
    assert "repro.obs.plane" in result["modules"]
    assert loaded(result, "http.server", "http.client",
                  "urllib.request") == []
    assert result["threads"] == 1


def test_every_lazy_public_name_resolves():
    result = probe(
        "import importlib\n"
        "result = {'missing': [], 'undirred': []}\n"
        f"for package in {LAZY_PACKAGES!r}:\n"
        "    module = importlib.import_module(package)\n"
        "    for name in module.__all__:\n"
        "        if not hasattr(module, name):\n"
        "            result['missing'].append(package + '.' + name)\n"
        "        if name not in dir(module):\n"
        "            result['undirred'].append(package + '.' + name)\n"
        "    namespace = {}\n"
        "    exec('from ' + package + ' import *', namespace)\n"
        "    assert set(module.__all__) <= set(namespace), package\n")
    assert result["missing"] == []
    assert result["undirred"] == []


def test_unknown_lazy_name_raises_attribute_error():
    import repro.core
    import repro.corpus

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.corpus.nope  # noqa: B018
    assert not hasattr(repro.core, "nope")
