"""Golden outputs: the SHA-256 of every file and standard output the CLI
commands write, pinned to recorded digests.

Each command runs in process in a fresh directory on a small variant of
a shipped config (few source epochs, few batches, a coarse grid, three
rates), so a change anywhere between config loading and CSV formatting
that moves one output byte fails here, in tier-1, and names the command
and file.  Paths in outputs are relative to that directory, so no digest
depends on where the test runs.

``GOLDEN`` was recorded at commit ed39114, the last commit whose streams
were lists of per-batch ``(X, y)`` pairs, with Python 3.11 and numpy
2.4 on x86-64 Linux, by printing ``_digests`` from this module's
commands.  ``SCRIPT_GOLDEN`` holds the standard output of the two
experiment scripts, each run for two seeds with its ``CONFIG`` pointed at
the same small variant of the shipped config it reads; it was recorded
at commit 5ba4b20, before the sweeps moved from ``cli`` to ``search``.
``BITS`` pins bits rather than prints.  For the ``run``, ``grid-search``
and ``lr-sweep`` commands of ``COMMANDS`` it holds the SHA-256 of the raw
bytes of the source model's ``theta`` after ``train_source``, and, for
each ``bench.run_protocols`` call, of the ``(K, P)`` parameter array it
hands ``adapt_stream``, as the call leaves it, followed by every result's
``confusion``, ``sums`` and ``total``.  A change that moves the last bit of one
probability can leave every 9-digit print unchanged; it fails here.
``BITS`` was recorded at commit 2853129 by printing ``_bits`` from this
module's commands.  ``HASWELL_BITS`` is the same table on a second kernel
of the same machine, OpenBLAS's Haswell core without numpy's AVX-512
loops (``SECOND_KERNEL``), recorded the same way at commit eabcfa2;
``test_the_bits_hold_on_a_second_kernel`` runs the bit table test in a
child process with those settings, so a change must keep its bits on
both kernels.

Floating-point results can differ with another numpy or BLAS build: the
OpenBLAS kernel and numpy's SIMD loops are picked for the CPU at run
time.  ``MACHINE`` names the build and CPU that every table here passes
on, and a mismatch says what this process runs on next to it.  On
another machine, record the digests again at a commit known to be right
and compare from there.
"""

import ctypes
import glob
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import demkit.bench
import demkit.cli
from demkit.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

SMALL = {
    "source": {"epochs": 4, "n": 1000},
    "stream": {"batches_per_shift": 5},
    "grid": {"step": 0.5, "subset_fraction": 0.4},
    "lrs": [0.001, 0.025, 0.1],
}

# (name, shipped config or None, argv without the config flag)
COMMANDS = [
    ("run/single_domain_em", "single_domain_em", ["run"]),
    ("run/long_tail_noise", "long_tail_noise", ["run"]),
    ("run/continual_adadem", "continual_adadem", ["run"]),
    ("grid-search/single_domain_em", "single_domain_em", ["grid-search"]),
    ("lr-sweep/continual_adadem", "continual_adadem", ["lr-sweep"]),
    ("gradcheck", None, ["gradcheck", "--trials", "5"]),
    ("reward-curve", None, ["reward-curve"]),
]

GOLDEN = {
    "gradcheck/stdout": (
        "629378113fa3705462fc8108adbb09769589a87d3db08af43485793420cef477"
    ),
    "grid-search/single_domain_em/stdout": (
        "51f896a80ec9b1fa8d40586c2d57f61d94979f97de3ff340e84931c0b5f95a3b"
    ),
    "lr-sweep/continual_adadem/stdout": (
        "445bfe36f1a6509797d1ffcb3716686345edc43fc5d9927fc6827454e1ce9e88"
    ),
    "out/grid-search/single_domain_em/grid.csv": (
        "f6a0a0f86260a27d1b293c1463e6a0f033b1224f4ca0da423f168892ea23a70c"
    ),
    "out/grid-search/single_domain_em/summary.json": (
        "0f4170cb5c1afa27c465440e7878a367b5cc0f4f73053f2a7989106f8b78a0a0"
    ),
    "out/lr-sweep/continual_adadem/lr_sweep.csv": (
        "251dfb63b3f45e9c959d2f1f1f845643dee9128ee0d7ed850c6f475e93df319a"
    ),
    "out/lr-sweep/continual_adadem/summary.json": (
        "74884769da8b2d4d3aef1d4819a21d124bdc2d8fb1dbbf29cfd2fc172c7de26e"
    ),
    "out/run/continual_adadem/metrics.csv": (
        "dd80ad90d89989d936007a36073aed4c4f5b51a4eb09c507a837a7a6f37e13b0"
    ),
    "out/run/continual_adadem/summary.json": (
        "5fce9807114c54d6e68746038faf585541e7f59b030b20da7ef963f10f98de46"
    ),
    "out/run/long_tail_noise/metrics.csv": (
        "bded374aa755448396fc72b52f01fc534768b5acdbed0006388e5890c15b3bfb"
    ),
    "out/run/long_tail_noise/summary.json": (
        "8124e5eb6bf2753b319e7adca497201336bf10dd3238620a03f99d6296e939e6"
    ),
    "out/run/single_domain_em/metrics.csv": (
        "53dbf52db5ad7f4e54ff5fd663a6b24b282292f13fcadd9a3241cb18df43147f"
    ),
    "out/run/single_domain_em/summary.json": (
        "506a3ddb6f879786f10eb67ab573dce9ffe3d455480a7094211a9c3468bda60e"
    ),
    "reward-curve/stdout": (
        "ef986c1044b5273a4fcfd72d44f3d565dd8bfbdabcd716ac6bf90a2016fdea3c"
    ),
    "reward_curve.csv": (
        "5e91157a2856392e0258e98a7ad352de3b5da7325c27cc363ab99d29927dafec"
    ),
    "run/continual_adadem/stdout": (
        "e4e3dd783d91c89ec4f68507574ea76a7641dc08cb1facb7eac388831c0b43d4"
    ),
    "run/long_tail_noise/stdout": (
        "1569c4233b58e9bd012faa8187f53bc3900c5fb9fd1c4d9566e7131a4c525050"
    ),
    "run/single_domain_em/stdout": (
        "92af8320a6d43dfcce157d237241fe61751cf269985259c23bbb43b65343d32d"
    ),
}

# ``name/source`` and ``name/run_protocols/<i>``, in call order, per command
BITS = {
    "grid-search/single_domain_em/run_protocols/0": (
        "79feab2bc4fb59e213ea4083bf058c9abd1e7c2572052e074aad4ba0b41bd1be"
    ),
    "grid-search/single_domain_em/run_protocols/1": (
        "8cb88043e23c836c9e95eb7a2f096c43e57ebfc508917d801d4ba8d1feaf0e82"
    ),
    "grid-search/single_domain_em/run_protocols/2": (
        "ae9e8c452ad49510f49bb08ea8ee3dc10e9cda5f52d268f049b34534203fe90d"
    ),
    "grid-search/single_domain_em/source": (
        "dfc8dd5f4656fe7c540b0c0ca64ca38ca7886c89d30ef2d9508b9f35bccc60c0"
    ),
    "lr-sweep/continual_adadem/run_protocols/0": (
        "4c3966f6848141606f600ddf65bd7fe0ee0df1d38a30e90a4878c18b57ad7ea0"
    ),
    "lr-sweep/continual_adadem/source": (
        "dfc8dd5f4656fe7c540b0c0ca64ca38ca7886c89d30ef2d9508b9f35bccc60c0"
    ),
    "run/continual_adadem/run_protocols/0": (
        "781995f3b01b1d5ee665315bb829afb3c800e408b8199c2658405a00dde3e826"
    ),
    "run/continual_adadem/source": (
        "dfc8dd5f4656fe7c540b0c0ca64ca38ca7886c89d30ef2d9508b9f35bccc60c0"
    ),
    "run/long_tail_noise/run_protocols/0": (
        "b1a8c9d8e13b398fe4cdf182021c1e59effdfa7f61d7e7cb8ca3ac8cf86fdbcd"
    ),
    "run/long_tail_noise/source": (
        "dfc8dd5f4656fe7c540b0c0ca64ca38ca7886c89d30ef2d9508b9f35bccc60c0"
    ),
    "run/single_domain_em/run_protocols/0": (
        "578d71bd24f89e9afb9773e8fd9c8ab9a8ea1a75ff365501123b5e1685fe29bd"
    ),
    "run/single_domain_em/source": (
        "dfc8dd5f4656fe7c540b0c0ca64ca38ca7886c89d30ef2d9508b9f35bccc60c0"
    ),
}

# numpy's version, OpenBLAS's core name and numpy's highest enabled SIMD target
MACHINE = ("2.4.6", "SkylakeX", "AVX512_SPR")

# ``BITS`` on a second kernel: the same machine with OPENBLAS_CORETYPE=Haswell
# and NPY_DISABLE_CPU_FEATURES=X86_V4 set.  Every entry differs from BITS's.
HASWELL_BITS = {
    "grid-search/single_domain_em/run_protocols/0": (
        "f53608d0f1cc66f84a7763be4382dea2be7ee7ff44a4acc3698042b500251f41"
    ),
    "grid-search/single_domain_em/run_protocols/1": (
        "54ce6dde551c975628afd386328d1d41cfcc66bcca26495ac326a910d5823e95"
    ),
    "grid-search/single_domain_em/run_protocols/2": (
        "8af1dfdae785a301465028e362390d3ec05c00e58288c0fdcaa7b616d232163e"
    ),
    "grid-search/single_domain_em/source": (
        "08d72585912f15361cb193459cf20fa07ba42a75e206f6bcf61204812aa015b5"
    ),
    "lr-sweep/continual_adadem/run_protocols/0": (
        "268c7f90132b53af418a957530b84ecb42ca3349352488dab388b9d1f03e7912"
    ),
    "lr-sweep/continual_adadem/source": (
        "08d72585912f15361cb193459cf20fa07ba42a75e206f6bcf61204812aa015b5"
    ),
    "run/continual_adadem/run_protocols/0": (
        "c34cdc15d4c6a3bceb2427355ef17950ee2718cb7370b6965699eba5c9ecdf40"
    ),
    "run/continual_adadem/source": (
        "08d72585912f15361cb193459cf20fa07ba42a75e206f6bcf61204812aa015b5"
    ),
    "run/long_tail_noise/run_protocols/0": (
        "10789313434ce236451edd597b2bf17fb7665d890599e6219fae66ab76a4b877"
    ),
    "run/long_tail_noise/source": (
        "08d72585912f15361cb193459cf20fa07ba42a75e206f6bcf61204812aa015b5"
    ),
    "run/single_domain_em/run_protocols/0": (
        "f2993c78b9714791918f198becdc8230f744bf15eb95ed13f88a742eccf348e0"
    ),
    "run/single_domain_em/source": (
        "08d72585912f15361cb193459cf20fa07ba42a75e206f6bcf61204812aa015b5"
    ),
}
HASWELL = ("2.4.6", "Haswell", "AVX512_SPR")

# Each recorded kernel's machine and bit table, by OpenBLAS core name.  The
# SIMD level reads AVX512_SPR on both kernels, so it cannot tell them apart.
TABLES = {MACHINE[1]: (MACHINE, BITS), HASWELL[1]: (HASWELL, HASWELL_BITS)}

# Set for the second-kernel run; each acts on that child process only.
SECOND_KERNEL = {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4"}


# (script under scripts/, the shipped config its CONFIG names)
SCRIPTS = [
    ("lr_robustness", "single_domain_em"),
    ("continual_comparison", "continual_adadem"),
]

SCRIPT_GOLDEN = {
    "lr_robustness/stdout": (
        "f8ef4e4727f357efe3477c9d690d4ea1725619b8db33d27499271bd666acb4ac"
    ),
    "continual_comparison/stdout": (
        "f3ed83a91b88c15ecfbe58ee75debdbfc4252c3da4d9b5c7342499097845b47f"
    ),
}


def _small_config(stem: str, name: str, directory: Path) -> str:
    """The shipped config ``stem`` with ``SMALL`` merged over its sections,
    writing to ``out/<name>``; returns the config's relative path."""
    cfg = json.loads((CONFIGS / f"{stem}.json").read_text())
    for key, value in SMALL.items():
        if isinstance(value, dict):
            cfg.setdefault(key, {}).update(value)
        else:
            cfg[key] = value
    cfg["output_dir"] = f"out/{name}"
    path = Path("cfg") / f"{name.replace('/', '-')}.json"
    (directory / path).parent.mkdir(exist_ok=True)
    (directory / path).write_text(json.dumps(cfg))
    return str(path)


def _refuse_constant(name):
    """A ``json.loads`` ``parse_constant`` that refuses ``NaN`` and the
    infinities, which strict JSON does not have."""
    raise ValueError(f"{name} is not JSON")


def _digests(directory: Path, capsys) -> dict:
    """Run ``COMMANDS`` in ``directory``, the working directory, and return
    the SHA-256 of each command's standard output and of every file the
    commands wrote, keyed by command or by relative path.  Each
    ``summary.json`` must parse as strict JSON, with no ``NaN`` or
    infinity."""
    digests = {}
    for name, stem, argv in COMMANDS:
        if stem is not None:
            argv = argv + ["--config", _small_config(stem, name, directory)]
        assert main(argv) == 0, name
        digests[f"{name}/stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    for path in sorted(directory.rglob("*")):
        if path.is_file() and path.parts[len(directory.parts)] != "cfg":
            key = path.relative_to(directory).as_posix()
            if path.name == "summary.json":
                json.loads(path.read_text(), parse_constant=_refuse_constant)
            digests[key] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def _openblas_core() -> str:
    """The core name of numpy's bundled OpenBLAS, as the library picked it."""
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "libscipy_openblas64_*.so")
    try:
        (path,) = glob.glob(libs)
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
    except (ValueError, OSError, AttributeError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def _simd_level() -> str:
    """numpy's highest SIMD dispatch target that this CPU enables."""
    try:
        return np.__config__.CONFIG["SIMD Extensions"]["found"][-1]
    except (AttributeError, KeyError, IndexError, TypeError):
        return "unknown"


def _machine_note(machine=MACHINE) -> str:
    running = (np.__version__, _openblas_core(), _simd_level())
    return "recorded on numpy {} / {} / {}, running on numpy {} / {} / {}".format(
        *machine, *running
    )


def _sha256(arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _bits(directory: Path, capsys, monkeypatch) -> dict:
    """Run the config commands of ``COMMANDS`` in ``directory`` and return
    the SHA-256 of the raw bits they compute (see the module docstring),
    keyed ``name/source`` and ``name/run_protocols/<i>``."""
    bits, handed = {}, []
    build, run, adapt = (
        demkit.cli.build_source_model, demkit.bench.run_protocols, demkit.bench.adapt_stream
    )

    def source(*args):
        model = build(*args)
        bits[f"{name}/source"] = _sha256([model.theta])
        return model

    def adapting(model, theta, *args):
        handed.append(theta)
        return adapt(model, theta, *args)

    def protocols(*args):
        handed.clear()
        runs = run(*args)
        # Every shift of one call steps the same array; hashing another
        # would hash parameters that no protocol ran.
        arrays = list({id(theta): theta for theta in handed}.values())
        assert len(arrays) == 1, f"{name}: run_protocols stepped {len(arrays)} arrays"
        for r in runs:
            arrays += [*r.confusion, *r.sums, r.total]
        calls = sum(key.startswith(f"{name}/run_protocols/") for key in bits)
        bits[f"{name}/run_protocols/{calls}"] = _sha256(arrays)
        return runs

    monkeypatch.setattr(demkit.cli, "build_source_model", source)
    monkeypatch.setattr(demkit.bench, "adapt_stream", adapting)
    monkeypatch.setattr(demkit.bench, "run_protocols", protocols)
    for name, stem, argv in COMMANDS:
        if stem is not None:
            assert main(argv + ["--config", _small_config(stem, name, directory)]) == 0, name
    capsys.readouterr()
    return bits


def test_cli_outputs_match_the_recorded_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert _digests(tmp_path, capsys) == GOLDEN, _machine_note()


def test_computed_bits_match_the_recorded_table(tmp_path, monkeypatch, capsys):
    # The table of the OpenBLAS kernel this process runs; BITS on a kernel
    # with no table of its own.
    monkeypatch.chdir(tmp_path)
    machine, table = TABLES.get(_openblas_core(), (MACHINE, BITS))
    assert _bits(tmp_path, capsys, monkeypatch) == table, _machine_note(machine)


def test_the_bits_hold_on_a_second_kernel():
    # The bit table test again, in a child process on the Haswell kernel
    # and without numpy's AVX-512 loops; the child names the core it ran.
    child = (
        "import sys, pytest\n"
        "code = pytest.main(['-q', '-p', 'no:cacheprovider', sys.argv[1]])\n"
        "from test_golden import _openblas_core\n"
        "print('core:', _openblas_core())\n"
        "sys.exit(code)\n"
    )
    test = f"{Path(__file__).resolve()}::test_computed_bits_match_the_recorded_table"
    result = subprocess.run(
        [sys.executable, "-c", child, test], cwd=ROOT, env={**os.environ, **SECOND_KERNEL},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
    assert result.stdout.rstrip().endswith("core: Haswell"), result.stdout[-2000:]


def test_a_mismatch_names_both_machines():
    note = _machine_note()
    assert note.startswith("recorded on numpy 2.4.6 / SkylakeX / AVX512_SPR, running on numpy ")
    assert note.count(" / ") == 4


def test_an_unreadable_machine_value_reads_unknown(monkeypatch):
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    monkeypatch.setattr(np.__config__, "CONFIG", {})
    assert _machine_note().endswith(f", running on numpy {np.__version__} / unknown / unknown")


def test_script_outputs_match_the_recorded_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = {}
    for name, stem in SCRIPTS:
        spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(script, "CONFIG", _small_config(stem, f"scripts/{name}", tmp_path))
        monkeypatch.setattr(sys, "argv", [f"{name}.py", "--seeds", "2"])
        script.main()
        digests[f"{name}/stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == SCRIPT_GOLDEN, _machine_note()
