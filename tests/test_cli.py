"""Command-line behaviour: subcommands, formats, and exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chogen import cli
from chogen.catalog import EXPECTED_DEVIATIONS, TABLE1, candidate_recipes
from chogen.cli import main
from chogen.designs import ChoiceDesign, equivalent
from chogen.hadamard import hadamard_plan, paley_type1, paley_type2
from chogen.models import ModelKind
from chogen.serialization import dumps, loads
from conftest import deadline

# `table --block` name -> the catalog block it rebuilds
BLOCKS = {"main": ModelKind.MAIN_EFFECTS,
          "broader": ModelKind.BROADER_MAIN_EFFECTS,
          "spec-2f": ModelKind.SPECIFIED_TWO_FACTOR,
          "spec-all": ModelKind.SPECIFIED_ONE_FACTOR}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_json_to_stdout(capsys):
    code, out, err = run(capsys, "generate", "--model", "main-effects",
                         "--m", "2", "--n", "3")
    assert code == 0
    design, meta = loads(out)
    assert (design.m, design.n) == (2, 3)
    assert meta["model"] == "main-effects"
    assert "construction" in meta
    assert "verdict: UniversallyOptimal" in err


def test_generate_writes_file_and_verify_reads_it(capsys, tmp_path):
    path = tmp_path / "d.json"
    code, out, _ = run(capsys, "generate", "--model", "broader",
                       "--m", "4", "--n", "5", "--out", str(path))
    assert code == 0 and str(path) in out
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "verdict: UniversallyOptimal" in out


def test_generate_csv_format(capsys):
    code, out, _ = run(capsys, "generate", "--model", "main-effects",
                       "--m", "2", "--n", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "set,option,treatment"


def test_generate_with_generators_matches_reference(capsys):
    code, out, _ = run(capsys, "generate", "--model", "broader",
                       "--m", "6", "--n", "8",
                       "--generators", "11100000,00000011")
    assert code == 0
    design, meta = loads(out)
    assert meta["generators"] == ["11100000", "00000011"]
    from test_constructions import GEN6_SETS
    assert equivalent(design, ChoiceDesign.from_sets(GEN6_SETS))


def _choices(command, flag):
    parser = cli._build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return next(a.choices for a in sub.choices[command]._actions
                if flag in a.option_strings)


def test_model_and_block_choices_come_from_the_model_kinds():
    models = ["broader", "main-effects", "spec-2f", "spec-all", "spec-group"]
    assert models == sorted(k.value for k in ModelKind
                            if k is not ModelKind.CUSTOM)
    assert _choices("generate", "--model") == models
    assert _choices("verify", "--model") == models
    assert set(BLOCKS.values()) == set(TABLE1)
    assert _choices("table", "--block") == sorted(BLOCKS) + ["all"]


@pytest.mark.parametrize("model, m", [("broader", 6), ("broader", 5),
                                      ("main-effects", 6)])
def test_generators_recipe_is_the_catalog_t1_recipe(model, m):
    gens = "11100000,00000011"
    args = cli._build_parser().parse_args(
        ["generate", "--model", model, "--m", str(m), "--n", "8",
         "--generators", gens])
    t1 = next(r for r in candidate_recipes(ModelKind(model), m, 8)
              if r.id == "T1-generator")
    bits = tuple(tuple(int(c) for c in g) for g in gens.split(","))
    assert cli._generate_recipes(args) == [
        dataclasses.replace(t1, generators=bits)]


def test_generate_spec_group_requires_r(capsys):
    code, _, err = run(capsys, "generate", "--model", "spec-group",
                       "--m", "4", "--n", "4")
    assert code == 3
    assert "--r" in err
    code, out, _ = run(capsys, "generate", "--model", "spec-group",
                       "--m", "4", "--n", "4", "--r", "2")
    assert code == 0
    design, meta = loads(out)
    assert meta["r"] == 2
    assert meta["generators"] == ["1100"]


def test_generate_rescue_path_reports_wider_seed(capsys):
    code, out, err = run(capsys, "generate", "--model", "spec-all",
                         "--m", "4", "--n", "6")
    assert code == 0
    design, _ = loads(out)
    assert design.N == 16
    assert "alpha=4" in err


def test_generate_unsupported_m(capsys):
    code, _, err = run(capsys, "generate", "--model", "spec-all",
                       "--m", "5", "--n", "4")
    assert code == 3
    assert "m in {3,4}" in err


@pytest.mark.parametrize("flag", ["--generators", "--seed-columns"])
def test_generate_refuses_an_empty_flag_value(capsys, flag):
    # an empty value is a bad value, not the default generators or columns
    code, out, err = run(capsys, "generate", "--model", "main-effects",
                         "--m", "4", "--n", "5", flag, "")
    assert (code, out) == (3, "")
    assert err.splitlines() == [f"error: bad {flag} value ''"]


def test_generate_seed_columns_override_can_fail_honestly(capsys):
    # explicit seed columns replace the coset columns too, and
    # these particular ones provably cannot balance every effect pair
    code, _, err = run(capsys, "generate", "--model", "spec-all",
                       "--m", "4", "--n", "6",
                       "--seed-columns", "1,2,3,4,5,6")
    assert code == 2
    assert "no construction certified" in err
    # the width-8 seed gives N(m-1) = 24 < Q = 37 and is refused unbuilt
    assert err.splitlines()[0] == ("not certified: spec-all-m4 alpha=3: "
                                   "NotConnected: N(m-1) = 24 < Q = 37")


def test_generate_seed_columns_try_each_distinct_recipe_once(capsys):
    # the base and coset seeds differ only in their columns, so with the
    # columns given they are one recipe, built and rejected once
    code, _, err = run(capsys, "generate", "--model", "spec-all",
                       "--m", "4", "--n", "4", "--seed-columns", "2,3,4,5")
    assert code == 3
    assert err.splitlines() == [
        "not certified: spec-all-m4 alpha=2: columns must be distinct "
        "and in 1..4",
        "error: no construction could be built for these parameters"]


@pytest.mark.parametrize("m, n", [(128, 7), (256, 10)])
def test_generate_main_effects_on_wide_sylvester_seeds(capsys, m, n):
    # the default seed columns collide rows here, and a walk over the
    # C(m-1, n) column sets would not finish
    with deadline(10):
        code, out, err = run(capsys, "generate", "--model", "main-effects",
                             "--m", str(m), "--n", str(n))
    assert code == 0
    design, _ = loads(out)
    assert (design.N, design.m, design.n) == (1, m, n)
    assert "verdict: UniversallyOptimal" in err


@pytest.mark.parametrize("model", ["main-effects", "broader"])
def test_generate_exits_3_when_no_candidate_builds(capsys, model):
    # the one candidate, the order-12 foldover pair, has no 4 seed columns
    # with distinct rows: nothing is built, so nothing is left to certify
    code, out, err = run(capsys, "generate", "--model", model,
                         "--m", "12", "--n", "4")
    assert (code, out) == (3, "")
    lines = err.splitlines()
    assert lines[0].startswith("not certified: foldover-pair ")
    assert lines[-1] == ("error: no construction could be built for these "
                         "parameters")


GENERATE_MODELS = sorted(k.value for k in ModelKind
                         if k is not ModelKind.CUSTOM) + ["bogus"]


@st.composite
def generate_arguments(draw):
    # m leans to the 2..4 that every family takes, and each flag is given
    # one time in four, so that most draws reach a build
    n = draw(st.integers(-2, 10))
    m = draw(st.one_of(st.integers(2, 4), st.integers(-2, 40)))
    argv = ["generate", "--model", draw(st.sampled_from(GENERATE_MODELS)),
            "--m", str(m), "--n", str(n)]
    r = draw(st.one_of(st.none(), st.integers(-1, max(n, -1))))
    if r is not None:
        argv += ["--r", str(r)]
    for flag, alphabet in (("--generators", "01,"),
                           ("--seed-columns", "0123456789,-")):
        if draw(st.integers(0, 3)) == 0:
            argv.append(f"{flag}={draw(st.text(alphabet, max_size=8))}")
    return argv


def _exit_code(argv):
    """main's exit code, or the one argparse exits with; output discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@given(generate_arguments())
@example(["generate", "--model", "main-effects", "--m", "2", "--n", "0"])
@example(["generate", "--model", "broader", "--m", "2", "--n", "1"])
@example(["generate", "--model", "spec-all", "--m", "3", "--n", "1"])
@example(["generate", "--model", "spec-group", "--m", "4", "--n", "0",
          "--r", "0"])
@example(["generate", "--model", "main-effects", "--m", "12", "--n", "4"])
@example(["generate", "--model", "broader", "--m", "12", "--n", "4"])
@settings(max_examples=100, deadline=None)
def test_generate_arguments_end_in_a_documented_exit_code(argv):
    # sizes stay small: n <= 10 and m <= 40 build a few MB at most
    with deadline(30):
        code = _exit_code(argv)
    assert code in (0, 2, 3, 4), argv


def test_generate_seed_columns_happy_path(capsys):
    code, out, _ = run(capsys, "generate", "--model", "broader",
                       "--m", "4", "--n", "2", "--seed-columns", "1,2")
    assert code == 0
    design, _ = loads(out)
    assert design.N == 1


def test_generate_spec_group_seed_columns_reach_the_rescue(capsys):
    # the width-4 seed cannot hold column 5; the width-8 coset seed can
    code, out, err = run(capsys, "generate", "--model", "spec-group",
                         "--m", "4", "--n", "4", "--r", "2",
                         "--seed-columns", "1,2,3,5")
    assert code == 0
    design, meta = loads(out)
    assert design.N == 8
    assert meta["construction"] == "spec-group-m4 alpha=3 r=2"
    assert "verdict: UniversallyOptimal" in err


INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


@pytest.mark.parametrize("name, argv", [
    ("broader-m6-n8", ["--model", "broader", "--m", "6", "--n", "8"]),
    ("spec-group-m4-n10-r3",
     ["--model", "spec-group", "--m", "4", "--n", "10", "--r", "3"]),
])
def test_generate_matches_committed_design_bytes(capsys, tmp_path, name, argv):
    # the committed spec-group input is the N=512 design of the former
    # width-2^(n-1) seed; generate now writes the N=256 coset design, pinned
    # here by its sha256, and the committed one still certifies
    pinned = {"spec-group-m4-n10-r3": "0216588f367eddbf449c071bfd8d536c"
                                      "8623828b5e602e2d3b778c385d150369"}
    path = tmp_path / f"{name}.json"
    code, _, _ = run(capsys, "generate", *argv, "--out", str(path))
    assert code == 0
    if name in pinned:
        assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned[name]
        assert loads(path.read_text())[0].N == 256
        code, out, _ = run(capsys, "verify", str(INPUTS / f"{name}.json"))
        assert code == 0 and "N=512" in out
    else:
        assert path.read_bytes() == (INPUTS / f"{name}.json").read_bytes()


@pytest.mark.parametrize("argv, plan, digest", [
    (["--model", "main-effects", "--m", "28", "--n", "20"],
     (paley_type1, (27,)),
     "0ff614930e93daccce0c83cf5ddcc8c76102022794d5f69c515aacbc416977fc"),
    (["--model", "broader", "--m", "52", "--n", "40"],
     (paley_type2, (25,)),
     "8a8e381680847a126b36254b20ed44c06a323a2ea8369acd043adbec14d380ad"),
])
def test_generate_pins_extension_field_seed_bytes(capsys, argv, plan, digest):
    # Paley seeds over GF(27) and GF(25), of order m: another irreducible
    # modulus would give another Hadamard seed and another design
    assert hadamard_plan(int(argv[3])) == plan
    code, out, _ = run(capsys, "generate", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_generate_spec_group_beyond_the_old_seed_memory(capsys):
    # the former fallback seed here had order 2^19 and ran out of memory
    with deadline(30):
        code, out, err = run(capsys, "generate", "--model", "spec-group",
                             "--m", "4", "--n", "20", "--r", "12")
    assert code == 0
    design, meta = loads(out)
    assert (design.N, design.m, design.n) == (2048, 4, 20)
    assert meta["construction"] == "spec-group-m4 alpha=11 r=12"
    assert "verdict: UniversallyOptimal" in err


def test_generate_bad_flag_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--model", "nonsense", "--m", "2", "--n", "2"])
    assert exc.value.code == 3


@pytest.mark.parametrize("argv", [
    ("--model", "broader", "--m", "2", "--n", "1"),
    ("--model", "spec-group", "--m", "4", "--n", "1", "--r", "1"),
    ("--model", "broader", "--m", "4", "--n", "-1"),
])
def test_generate_too_few_factors_exits_3(capsys, argv):
    code, _, err = run(capsys, "generate", *argv)
    assert code == 3
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_with_model_override(capsys, tmp_path):
    path = tmp_path / "d.json"
    run(capsys, "generate", "--model", "main-effects", "--m", "2", "--n", "2",
        "--out", str(path))
    code, out, _ = run(capsys, "verify", str(path), "--model", "broader")
    assert code == 0


def test_verify_rejects_design_without_model(capsys, tmp_path):
    path = tmp_path / "bare.json"
    path.write_text('{"sets": [["00", "11"]]}')
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3
    assert "no --model" in err


@pytest.mark.parametrize("meta, message", [
    ({"model": "custom"}, "unknown model 'custom'"),
    ({"model": "bogus"}, "unknown model 'bogus'"),
    ({"model": ["x"]}, "unknown model ['x']"),
    ({"model": "spec-group"}, "spec-group needs a group size --r"),
])
def test_verify_rejects_unknown_model_or_missing_group_size(
        capsys, tmp_path, meta, message):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"sets": [["0000", "1111"]], "meta": meta}))
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3
    assert err == f"error: {message}\n"


def test_verify_uncertified_design_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"sets": [["00", "11"]], "meta": {"model": "main-effects"}}')
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert "verdict: NotConnected" in out


def test_verify_prints_the_fields_an_uncertified_report_builds_on_read(
        capsys, tmp_path):
    # a random broader design below the trace bound: verify decides it
    # without C*, and the summary's first read of the stream's fields gives
    # the lines verify printed when it formed C* itself
    path = tmp_path / "random.json"
    path.write_text(json.dumps({"sets": [
        ["0111", "1001", "1000"], ["0100", "0101", "1001"],
        ["1111", "1010", "1001"], ["0010", "1001", "0000"],
        ["1111", "0100", "1000"], ["0111", "0011", "1011"],
        ["1111", "1000", "1101"], ["1111", "0110", "1010"]],
        "meta": {"model": "broader"}}))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 2
    assert out == (
        "model: broader, n=4, Q=4\n"
        "design: N=8, m=3, n=4, component pairs N*=24\n"
        "diagonal: False (6 offending pairs)\n"
        "balance: False\n"
        "trace: 25/144 (bound 2/9)\n"
        "cross block zero: False\n"
        "  unbalanced pair F1,F2: eta+=0, eta-=7\n"
        "  unbalanced pair F1,F3: eta+=1, eta-=3\n"
        "  unbalanced pair F1,F4: eta+=5, eta-=1\n"
        "  unbalanced pair F2,F3: eta+=5, eta-=0\n"
        "  unbalanced pair F2,F4: eta+=6, eta-=1\n"
        "  unbalanced pair F3,F4: eta+=4, eta-=2\n"
        "verdict: ConnectedNotOptimal\n")


def _wide_design_file(tmp_path, n):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"sets": [["0" * n, "1" * n]],
                                "meta": {"model": "main-effects"}}))
    return path


def test_verify_64_factor_design_exits_3(capsys, tmp_path):
    path = _wide_design_file(tmp_path, 64)
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3
    assert err == "error: option indices are limited to n <= 63 factors, got 64\n"


@pytest.mark.parametrize("argv", [
    ("generate", "--model", "spec-all", "--m", "3", "--n", "30"),
    ("generate", "--model", "spec-group", "--m", "4", "--n", "40", "--r", "2"),
    ("verify", "WIDE", "--model", "spec-all"),
])
def test_oversized_effect_family_exits_3_at_once(capsys, tmp_path, argv):
    # 2^29 effects would be listed; the closed-form count refuses them first
    argv = [str(_wide_design_file(tmp_path, 30)) if a == "WIDE" else a
            for a in argv]
    start = time.perf_counter()
    code, _, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert "MAX_EFFECTS" in err
    assert "Traceback" not in err


def test_generate_too_large_to_allocate_exits_3():
    # a 10^12-row seed cannot be allocated; the child's address space is
    # capped so the refusal does not depend on the machine's overcommit
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, "-c", "import sys; from chogen.cli import main; "
            "sys.exit(main())", "generate", "--model", "main-effects",
            "--m", "1000000000000", "--n", "44"]
    with deadline(30):
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              preexec_fn=cap, timeout=30)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1


def test_generate_with_an_order_past_float_range_exits_3(capsys):
    # hadamard_plan's square root of a 401-digit order overflows a float;
    # the command refuses it at once, with one error line and no traceback
    with deadline(10):
        code, out, err = run(capsys, "generate", "--model", "main-effects",
                             "--m", str(10 ** 400), "--n", "1330")
    assert code == 3 and not out
    assert err == "error: int too large to convert to float\n"


# Runs the command line, then reports on its last stderr line the exit
# code, whether numpy.ma was imported, how many independence witnesses
# were sought and how many ranks were taken.
MA_CHECK = """
import sys
from chogen import ratlinalg
from chogen.cli import main
witnesses, ranks = [], []
witness, rank = ratlinalg.independence_witness, ratlinalg.rank
ratlinalg.independence_witness = (
    lambda D, Q: witnesses.append(1) or witness(D, Q))
ratlinalg.rank = lambda M: ranks.append(1) or rank(M)
code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules, len(witnesses), len(ranks),
      file=sys.stderr)
"""


@pytest.mark.parametrize("argv, code", [
    (["table"], 0),
    (["generate", "--model", "spec-group", "--m", "4", "--n", "10",
      "--r", "3"], 0),
    (["verify", str(INPUTS / "spec-all-m3-n12.json")], 0),
    # one set repeated, Q = 3 = N(m-1): its treatment graph has T - c = 1
    # < Q rows, so NotConnected is decided with no witness and no rank
    (["verify", "REPEATED", "--model", "main-effects"], 2),
    # T - c = Q = 3, but factor 3 never varies: the witness's kernel vector
    # (0, 0, 1) checks, so no rank is taken
    (["verify", "DEFICIT", "--model", "main-effects"], 2),
])
def test_commands_never_import_numpy_ma(tmp_path, argv, code):
    # np.unique and friends import numpy.ma on their first call, 10-20 ms
    # of a cold process
    designs = {"REPEATED": ("0 0", [("000", "111")] * 3),
               "DEFICIT": ("1 0", [("000", "100"), ("000", "010"),
                                   ("000", "110")])}
    routes = None
    for name, (counts, sets) in designs.items():
        if name in argv:
            path = tmp_path / f"{name}.json"
            path.write_text(dumps(ChoiceDesign(sets), {}))
            argv = [str(path) if a == name else a for a in argv]
            routes = counts
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    with deadline(60):
        proc = subprocess.run([sys.executable, "-c", MA_CHECK, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
    exit_code, imported, witnesses, ranks = proc.stderr.split()[-4:]
    assert (exit_code, imported) == (str(code), "False")
    if routes is not None:
        assert f"{witnesses} {ranks}" == routes


def test_verify_missing_file_exits_4(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/design.json")
    assert code == 4


def test_verify_malformed_json_exits_4(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 4


def _known_deviations(kind):
    return {(m, n): N for (k, m, n), N in EXPECTED_DEVIATIONS.items()
            if k is kind}


# each table test runs every block, so one test id covers all four
def test_table_block_json(capsys):
    for block, kind in BLOCKS.items():
        code, out, _ = run(capsys, "table", "--block", block,
                           "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 11 * len(TABLE1[kind])
        assert {r["model"] for r in rows} == {kind.value}
        differ = {(r["m"], r["n"]): r["achieved_N"] for r in rows
                  if r["status"] not in ("Match", "BlankCell")}
        assert differ == _known_deviations(kind)


def test_table_block_text_marks_deviations(capsys):
    for block, kind in BLOCKS.items():
        code, out, _ = run(capsys, "table", "--block", block,
                           "--format", "text")
        assert code == 0  # all deviations in a block are the known ones
        known = _known_deviations(kind)
        assert all(f"{N}!" in out for N in known.values())
        assert out.count("known deviation") == len(known)
        assert "UNEXPECTED" not in out


def test_table_block_csv_to_file(capsys, tmp_path):
    path = tmp_path / "table.csv"
    for block, kind in BLOCKS.items():
        code, out, _ = run(capsys, "table", "--block", block,
                           "--format", "csv", "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("model,m,n,")
        assert len(lines) == 1 + 11 * len(TABLE1[kind])
        assert {line.split(",")[0] for line in lines[1:]} == {kind.value}


@pytest.mark.parametrize("argv", [
    ("--model", "main-effects", "--m", "1", "--n", "3"),
    ("--model", "broader", "--m", "1", "--n", "4"),
    ("--model", "main-effects", "--m", "0", "--n", "3"),
    ("--model", "broader", "--m", "-2", "--n", "3"),
    ("--model", "broader", "--m", "4", "--n", "4", "--generators", "1x00"),
    ("--model", "broader", "--m", "6", "--n", "4",
     "--generators", "12,0100"),
    ("--model", "broader", "--m", "6", "--n", "4", "--generators", "1100,"),
    ("--model", "broader", "--m", "1", "--n", "4", "--generators", "1000"),
])
def test_bad_set_size_or_generators_exit_3_at_once(capsys, argv):
    # m < 2 once sent the direct-addition recipe into an endless search,
    # and bad generator bits escaped as a ValueError traceback
    start = time.perf_counter()
    with deadline(10):
        code, _, err = run(capsys, "generate", *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert err.startswith("error: ")
    assert "Traceback" not in err


# any JSON value, NaN and the infinities included
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)
_options = st.text(alphabet="01", max_size=10) | st.text(max_size=4)
_sets = st.lists(st.lists(_options, max_size=5), max_size=5) | _json_values
_models = st.sampled_from([k.value for k in ModelKind]) | _json_values


@st.composite
def _verify_documents(draw):
    """A design document with random values under sets, n, m and meta."""
    doc = {"sets": draw(_sets)}
    for field in ("n", "m"):
        if draw(st.booleans()):
            doc[field] = draw(_json_values | st.integers(0, 12))
    meta = {}
    if draw(st.booleans()):
        meta["model"] = draw(_models)
    if draw(st.booleans()):
        meta["r"] = draw(_json_values | st.integers(-2, 12))
    doc["meta"] = meta if draw(st.booleans()) else draw(_json_values)
    return json.dumps(doc).encode()


@given(_verify_documents())
@example(b'\xff\xfe{"sets": [["00", "11"]]}')  # not UTF-8
@example(b'{"sets": [["00", "11"]], "n": ' + b"9" * 5000 + b"}")  # digit limit
@example(b"[" * 100000)  # deeper than the recursion limit
@example(b'{"sets": [["00", "11"]], "meta": {"model": "spec-group", "r": "2"}}')
@example(b'{"sets": [["00", "11"]], "meta": {"model": "spec-group", "r": 1.5}}')
@example(b'{"sets": [["00", "11"]], "meta": {"model": "spec-group", "r": [1]}}')
@example(b'{"sets": [["00", "11"]], "meta": {"model": "spec-group", "r": true}}')
@settings(max_examples=200, deadline=None)
def test_verify_of_malformed_documents_exits_cleanly(payload):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.json"
        path.write_bytes(payload)
        out, err = io.StringIO(), io.StringIO()
        with (deadline(10), contextlib.redirect_stdout(out),
              contextlib.redirect_stderr(err)):
            code = main(["verify", str(path)])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("meta, code, message", [
    ({"model": "spec-group", "r": "2"}, 3,
     "error: group size r must lie in 1..3, got '2'\n"),
    ({"model": "spec-group", "r": 1.5}, 3,
     "error: group size r must lie in 1..3, got 1.5\n"),
    ({"model": "spec-group", "r": [1]}, 3,
     "error: group size r must lie in 1..3, got [1]\n"),
    ({"model": "spec-group", "r": True}, 3,
     "error: group size r must lie in 1..3, got True\n"),
])
def test_verify_non_integer_group_size_exits_3(capsys, tmp_path, meta, code,
                                               message):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"sets": [["0000", "1111"]], "meta": meta}))
    assert run(capsys, "verify", str(path)) == (code, "", message)


def test_verify_reports_the_declared_value_as_written(capsys, tmp_path):
    path = tmp_path / "d.json"
    path.write_text('{"sets": [["000", "111"]], "n": "3"}')
    assert run(capsys, "verify", str(path)) == (
        4, "", "error: declared n='3' but sets give n=3\n")

